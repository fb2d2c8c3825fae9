//===- mem/MemoryBus.h - Shared DRAM latency/bandwidth model --------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// First-order timing model of the memory system shared by the IA32
/// sequencer and the GMA device: a fixed access latency plus a finite
/// bandwidth that serializes transfers. Both the GMA cycle model and the
/// IA32 roofline model draw on the same bus, so bandwidth-bound kernels
/// (e.g. BOB) see comparable limits on both sides, which is what produces
/// their small speedups in Figure 7.
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_MEM_MEMORYBUS_H
#define EXOCHI_MEM_MEMORYBUS_H

#include <algorithm>
#include <cassert>
#include <cstdint>

namespace exochi {
namespace mem {

/// Simulated time in nanoseconds.
using TimeNs = double;

/// Bandwidth/latency parameters of the simulated memory system. Values
/// model the paper's 965G-chipset platform at first order.
struct MemoryBusParams {
  double BandwidthBytesPerNs = 8.0; ///< ~8 GB/s dual-channel DDR2.
  TimeNs AccessLatencyNs = 90.0;    ///< DRAM access latency.
};

/// Bandwidth-serializing memory bus.
///
/// request() returns the completion time of a transfer issued at \p Now:
/// transfers queue behind one another at the configured bandwidth and each
/// pays the access latency once. The model is deliberately coarse — it
/// captures the two effects the paper's figures hinge on (finite shared
/// bandwidth, nontrivial access latency) without a DRAM page model.
///
/// The bus is a shared arbitration point: the order of requests sets
/// FreeAt. The GMA engine only calls request() from its resolve phase, in
/// the canonical order (DESIGN.md, "Epoch schedule & determinism
/// contract").
class MemoryBus {
public:
  explicit MemoryBus(MemoryBusParams P = MemoryBusParams()) : Params(P) {}

  /// Issues a transfer of \p Bytes at time \p Now; returns completion time.
  TimeNs request(TimeNs Now, uint64_t Bytes) {
    return issue(Now, Bytes, Params.AccessLatencyNs);
  }

  /// Issues a transfer whose access latency is hidden by the hardware
  /// prefetcher (sequential streams): only bandwidth is charged.
  TimeNs requestStreamed(TimeNs Now, uint64_t Bytes) {
    return issue(Now, Bytes, 0.0);
  }

  /// Time the bus becomes idle.
  TimeNs freeAt() const { return FreeAt; }

  /// Resets queue state and statistics.
  void reset() {
    FreeAt = 0;
    TotalBytes = 0;
    BusyNs = 0;
  }

  uint64_t totalBytes() const { return TotalBytes; }
  TimeNs busyNs() const { return BusyNs; }
  const MemoryBusParams &params() const { return Params; }

private:
  TimeNs issue(TimeNs Now, uint64_t Bytes, TimeNs Latency) {
    assert(Bytes > 0 && "zero-byte bus request");
    TimeNs Start = std::max(Now, FreeAt);
    TimeNs Xfer = static_cast<double>(Bytes) / Params.BandwidthBytesPerNs;
    FreeAt = Start + Xfer;
    TotalBytes += Bytes;
    BusyNs += Xfer;
    return Start + Latency + Xfer;
  }

  MemoryBusParams Params;
  TimeNs FreeAt = 0;
  uint64_t TotalBytes = 0;
  TimeNs BusyNs = 0;
};

} // namespace mem
} // namespace exochi

#endif // EXOCHI_MEM_MEMORYBUS_H
