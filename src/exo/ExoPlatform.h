//===- exo/ExoPlatform.h - The heterogeneous EXO prototype platform --------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated equivalent of the paper's hardware prototype (Section
/// 3.4): one OS-managed IA32 sequencer (Core-2-class timing model + IA32
/// address space) and a GMA X3000-class device exposing 32 exo-sequencers,
/// joined by a shared memory bus and a shared virtual address space. The
/// MISP exoskeleton signalling between them is realized by installing the
/// ExoProxyHandler into the device.
///
/// ExoPlatform owns every simulated hardware component; the CHI runtime
/// (src/chi) is a pure software layer on top of it.
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_EXO_EXOPLATFORM_H
#define EXOCHI_EXO_EXOPLATFORM_H

#include "cpu/CpuModel.h"
#include "exo/ProxyExecution.h"
#include "gma/GmaDevice.h"
#include "mem/AddressSpace.h"
#include "mem/MemoryBus.h"
#include "mem/PhysicalMemory.h"

#include <deque>
#include <memory>
#include <string>
#include <vector>

namespace exochi {
namespace exo {

/// Configuration of the whole platform.
struct PlatformConfig {
  gma::GmaConfig Gma;
  cpu::CpuConfig Cpu;
  mem::MemoryBusParams Bus;
  ProxyParams Proxy;
  /// GMA device instances behind the ExoCluster scheduler. Each device
  /// gets its own memory bus (capacity genuinely scales with the fleet);
  /// all share one physical memory, kernel table, and proxy handler.
  unsigned NumDevices = 1;
};

/// A named buffer in the shared virtual address space.
struct SharedBuffer {
  mem::VirtAddr Base = 0;
  uint64_t Bytes = 0;
  std::string Name;
};

/// The heterogeneous prototype platform: IA32 sequencer + exo-sequencers
/// over one shared virtual address space.
class ExoPlatform {
public:
  explicit ExoPlatform(const PlatformConfig &Config = PlatformConfig());

  ExoPlatform(const ExoPlatform &) = delete;
  ExoPlatform &operator=(const ExoPlatform &) = delete;

  mem::PhysicalMemory &physicalMemory() { return PM; }
  mem::Ia32AddressSpace &addressSpace() { return AS; }
  mem::MemoryBus &bus() { return Bus; }
  /// The primary device (device 0). Single-device callers keep working
  /// unchanged; cluster-aware callers iterate device(I).
  gma::GmaDevice &device() { return *Devices.front(); }
  gma::GmaDevice &device(unsigned I) { return *Devices[I]; }
  unsigned numDevices() const { return static_cast<unsigned>(Devices.size()); }
  cpu::CpuModel &cpuModel() { return Cpu; }
  ExoProxyHandler &proxy() { return Proxy; }
  const PlatformConfig &config() const { return Config; }

  /// Does nothing. The device model once advanced its EUs on host
  /// worker threads and this set their number; the advance phase is now
  /// always serial. Kept only because the benchmark sources under
  /// bench/exobench still call it, and they change only together with
  /// the benchmark itself; the next such change drops those calls and
  /// this function.
  void setSimThreads(unsigned) {}

  /// Installs a FaultLab injector at every probe site across the stack
  /// (device refill/resolve phases + proxy ATR/CEH paths). Pass nullptr
  /// to disarm. The injector must outlive the runs it is armed for.
  void armFaultInjection(fault::FaultInjector *Inj) {
    for (auto &D : Devices)
      D->setFaultInjector(Inj);
    Proxy.setFaultInjector(Inj);
  }

  /// Retry budget of the degradation ladder: proxy transient-fault /
  /// CEH-timeout retries and device shred re-dispatches.
  void setMaxRetries(unsigned K) {
    Proxy.setMaxRetries(K);
    for (auto &D : Devices)
      D->setMaxRedispatch(K);
  }

  /// Allocates \p Bytes of demand-paged shared virtual memory. Both the
  /// IA32 sequencer and (through ATR) the exo-sequencers can access it at
  /// the same virtual addresses.
  SharedBuffer allocateShared(uint64_t Bytes, std::string Name);
  /// Whether allocateShared(\p Bytes) still fits in the 32-bit address
  /// space (addresses are never reused).
  bool canAllocateShared(uint64_t Bytes) const {
    return Allocator.fits(Bytes);
  }

  /// Host-side typed access to shared memory (the IA32 sequencer's view).
  template <typename T> T load(mem::VirtAddr Va) { return AS.load<T>(Va); }
  template <typename T> void store(mem::VirtAddr Va, const T &V) {
    AS.store<T>(Va, V);
  }
  void read(mem::VirtAddr Va, void *Out, uint64_t N) { AS.read(Va, Out, N); }
  void write(mem::VirtAddr Va, const void *In, uint64_t N) {
    AS.write(Va, In, N);
  }

private:
  PlatformConfig Config;
  mem::PhysicalMemory PM;
  mem::MemoryBus Bus;
  mem::Ia32AddressSpace AS;
  mem::VirtualAllocator Allocator;
  /// Buses of devices 1..N-1: each device arbitrates its own bus so
  /// cluster capacity genuinely scales (device 0 keeps the primary Bus,
  /// preserving single-device timing bit-for-bit). A deque keeps
  /// references stable as it grows.
  std::deque<mem::MemoryBus> ExtraBuses;
  /// The GMA fleet; Devices[0] always exists and shares one kernel table
  /// with the rest.
  std::vector<std::unique_ptr<gma::GmaDevice>> Devices;
  cpu::CpuModel Cpu;
  ExoProxyHandler Proxy;
};

} // namespace exo
} // namespace exochi

#endif // EXOCHI_EXO_EXOPLATFORM_H
