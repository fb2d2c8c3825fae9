//===- xjit/Xjit.h - XJIT: host-native fast execution lane ------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// XJIT, the functional fast backend for XGMA kernels (DESIGN.md §14).
/// Where the cycle backend (gma::GmaDevice) simulates the GMA X3000
/// microarchitecture — EUs, switch-on-stall contexts, cache/bus timing,
/// epoch barriers — XJIT executes the same kernels as host-native code:
/// the pre-decoded instruction stream is compiled once per kernel into a
/// trace of template-specialized handler calls, and shreds run as plain
/// host work items on a sequential cooperative scheduler.
///
/// The contract with the cycle backend is *surface-output bit-identity*:
/// every functional effect (register semantics, memory movement, CEH
/// skip-on-success emulation, xmit/wait signalling, the FaultLab
/// degradation ladder, deadline preemption at shred granularity) matches
/// the interpreter exactly; only timing and occupancy statistics are
/// backend-specific (the fast lane reports a deterministic issue-cycle
/// estimate). The cycle interpreter therefore remains the differential
/// oracle for this backend — see tests/xjit_test.cpp.
///
/// XJIT leans on XVerify (xopt/Verify.h): a dispatch whose kernel is
/// proven bounds-safe under the actual surface geometry and parameter
/// ranges runs with per-access bounds checks elided; anything unprovable
/// runs on the fast lane *with* checks, and kernels the lane cannot
/// represent at all (spawn) stay on the cycle backend. The backend is
/// selected per run via chi::Feature::Backend / `exochi-run --backend`.
///
/// The same traces also run the IA32 host lane (HostLane below): an
/// orphaned shred executes as a one-shred checked trace on the IA32
/// sequencer, so XGMA semantics have exactly two definitions — the cycle
/// interpreter (the oracle) and the XJIT handlers.
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_XJIT_XJIT_H
#define EXOCHI_XJIT_XJIT_H

#include "gma/Ceh.h"
#include "gma/GmaDevice.h"
#include "mem/AddressSpace.h"

#include <memory>
#include <vector>

namespace exochi {
namespace xjit {

/// One fast-lane dispatch: the shred team of a parallel region, handed
/// over wholesale instead of flowing through the device work queue.
struct JitRunRequest {
  /// Kernel id as registered with the GmaDevice (the fast lane executes
  /// the device's own KernelImage, so both backends run identical code).
  uint32_t KernelId = 0;
  /// The shred team, in dispatch order. Shred ids are reserved from the
  /// device's allocation sequence (GmaDevice::allocShredIds) so
  /// `sid`-dependent addressing matches the cycle backend bit-for-bit.
  std::vector<gma::ShredDescriptor> Shreds;
  /// Simulated time at which the dispatch starts (GmaRunStats::StartNs).
  gma::TimeNs StartNs = 0;
  /// Absolute simulated-time deadline (0 = none). The fast lane checks
  /// its finish-time estimate at shred boundaries and every few thousand
  /// executed steps; once the estimate passes the deadline, remaining
  /// shreds are cancelled and the run exits DeadlinePreempted.
  gma::TimeNs DeadlineNs = 0;
  /// Diagnostic mode: keep per-access checks even when XVerify proves
  /// them unnecessary (chi::Feature::Backend value 2; used by the
  /// differential tests and bench_jit to measure the elision gain).
  bool ForceChecked = false;
};

/// Outcome of one fast-lane run.
struct JitRunResult {
  gma::RunExit Exit = gma::RunExit::QueueDrained;
  /// Run statistics with Backend == BackendKind::Fast. Functional
  /// counters (shreds, instructions, memory/bytes, proxy/fault counters)
  /// mean the same thing as on the cycle backend; FinishNs/IssueCycles
  /// are the fast lane's deterministic estimate, not cycle-accurate.
  gma::GmaRunStats Stats;
  /// True when XVerify proved the dispatch bounds-safe and per-access
  /// checks were elided for this run.
  bool ElidedChecks = false;
};

/// The fast-lane engine bound to one device. Owns the compiled traces
/// (cached per kernel and check mode), its own ATR-filled TLB, and the
/// per-dispatch XVerify elision verdict cache. Shares the device's
/// kernel registry, shred-id sequence, and FaultLab injector so the two
/// backends stay interchangeable mid-session. Not thread-safe (same
/// contract as GmaDevice's host-facing API).
class JitEngine {
public:
  /// \p Proxy is the MISP exoskeleton handler servicing ATR misses, CEH
  /// exceptions, and host-lane orphans for this engine (normally the
  /// platform's ExoProxyHandler; null only in proxy-less tests).
  JitEngine(gma::GmaDevice &Device, mem::PhysicalMemory &PM,
            gma::ProxySignalHandler *Proxy);
  ~JitEngine();

  JitEngine(const JitEngine &) = delete;
  JitEngine &operator=(const JitEngine &) = delete;

  /// True when the fast lane can represent \p Code at all. The only
  /// construct it refuses is `spawn` (dynamic shred trees belong to the
  /// device work queue); everything else — including xmit/wait
  /// signalling and F64 CEH faults — is supported.
  static bool supports(const std::vector<isa::Instruction> &Code);

  /// Runs one dispatch. The caller must have reset device statistics for
  /// the run (Runtime::dispatch does) so the shared FaultLab injector
  /// replays its schedule from occurrence zero, exactly as the cycle
  /// backend's run setup does. Takes the team by value: each shred keeps
  /// its descriptor (the restart source), moved out of \p Req.
  Expected<JitRunResult> run(JitRunRequest Req);

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

/// Proxy counters one host-lane run adds to.
struct HostLaneStats {
  /// Instructions executed: halt counted, running off the end not.
  uint64_t Instructions = 0;
  /// Integer divides that hit a zero divisor and resumed under WriteZero.
  uint64_t DivZeroHandled = 0;
  /// Pages still unmapped after the OS serviced their demand-page fault.
  uint64_t DoubleFaults = 0;
};

/// The IA32 host lane, last rung of the FaultLab degradation ladder
/// (DESIGN.md §11): runs an orphaned shred on the IA32 sequencer as a
/// one-shred checked XJIT trace. It differs from a device run in two
/// places only. Pages translate through the IA32 address space
/// (demand-page faults serviced in place) instead of the device TLB and
/// ATR. Exceptions are handled in place instead of signalled: df
/// instructions run under gma::emulateF64, integer divide by zero under
/// gma::emulateDivZero, and surface errors, `xmit`/`wait`/`spawn` and
/// runaway shreds (4,000,000 instructions) fail the run. No proxy call,
/// injector probe or CEH latency is involved. Owns one host trace per
/// kernel, compiled on first use. Not thread-safe.
class HostLane {
public:
  explicit HostLane(mem::Ia32AddressSpace &AS);
  ~HostLane();

  HostLane(const HostLane &) = delete;
  HostLane &operator=(const HostLane &) = delete;

  /// Runs \p O to completion. Counters accumulate into \p Stats, also
  /// when the run fails; Instructions only when it succeeds.
  Error run(const gma::OrphanShred &O, gma::DivZeroPolicy DivZero,
            HostLaneStats &Stats);

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

} // namespace xjit
} // namespace exochi

#endif // EXOCHI_XJIT_XJIT_H
