//===- exo/ProxyExecution.h - ATR and CEH proxy execution ------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The production implementation of proxy execution (paper Sections 3.2
/// and 3.3): when an exo-sequencer incurs a TLB miss or exception, it
/// suspends the shred and signals the OS-managed IA32 sequencer with a
/// user-level interrupt (the MISP exoskeleton). The IA32 proxy handler
/// then either
///
///  - services the fault (ATR): touch the faulting virtual address under
///    the OS (demand paging), read the IA32 PTE, transcode it to the
///    exo-sequencer's GPU page-table format, and insert it into the
///    requesting TLB; or
///
///  - emulates the faulting instruction (CEH): e.g. a double-precision
///    vector instruction is executed lane-by-lane with full IEEE double
///    semantics on the IA32 side, and the results are written back into
///    the exo-sequencer's register file before the shred resumes.
///
/// As the last rung of the FaultLab degradation ladder it also runs
/// orphaned shreds on the IA32 host lane (xjit::HostLane).
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_EXO_PROXYEXECUTION_H
#define EXOCHI_EXO_PROXYEXECUTION_H

#include "gma/Ceh.h"
#include "mem/AddressSpace.h"
#include "xjit/Xjit.h"

#include <cstdint>

namespace exochi {

namespace fault {
class FaultInjector;
}

namespace exo {

/// Latency parameters of the MISP signalling / proxy-execution path.
struct ProxyParams {
  /// User-level inter-sequencer interrupt round trip (SIGNAL + resume).
  gma::TimeNs SignalLatencyNs = 250.0;
  /// One page-table level read during the proxy walk.
  gma::TimeNs WalkReadNs = 90.0;
  /// OS demand-page fault service (allocation + mapping).
  gma::TimeNs FaultServiceNs = 1500.0;
  /// Software emulation of one faulting instruction (CEH).
  gma::TimeNs EmulationNs = 1200.0;
  /// FaultLab: bounded retries for injected transient proxy faults and
  /// CEH handler timeouts before the fault is reported upward.
  unsigned MaxRetries = 3;
  /// Per-instruction cost of the IA32 host lane executing an orphaned
  /// shred functionally (degradation ladder, last rung).
  gma::TimeNs OrphanInstrNs = 5.0;
};

/// The SEH divide-by-zero policy, shared with the host lane (gma/Ceh.h).
using gma::DivZeroPolicy;

/// Statistics of proxy activity on the IA32 sequencer.
struct ProxyStats {
  uint64_t AtrRequests = 0;
  uint64_t DemandPageFaults = 0;
  uint64_t PteTranscodes = 0;
  uint64_t ExceptionsEmulated = 0;
  uint64_t DivZeroHandled = 0;

  // FaultLab resilience counters (all zero when injection is disarmed).
  uint64_t InjectedFaults = 0;      ///< injector decisions taken at proxy sites
  uint64_t TransientRetries = 0;    ///< ATR retries after transient faults
  uint64_t CehRetries = 0;          ///< CEH handler timeout retries
  uint64_t DoubleFaults = 0;        ///< second walk missed after fault service
  uint64_t OrphansEmulated = 0;     ///< orphan shreds run on the host lane
  uint64_t OrphanInstructions = 0;  ///< instructions executed on that lane
};

/// The IA32-side proxy handler installed into the GMA device.
class ExoProxyHandler : public gma::ProxySignalHandler {
public:
  ExoProxyHandler(mem::Ia32AddressSpace &AS, ProxyParams Params = ProxyParams())
      : AS(AS), Params(Params), Host(AS) {}

  void setDivZeroPolicy(DivZeroPolicy P) { DivZero = P; }

  /// Installs the FaultLab injector consulted at the proxy's probe sites
  /// (nullptr to remove). A disarmed injector costs ~nothing.
  void setFaultInjector(fault::FaultInjector *I) { Inj = I; }

  /// Retry budget for injected transient faults / handler timeouts.
  void setMaxRetries(unsigned K) { Params.MaxRetries = K; }

  const ProxyStats &stats() const { return Stats; }
  void resetStats() { Stats = ProxyStats(); }

  // gma::ProxySignalHandler:
  Expected<gma::TimeNs> onTranslationMiss(mem::VirtAddr Va, bool IsWrite,
                                          mem::GpuMemType MemType,
                                          mem::Tlb &Tlb) override;
  Expected<gma::TimeNs> onException(const gma::ExceptionInfo &Info,
                                    gma::ShredRegView &Regs) override;
  Expected<gma::TimeNs> onShredOrphaned(const gma::OrphanShred &O) override;

private:
  mem::Ia32AddressSpace &AS;
  ProxyParams Params;
  DivZeroPolicy DivZero = DivZeroPolicy::Fault;
  ProxyStats Stats;
  fault::FaultInjector *Inj = nullptr;
  xjit::HostLane Host; ///< caches one host trace per kernel
};

} // namespace exo
} // namespace exochi

#endif // EXOCHI_EXO_PROXYEXECUTION_H
