//===- exo/ProxyExecution.cpp --------------------------------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//

#include "exo/ProxyExecution.h"

#include "fault/FaultInjector.h"
#include "support/Format.h"

#include <algorithm>

using namespace exochi;
using namespace exochi::exo;

Expected<gma::TimeNs>
ExoProxyHandler::onTranslationMiss(mem::VirtAddr Va, bool IsWrite,
                                   mem::GpuMemType MemType, mem::Tlb &Tlb) {
  ++Stats.AtrRequests;
  gma::TimeNs Latency = Params.SignalLatencyNs + 2 * Params.WalkReadNs;

  if (Inj) {
    // FaultLab probes, keyed by faulting page so a given access faults
    // identically in every replay. Transient faults are retried
    // with exponential backoff on the signal latency; only a fault that
    // persists past the retry budget (or an injected hard failure)
    // reaches the device as an error.
    uint64_t Key = mem::pageNumber(Va);
    unsigned Attempt = 0;
    while (Inj->shouldInject(fault::FaultKind::AtrTransient, Key)) {
      ++Stats.InjectedFaults;
      if (++Attempt > Params.MaxRetries)
        return Error::make(formatString(
            "ATR proxy: transient fault at 0x%llx persisted after %u "
            "retries",
            static_cast<unsigned long long>(Va), Params.MaxRetries));
      ++Stats.TransientRetries;
      Latency += Params.SignalLatencyNs *
                 static_cast<double>(1u << std::min(Attempt, 6u));
    }
    if (Inj->shouldInject(fault::FaultKind::AtrFatal, Key)) {
      ++Stats.InjectedFaults;
      return Error::make(formatString(
          "ATR proxy: injected unserviceable fault at 0x%llx",
          static_cast<unsigned long long>(Va)));
    }
  }

  // Proxy execution: the IA32 shred touches the virtual address on behalf
  // of the exo-sequencer, servicing demand-page faults through the OS.
  mem::PageFault F;
  auto T = AS.translate(Va, IsWrite, &F);
  if (!T) {
    if (!AS.handleFault(F))
      return Error::make(formatString(
          "ATR proxy: unserviceable %s fault at 0x%llx",
          mem::faultKindName(F.Kind), static_cast<unsigned long long>(Va)));
    ++Stats.DemandPageFaults;
    Latency += Params.FaultServiceNs;
    mem::PageFault F2;
    T = AS.translate(Va, IsWrite, &F2);
    if (!T) {
      // The second walk can still miss (e.g. the mapping changed under
      // us). Report it with proxy-site context instead of letting the
      // raw walker error escape.
      ++Stats.DoubleFaults;
      return Error::make(formatString(
          "ATR proxy: %s fault at 0x%llx persists after demand-page "
          "service (double fault)",
          mem::faultKindName(F2.Kind), static_cast<unsigned long long>(Va)));
    }
  }

  // ATR: transcode the IA32 PTE into the exo-sequencer's native format
  // and install it so both sequencers resolve the page to the same frame.
  auto Pte = mem::transcodePteIa32ToGpu(T->Pte, MemType);
  if (!Pte)
    return Pte.takeError();
  ++Stats.PteTranscodes;
  Tlb.insert(mem::pageNumber(Va), *Pte);
  return Latency;
}

Expected<gma::TimeNs>
ExoProxyHandler::onException(const gma::ExceptionInfo &Info,
                             gma::ShredRegView &Regs) {
  // FaultLab: CEH handler timeouts, keyed by faulting site (kernel, pc).
  // Each timeout re-signals the handler after a backed-off delay; the
  // exception is only reported unhandled once the budget is spent.
  gma::TimeNs Extra = 0;
  if (Inj) {
    uint64_t Key = (static_cast<uint64_t>(Info.KernelId) << 32) | Info.Pc;
    unsigned Attempt = 0;
    while (Inj->shouldInject(fault::FaultKind::CehTimeout, Key)) {
      ++Stats.InjectedFaults;
      if (++Attempt > Params.MaxRetries)
        return Error::make(formatString(
            "CEH: handler for shred %u pc %u timed out after %u retries",
            Info.ShredId, Info.Pc, Params.MaxRetries));
      ++Stats.CehRetries;
      Extra += Params.SignalLatencyNs *
               static_cast<double>(1u << std::min(Attempt, 6u));
    }
  }

  switch (Info.Kind) {
  case gma::ExceptionKind::UnsupportedType: {
    // CEH Figure 2 scenario: a double-precision vector instruction faults
    // and is emulated with full IEEE semantics by the IA32 proxy.
    if (Error E = gma::emulateF64(Info.Instr, Regs))
      return E;
    ++Stats.ExceptionsEmulated;
    return Extra + Params.SignalLatencyNs + Params.EmulationNs;
  }

  case gma::ExceptionKind::DivideByZero: {
    if (Error E = gma::emulateDivZero(Info.Instr, Regs, DivZero))
      return E;
    ++Stats.DivZeroHandled;
    ++Stats.ExceptionsEmulated;
    return Extra + Params.SignalLatencyNs + Params.EmulationNs;
  }

  case gma::ExceptionKind::SurfaceBounds:
    return Error::make(formatString(
        "shred accessed outside its bound surface (kernel %u pc %u)",
        Info.KernelId, Info.Pc));
  case gma::ExceptionKind::InvalidSurface:
    return Error::make(formatString(
        "shred referenced an unbound surface slot (kernel %u pc %u)",
        Info.KernelId, Info.Pc));
  }
  exochiUnreachable("bad ExceptionKind");
}

Expected<gma::TimeNs>
ExoProxyHandler::onShredOrphaned(const gma::OrphanShred &O) {
  xjit::HostLaneStats H;
  Error E = Host.run(O, DivZero, H);
  Stats.DivZeroHandled += H.DivZeroHandled;
  Stats.DoubleFaults += H.DoubleFaults;
  if (E)
    return E;
  ++Stats.OrphansEmulated;
  Stats.OrphanInstructions += H.Instructions;
  return Params.SignalLatencyNs +
         static_cast<double>(H.Instructions) * Params.OrphanInstrNs;
}
