//===- xjit/JitEngine.cpp - XJIT host-native fast execution lane -----------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The XJIT backend (DESIGN.md §14). Each kernel compiles once into a
/// trace of FastOps — one template-specialized handler per instruction,
/// selected by (opcode, element type, compare condition, checked/unchecked)
/// — pointing into the shared pre-decoded operand forms (isa/Decoded.h).
/// Shreds are plain host work items run to completion by a sequential
/// cooperative scheduler; `wait` parks a shred, `xmit` wakes it.
///
/// Every functional path below mirrors a specific piece of the cycle
/// interpreter (GmaDevice.cpp) — the comments name the counterpart. The
/// contract is surface-output bit-identity: registers, memory movement,
/// CEH emulation, signalling, and the FaultLab degradation ladder behave
/// exactly as on the cycle backend; only timing/occupancy statistics are
/// backend-specific estimates.
///
/// Check elision: a dispatch is verified by XVerify against the *actual*
/// surface geometry and cross-shred parameter ranges; a clean report
/// selects the trace with per-access surface/bounds checks compiled out.
/// Integer divide-by-zero detection is kept in both modes — it is one
/// compare per lane and guards host UB, and its CEH path is semantics,
/// not a safety check.
///
//===----------------------------------------------------------------------===//

#include "xjit/Xjit.h"

#include "fault/FaultInjector.h"
#include "isa/Decoded.h"
#include "support/Format.h"
#include "xopt/Cost.h"
#include "xopt/Range.h"
#include "xopt/Verify.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstring>
#include <deque>
#include <map>
#include <unordered_map>

namespace exochi {
namespace xjit {

using isa::CmpOp;
using isa::DecodedInsn;
using isa::DecodedOperand;
using isa::ElemType;
using isa::Instruction;
using isa::MaxWidth;
using isa::NoPred;
using isa::NumPRegs;
using isa::NumVRegs;
using isa::Opcode;
using gma::TimeNs;

namespace {

struct Run;
struct Shred;

/// What the scheduler does after one executed handler.
enum class Act : uint8_t {
  Next,    ///< fall through to pc + 1
  Jump,    ///< the handler set the pc itself
  Halt,    ///< shred retired
  Block,   ///< parked in `wait` (pc already past it)
  Restart, ///< FaultLab: back through the re-dispatch ladder
  Fail,    ///< fatal; Run::Err carries the message
};

struct FastOp;
using FastFn = Act (*)(Run &R, Shred &S, const FastOp &Op);

/// One compiled trace step: the specialized handler plus pointers into
/// the kernel's instruction stream and its pre-decoded operand forms.
/// I/D are null only for the synthetic trailing halt (running past the
/// end retires without counting an instruction, as the cycle backend's
/// past-the-end Retire does).
struct FastOp {
  FastFn Fn = nullptr;
  const Instruction *I = nullptr;
  const DecodedInsn *D = nullptr;
  /// Copy of D->IssueCycles: the dispatch loop charges issue cost from
  /// the trace step it already has in cache instead of chasing D.
  double IssueCycles = 0;
  /// Length of the straight-line run starting here whose every member
  /// provably returns Act::Next (no jumps, exceptions, or scheduler
  /// interaction), and its precomputed issue cost. The dispatch loop
  /// executes such a run back-to-back, charging pc/counter/deadline
  /// bookkeeping once per run instead of once per instruction. 1 means
  /// "no fusion" — the op goes through the general dispatch path.
  uint32_t BlockLen = 1;
  double BlockIssue = 0;
};

/// A compiled kernel trace, cached per (kernel, checked) pair.
struct Trace {
  std::vector<FastOp> Ops; ///< Code.size() + 1 entries (trailing halt)
  std::shared_ptr<const isa::DecodedKernel> Pin; ///< keeps D pointers alive
};

/// Mirrors GmaDevice.cpp's `narrow`: narrow integer results live in
/// registers sign-extended.
int64_t signExtend(int64_t V, ElemType Ty) {
  switch (Ty) {
  case ElemType::I8:
    return static_cast<int8_t>(V);
  case ElemType::I16:
    return static_cast<int16_t>(V);
  default:
    return static_cast<int32_t>(V);
  }
}

/// One fast-lane shred: register file, scheduler state, and its saved
/// descriptor (the FaultLab restart source). Implements ShredRegView so
/// CEH handlers emulate faulting instructions through the same interface
/// as on the cycle backend.
struct Shred final : gma::ShredRegView {
  enum class St : uint8_t { Fresh, Ready, Waiting, Done };

  /// User-provided so a team's vector is not zero-filled on creation:
  /// initShred zeroes the register file, once, before the shred runs.
  Shred() {}

  uint32_t Regs[NumVRegs];
  uint16_t Preds[NumPRegs];
  bool RegReady[NumVRegs];
  uint32_t Pc = 0;
  uint32_t Id = 0;
  uint32_t Idx = 0; ///< position within the dispatch (run-queue handle)
  uint8_t WaitReg = 0;
  St State = St::Fresh;
  gma::ShredDescriptor Desc; ///< owned copy: restart re-reads it
  const gma::SurfaceTable *Surf = nullptr;
  /// xmit values delivered before this shred initialized — the cycle
  /// backend's per-shred dispatch mailbox (replace-on-same-reg).
  std::vector<std::pair<uint8_t, uint32_t>> Mail;

  uint32_t readReg(unsigned Reg) const override { return Regs[Reg]; }
  void writeReg(unsigned Reg, uint32_t Value) override { Regs[Reg] = Value; }
  bool readPredLane(unsigned PredReg, unsigned Lane) const override {
    return (Preds[PredReg] >> Lane) & 1;
  }
  void writePredLane(unsigned PredReg, unsigned Lane, bool Set) override {
    if (Set)
      Preds[PredReg] = static_cast<uint16_t>(Preds[PredReg] | (1u << Lane));
    else
      Preds[PredReg] = static_cast<uint16_t>(Preds[PredReg] & ~(1u << Lane));
  }

  // Lane accessors over the pre-decoded operands; bit-identical to the
  // cycle backend's ReadIntLane/ReadF32Lane/Write*Lane/ScalarVal.
  int64_t readInt(const DecodedOperand &O, unsigned L) const {
    if (O.IsImm)
      return O.Imm;
    return static_cast<int32_t>(Regs[O.Reg0 + L * O.Stride]);
  }
  float readF32(const DecodedOperand &O, unsigned L) const {
    uint32_t Bits =
        O.IsImm ? static_cast<uint32_t>(O.Imm) : Regs[O.Reg0 + L * O.Stride];
    float F;
    std::memcpy(&F, &Bits, 4);
    return F;
  }
  void writeInt(const DecodedOperand &O, unsigned L, int64_t V, ElemType Ty) {
    Regs[O.Reg0 + L * O.Stride] = static_cast<uint32_t>(signExtend(V, Ty));
  }
  void writeF32(const DecodedOperand &O, unsigned L, float F) {
    uint32_t Bits;
    std::memcpy(&Bits, &F, 4);
    Regs[O.Reg0 + L * O.Stride] = Bits;
  }
  int64_t scalar(const DecodedOperand &O) const {
    if (O.IsImm)
      return O.Imm;
    return static_cast<int32_t>(Regs[O.Reg0]);
  }
  bool laneEnabled(const Instruction &I, unsigned L) const {
    if (I.PredReg == NoPred)
      return true;
    bool Bit = (Preds[I.PredReg] >> L) & 1;
    return I.PredNegate ? !Bit : Bit;
  }
};

/// One slot of the translation cache: a virtual page pinned to the host
/// pointer of its backing physical frame, valid only in the run whose
/// generation it carries.
struct HostPage {
  uint64_t Vpn = ~0ull;
  uint8_t *Host = nullptr;
  uint32_t Gen = 0;
  bool Writable = false;
};

/// Direct-mapped VPN -> host-frame-pointer cache in front of the JTlb
/// (on the host lane, the IA32 page walk). Mappings cannot change
/// mid-run (the engine is sequential; the host only remaps between
/// dispatches), so one successful translation pins the host pointer for
/// the rest of the run. This is the fast lane's memory fast path: a hit
/// skips the TLB hash lookup, the LRU splice, and the per-page
/// PhysicalMemory frame lookup that otherwise dominate the profile.
///
/// Every run starts cold, as its JTlb does: newRun() bumps the
/// generation, and a slot hits only when it was filled under the current
/// one. The slots live as long as their engine, so a run does not pay
/// to clear 48 KB.
struct PageCache {
  std::array<HostPage, 2048> Slots{};
  uint32_t Gen = 0;

  void newRun() {
    if (++Gen == 0) { // wrapped: slots from 2^32 runs ago would match
      Slots.fill(HostPage{});
      Gen = 1;
    }
  }
  HostPage &slot(uint64_t Vpn) { return Slots[Vpn & (Slots.size() - 1)]; }
};

/// The IA32 host lane's side of a run (see HostLane): where its pages
/// translate, its divide-by-zero policy, and the proxy counters it feeds.
struct HostSide {
  mem::Ia32AddressSpace &AS;
  gma::DivZeroPolicy DivZero;
  HostLaneStats &Stats;
};

/// Per-dispatch state shared by every handler.
struct Run {
  mem::PhysicalMemory &PM;
  PageCache &Pages; ///< its owner's; newRun() already called
  gma::ProxySignalHandler *Proxy = nullptr;
  mem::Tlb *JTlb = nullptr;              ///< null on the host lane
  const gma::GmaConfig *Cfg = nullptr;   ///< null on the host lane
  fault::FaultInjector *Inj = nullptr;   ///< non-null only when armed
  HostSide *Host = nullptr;              ///< non-null only on the host lane
  const gma::KernelImage *Kern = nullptr;
  uint32_t KernelId = 0;
  uint32_t FirstId = 0;

  std::vector<Shred> Shreds{};
  std::deque<uint32_t> RunQ{};
  gma::GmaRunStats Stats{};
  TimeNs CehNs = 0;     ///< CEH latency folded into the finish estimate
  uint64_t Started = 0; ///< dispatches that paid the firmware cost
  std::vector<bool> EuOffline{}; ///< modeled EU lanes wedged by EuHardFail
  std::string Err{};

  /// Host pointer for \p Bytes at \p Va when the span stays inside one
  /// cached page (with write permission when \p IsWrite); nullptr sends
  /// the caller down the full translateSpan path. Counts the access the
  /// same way translateSpan does — only translation work is skipped.
  uint8_t *hostSpan(mem::VirtAddr Va, uint64_t Bytes, bool IsWrite) {
    uint64_t Off = mem::pageOffset(Va);
    if (Off + Bytes > mem::PageSize)
      return nullptr;
    uint64_t Vpn = mem::pageNumber(Va);
    const HostPage &E = Pages.slot(Vpn);
    if (E.Vpn != Vpn || E.Gen != Pages.Gen || (IsWrite && !E.Writable))
      return nullptr;
    ++Stats.MemoryOps;
    if (IsWrite)
      Stats.BytesStored += Bytes;
    else
      Stats.BytesLoaded += Bytes;
    return E.Host + Off;
  }

  /// The modeled EU lane a shred occupies: shreds map round-robin so a
  /// given injector occurrence wedges a deterministic lane, like the
  /// cycle backend's per-EU hard-fail keying.
  unsigned euFor(const Shred &S) const { return S.Idx % Cfg->NumEus; }
  bool anyOnlineEu() const {
    for (size_t E = 0; E < EuOffline.size(); ++E)
      if (!EuOffline[E])
        return true;
    return false;
  }

  /// Deterministic finish-time estimate: total issue cycles spread over
  /// the contexts the cycle backend would have used, plus firmware
  /// dispatch and proxy/CEH stalls. Not cycle-accurate by design — it
  /// exists so deadlines and serving statistics stay meaningful.
  TimeNs estimateNs() const {
    double Div = std::min<double>(
        static_cast<double>(Cfg->totalContexts()),
        static_cast<double>(std::max<size_t>(1, Shreds.size())));
    return Stats.StartNs +
           (Stats.IssueCycles * Cfg->cycleNs() +
            static_cast<double>(Started) * Cfg->ShredDispatchNs) /
               Div +
           Stats.ProxyStallNs + CehNs;
  }
};

/// Physical segments covering one translated virtual span. A span is at
/// most MaxWidth * 8 bytes (one SIMD access) or a descriptor record, so
/// a fixed segment array suffices — translateSpan fails loudly rather
/// than overflowing it.
struct SegList {
  struct Seg {
    mem::PhysAddr Phys;
    uint64_t Bytes;
  };
  /// Only the first N are set. Left uninitialised on purpose: every
  /// memory op constructs a SegList, and zero-filling it costs more than
  /// a page-cache hit's move.
  std::array<Seg, 8> Segs;
  unsigned N = 0;
};

/// Device page lookup: the JTlb, refilled through the ATR proxy on a
/// miss.
std::optional<mem::GpuPte> devicePte(Run &R, Shred &S, mem::VirtAddr Cur,
                                     bool IsWrite, mem::GpuMemType MemType) {
  uint64_t Vpn = mem::pageNumber(Cur);
  std::optional<mem::GpuPte> Pte = R.JTlb->lookup(Vpn);
  if (Pte)
    return Pte;
  ++R.Stats.TlbMisses;
  if (!R.Proxy) {
    R.Err = "TLB miss with no proxy handler installed";
    return std::nullopt;
  }
  ++R.Stats.ProxyCalls;
  auto Latency = R.Proxy->onTranslationMiss(Cur, IsWrite, MemType, *R.JTlb);
  if (!Latency) {
    R.Err = formatString("shred %u: unserviceable fault at 0x%llx: %s", S.Id,
                         static_cast<unsigned long long>(Cur),
                         Latency.message().c_str());
    return std::nullopt;
  }
  R.Stats.ProxyStallNs += *Latency;
  Pte = R.JTlb->lookup(Vpn);
  if (!Pte)
    R.Err = "proxy handler did not install a TLB entry";
  return Pte;
}

/// Host-lane page lookup: the IA32 sequencer walks its own page tables
/// and services a demand-page fault in place (translate, handleFault,
/// translate). Only a write walk grants write permission, so the first
/// store to a page walks again and sets its dirty bit.
std::optional<mem::GpuPte> hostPte(Run &R, Shred &S, mem::VirtAddr Cur,
                                   bool IsWrite, mem::GpuMemType MemType) {
  mem::Ia32AddressSpace &AS = R.Host->AS;
  mem::PageFault F;
  auto T = AS.translate(Cur, IsWrite, &F);
  if (!T) {
    if (!AS.handleFault(F)) {
      R.Err = formatString("shred %u: unserviceable %s fault at 0x%llx",
                           S.Id, mem::faultKindName(F.Kind),
                           static_cast<unsigned long long>(Cur));
      return std::nullopt;
    }
    T = AS.translate(Cur, IsWrite, &F);
    if (!T) {
      ++R.Host->Stats.DoubleFaults;
      R.Err = formatString(
          "shred %u: %s fault at 0x%llx persists after demand-page service",
          S.Id, mem::faultKindName(F.Kind),
          static_cast<unsigned long long>(Cur));
      return std::nullopt;
    }
  }
  return mem::GpuPte::make(mem::pageNumber(T->Phys), IsWrite, MemType);
}

/// Functional mirror of GmaDevice::accessMemoryAt: per-page lookup,
/// write-permission check, and byte counters — minus the cache/bus
/// timing model. Error strings match the interpreter verbatim so
/// diagnostics are backend-independent.
bool translateSpan(Run &R, Shred &S, mem::VirtAddr Va, uint64_t Bytes,
                   bool IsWrite, mem::GpuMemType MemType, SegList &Out) {
  ++R.Stats.MemoryOps;
  uint64_t Remaining = Bytes;
  mem::VirtAddr Cur = Va;
  while (Remaining > 0) {
    uint64_t Chunk = std::min(Remaining, mem::PageSize - mem::pageOffset(Cur));
    uint64_t Vpn = mem::pageNumber(Cur);
    std::optional<mem::GpuPte> Pte =
        R.Host ? hostPte(R, S, Cur, IsWrite, MemType)
               : devicePte(R, S, Cur, IsWrite, MemType);
    if (!Pte)
      return false;
    if (IsWrite && !Pte->writable()) {
      R.Err = formatString("shred %u: write to read-only page 0x%llx", S.Id,
                           static_cast<unsigned long long>(Cur));
      return false;
    }
    if (Out.N >= Out.Segs.size()) {
      R.Err = formatString("shred %u: memory span at 0x%llx too fragmented",
                           S.Id, static_cast<unsigned long long>(Va));
      return false;
    }
    Out.Segs[Out.N++] = {(Pte->frame() << mem::PageShift) |
                             mem::pageOffset(Cur),
                         Chunk};
    R.Pages.slot(Vpn) = {Vpn, R.PM.frameData(Pte->frame()), R.Pages.Gen,
                         Pte->writable()};
    Cur += Chunk;
    Remaining -= Chunk;
  }
  if (IsWrite)
    R.Stats.BytesStored += Bytes;
  else
    R.Stats.BytesLoaded += Bytes;
  return true;
}

/// The armed half of hardFailFired.
bool injectHardFail(Run &R, Shred &S) {
  if (!R.Inj->shouldInject(fault::FaultKind::EuHardFail, R.euFor(S)))
    return false;
  ++R.Stats.FaultsInjected;
  unsigned Eu = R.euFor(S);
  if (!R.EuOffline[Eu]) {
    R.EuOffline[Eu] = true;
    ++R.Stats.EusOfflined;
    R.Stats.OfflinedEus.push_back(Eu);
  }
  return true;
}

/// EuHardFail probe at blocking-op sites, mirroring the resolve-phase
/// probe of GmaDevice::resolveOne. Fires -> the shred's modeled EU lane
/// goes offline and the shred restarts through the ladder. Unarmed, it
/// is one inlined test on every memory op.
inline bool hardFailFired(Run &R, Shred &S) {
  return R.Inj && injectHardFail(R, S);
}

/// The host lane's exception sink: the IA32 sequencer is the CEH handler
/// itself, so emulation runs in place and everything else fails the run.
Act hostException(Run &R, Shred &S, const FastOp &Op, gma::ExceptionKind K) {
  Error E;
  switch (K) {
  case gma::ExceptionKind::UnsupportedType:
    E = gma::emulateF64(*Op.I, S);
    break;
  case gma::ExceptionKind::DivideByZero:
    E = gma::emulateDivZero(*Op.I, S, R.Host->DivZero);
    if (!E)
      ++R.Host->Stats.DivZeroHandled;
    break;
  case gma::ExceptionKind::SurfaceBounds:
    E = Error::make("accessed outside its surface");
    break;
  case gma::ExceptionKind::InvalidSurface:
    E = Error::make("references an unbound surface slot");
    break;
  }
  if (!E)
    return Act::Next;
  R.Err = formatString("shred %u pc %u: %s", S.Id, S.Pc, E.message().c_str());
  return Act::Fail;
}

/// CEH, mirroring the Exception arm of GmaDevice::resolveOne: probe for
/// a wedged EU first, then raise to the proxy, which emulates the
/// instruction through the shred's register view and returns a latency
/// (the instruction is then skipped — Act::Next past the faulting pc).
Act raiseException(Run &R, Shred &S, const FastOp &Op, gma::ExceptionKind K) {
  if (R.Host)
    return hostException(R, S, Op, K);
  if (hardFailFired(R, S))
    return Act::Restart;
  if (!R.Proxy) {
    R.Err = formatString("shred %u: %s exception with no proxy handler", S.Id,
                         gma::exceptionKindName(K));
    return Act::Fail;
  }
  gma::ExceptionInfo Info;
  Info.Kind = K;
  Info.ShredId = S.Id;
  Info.KernelId = R.KernelId;
  Info.Pc = S.Pc;
  Info.Instr = *Op.I;
  ++R.Stats.ProxyCalls;
  auto Latency = R.Proxy->onException(Info, S);
  if (!Latency) {
    if (R.Inj)
      return Act::Restart; // injected CEH exhaustion degrades to restart
    R.Err = formatString("shred %u pc %u: unhandled %s exception: %s", S.Id,
                         S.Pc, gma::exceptionKindName(K),
                         Latency.message().c_str());
    return Act::Fail;
  }
  ++R.Stats.ExceptionsHandled;
  R.CehNs += *Latency;
  return Act::Next;
}

//===----------------------------------------------------------------------===//
// Instruction handlers. Each mirrors the corresponding case of
// GmaDevice::issueInstruction / resolveLoadStore / resolveSample.
//===----------------------------------------------------------------------===//

/// F64 on any ALU/Cmp/Sel/Cvt lane faults (CEH path, paper Section 3.3).
Act excUnsupported(Run &R, Shred &S, const FastOp &Op) {
  return raiseException(R, S, Op, gma::ExceptionKind::UnsupportedType);
}

/// Bit-ops on float operands: same run-fatal diagnostic as the
/// interpreter's float ALU default case.
Act floatInvalid(Run &R, Shred &S, const FastOp &Op) {
  R.Err = formatString("shred %u: %s is not defined for float operands", S.Id,
                       opcodeName(Op.I->Op));
  return Act::Fail;
}

// Handlers are additionally specialized on \c Pred — whether the
// instruction carries a predicate mask — at trace-compile time, so the
// common unpredicated case never pays the per-lane laneEnabled test.
template <Opcode OP, bool Pred>
Act aluF32(Run &R, Shred &S, const FastOp &Op) {
  const Instruction &I = *Op.I;
  const DecodedInsn &D = *Op.D;
  // Local operand copies: 8-byte structs the optimizer can hold in
  // registers — reads through them provably don't alias the per-lane
  // register-file stores.
  const unsigned Width = I.Width;
  const DecodedOperand Src0 = D.Src0, Src1 = D.Src1, Dst = D.Dst;
  for (unsigned L = 0; L < Width; ++L) {
    if constexpr (Pred)
      if (!S.laneEnabled(I, L))
        continue;
    float A = S.readF32(Src0, L);
    float B = S.readF32(Src1, L);
    float V = 0;
    if constexpr (OP == Opcode::Mov)
      V = A;
    else if constexpr (OP == Opcode::Add)
      V = A + B;
    else if constexpr (OP == Opcode::Sub)
      V = A - B;
    else if constexpr (OP == Opcode::Mul)
      V = A * B;
    else if constexpr (OP == Opcode::Mac)
      V = S.readF32(Dst, L) + A * B;
    else if constexpr (OP == Opcode::Div)
      V = A / B; // IEEE inf/nan, no fault
    else if constexpr (OP == Opcode::Min)
      V = std::min(A, B);
    else if constexpr (OP == Opcode::Max)
      V = std::max(A, B);
    else if constexpr (OP == Opcode::Avg)
      V = (A + B) * 0.5f;
    else if constexpr (OP == Opcode::Abs)
      V = std::fabs(A);
    S.writeF32(Dst, L, V);
  }
  (void)R;
  return Act::Next;
}

template <Opcode OP, bool Pred>
Act aluInt(Run &R, Shred &S, const FastOp &Op) {
  const Instruction &I = *Op.I;
  const DecodedInsn &D = *Op.D;
  const unsigned Width = I.Width;
  const ElemType Ty = I.Ty;
  const DecodedOperand Src0 = D.Src0, Src1 = D.Src1, Dst = D.Dst;
  for (unsigned L = 0; L < Width; ++L) {
    if constexpr (Pred)
      if (!S.laneEnabled(I, L))
        continue;
    int64_t A = S.readInt(Src0, L);
    int64_t B = S.readInt(Src1, L);
    int64_t V = 0;
    if constexpr (OP == Opcode::Mov)
      V = A;
    else if constexpr (OP == Opcode::Add)
      V = A + B;
    else if constexpr (OP == Opcode::Sub)
      V = A - B;
    else if constexpr (OP == Opcode::Mul)
      V = A * B;
    else if constexpr (OP == Opcode::Mac)
      V = S.readInt(Dst, L) + A * B;
    else if constexpr (OP == Opcode::Div) {
      // Kept in both check modes: one compare guarding host UB, and its
      // CEH path is semantics (the earlier lanes' writes stay visible to
      // the handler, exactly as mid-loop RaiseException leaves them).
      if (B == 0)
        return raiseException(R, S, Op, gma::ExceptionKind::DivideByZero);
      V = A / B;
    } else if constexpr (OP == Opcode::Min)
      V = std::min(A, B);
    else if constexpr (OP == Opcode::Max)
      V = std::max(A, B);
    else if constexpr (OP == Opcode::Avg)
      V = (A + B + 1) >> 1;
    else if constexpr (OP == Opcode::Abs)
      V = A < 0 ? -A : A;
    else if constexpr (OP == Opcode::Shl)
      V = A << (B & 31);
    else if constexpr (OP == Opcode::Shr)
      V = static_cast<int64_t>(static_cast<uint32_t>(A) >> (B & 31));
    else if constexpr (OP == Opcode::Asr)
      V = static_cast<int32_t>(A) >> (B & 31);
    else if constexpr (OP == Opcode::And)
      V = A & B;
    else if constexpr (OP == Opcode::Or)
      V = A | B;
    else if constexpr (OP == Opcode::Xor)
      V = A ^ B;
    else if constexpr (OP == Opcode::Not)
      V = ~A;
    S.writeInt(Dst, L, V, Ty);
  }
  (void)R;
  return Act::Next;
}

//===----------------------------------------------------------------------===//
// Vectorizable ALU forms. The trace compiler knows every operand's
// recipe, so when the destination is a stride-1 register run and each
// source is an immediate, a broadcast register outside that run, or a
// stride-1 run equal to or disjoint from it, the lanes are provably
// independent: the handler reduces to a tight loop over the register
// file that the host compiler auto-vectorizes. The arithmetic matches
// the generic handlers bit for bit — integer ops wrap mod 2^32 (the
// int64 intermediate truncated by signExtend), float ops are the same
// elementwise IEEE expressions.
//===----------------------------------------------------------------------===//

enum VForm { VImm = 0, VBcast = 1, VLane = 2 };

template <Opcode OP, VForm F0, VForm F1>
Act aluIntVec(Run &, Shred &S, const FastOp &Op) {
  const DecodedInsn &D = *Op.D;
  const unsigned Width = Op.I->Width;
  uint32_t *const Dst = &S.Regs[D.Dst.Reg0];
  const uint32_t *const A = &S.Regs[D.Src0.Reg0];
  const uint32_t *const B = &S.Regs[D.Src1.Reg0];
  const int32_t A0 =
      F0 == VBcast ? static_cast<int32_t>(*A) : D.Src0.Imm;
  const int32_t B0 =
      F1 == VBcast ? static_cast<int32_t>(*B) : D.Src1.Imm;
  for (unsigned L = 0; L < Width; ++L) {
    int32_t IA, IB;
    if constexpr (F0 == VLane)
      IA = static_cast<int32_t>(A[L]);
    else
      IA = A0;
    if constexpr (F1 == VLane)
      IB = static_cast<int32_t>(B[L]);
    else
      IB = B0;
    const uint32_t UA = static_cast<uint32_t>(IA);
    const uint32_t UB = static_cast<uint32_t>(IB);
    uint32_t V = 0;
    if constexpr (OP == Opcode::Mov)
      V = UA;
    else if constexpr (OP == Opcode::Add)
      V = UA + UB;
    else if constexpr (OP == Opcode::Sub)
      V = UA - UB;
    else if constexpr (OP == Opcode::Mul)
      V = UA * UB;
    else if constexpr (OP == Opcode::Mac)
      V = Dst[L] + UA * UB;
    else if constexpr (OP == Opcode::Min)
      V = static_cast<uint32_t>(std::min(IA, IB));
    else if constexpr (OP == Opcode::Max)
      V = static_cast<uint32_t>(std::max(IA, IB));
    else if constexpr (OP == Opcode::Avg)
      V = static_cast<uint32_t>(
          (static_cast<int64_t>(IA) + IB + 1) >> 1);
    else if constexpr (OP == Opcode::Abs)
      V = IA < 0 ? 0u - UA : UA;
    else if constexpr (OP == Opcode::Shl)
      V = UA << (UB & 31);
    else if constexpr (OP == Opcode::Shr)
      V = UA >> (UB & 31);
    else if constexpr (OP == Opcode::Asr)
      V = static_cast<uint32_t>(IA >> (IB & 31));
    else if constexpr (OP == Opcode::And)
      V = UA & UB;
    else if constexpr (OP == Opcode::Or)
      V = UA | UB;
    else if constexpr (OP == Opcode::Xor)
      V = UA ^ UB;
    else if constexpr (OP == Opcode::Not)
      V = ~UA;
    Dst[L] = V;
  }
  return Act::Next;
}

template <Opcode OP, VForm F0, VForm F1>
Act aluF32Vec(Run &, Shred &S, const FastOp &Op) {
  const DecodedInsn &D = *Op.D;
  const unsigned Width = Op.I->Width;
  uint32_t *const Dst = &S.Regs[D.Dst.Reg0];
  const uint32_t *const A = &S.Regs[D.Src0.Reg0];
  const uint32_t *const B = &S.Regs[D.Src1.Reg0];
  auto AsF = [](uint32_t Bits) {
    float F;
    std::memcpy(&F, &Bits, 4);
    return F;
  };
  auto AsU = [](float F) {
    uint32_t Bits;
    std::memcpy(&Bits, &F, 4);
    return Bits;
  };
  const float A0 =
      AsF(F0 == VBcast ? *A : static_cast<uint32_t>(D.Src0.Imm));
  const float B0 =
      AsF(F1 == VBcast ? *B : static_cast<uint32_t>(D.Src1.Imm));
  for (unsigned L = 0; L < Width; ++L) {
    float FA, FB;
    if constexpr (F0 == VLane)
      FA = AsF(A[L]);
    else
      FA = A0;
    if constexpr (F1 == VLane)
      FB = AsF(B[L]);
    else
      FB = B0;
    float V = 0;
    if constexpr (OP == Opcode::Mov)
      V = FA;
    else if constexpr (OP == Opcode::Add)
      V = FA + FB;
    else if constexpr (OP == Opcode::Sub)
      V = FA - FB;
    else if constexpr (OP == Opcode::Mul)
      V = FA * FB;
    else if constexpr (OP == Opcode::Mac)
      V = AsF(Dst[L]) + FA * FB;
    else if constexpr (OP == Opcode::Div)
      V = FA / FB; // IEEE inf/nan, no fault
    else if constexpr (OP == Opcode::Min)
      V = std::min(FA, FB);
    else if constexpr (OP == Opcode::Max)
      V = std::max(FA, FB);
    else if constexpr (OP == Opcode::Avg)
      V = (FA + FB) * 0.5f;
    else if constexpr (OP == Opcode::Abs)
      V = std::fabs(FA);
    Dst[L] = AsU(V);
  }
  return Act::Next;
}

template <bool IsF32, CmpOp C, bool Pred>
Act cmp(Run &, Shred &S, const FastOp &Op) {
  const Instruction &I = *Op.I;
  const DecodedInsn &D = *Op.D;
  const unsigned Width = I.Width;
  const unsigned PredDst = I.Dst.Reg0;
  const DecodedOperand Src0 = D.Src0, Src1 = D.Src1;
  for (unsigned L = 0; L < Width; ++L) {
    if constexpr (Pred)
      if (!S.laneEnabled(I, L))
        continue;
    bool Res = false;
    if constexpr (IsF32) {
      float A = S.readF32(Src0, L), B = S.readF32(Src1, L);
      if constexpr (C == CmpOp::Eq)
        Res = A == B;
      else if constexpr (C == CmpOp::Ne)
        Res = A != B;
      else if constexpr (C == CmpOp::Lt)
        Res = A < B;
      else if constexpr (C == CmpOp::Le)
        Res = A <= B;
      else if constexpr (C == CmpOp::Gt)
        Res = A > B;
      else
        Res = A >= B;
    } else {
      int64_t A = S.readInt(Src0, L), B = S.readInt(Src1, L);
      if constexpr (C == CmpOp::Eq)
        Res = A == B;
      else if constexpr (C == CmpOp::Ne)
        Res = A != B;
      else if constexpr (C == CmpOp::Lt)
        Res = A < B;
      else if constexpr (C == CmpOp::Le)
        Res = A <= B;
      else if constexpr (C == CmpOp::Gt)
        Res = A > B;
      else
        Res = A >= B;
    }
    S.writePredLane(PredDst, L, Res);
  }
  return Act::Next;
}

/// Sel is NOT gated by laneEnabled: the predicate selects per lane
/// (negation applies), exactly as the interpreter's Sel case.
template <bool IsF32> Act sel(Run &, Shred &S, const FastOp &Op) {
  const Instruction &I = *Op.I;
  const DecodedInsn &D = *Op.D;
  for (unsigned L = 0; L < I.Width; ++L) {
    bool Bit = (S.Preds[I.PredReg] >> L) & 1;
    if (I.PredNegate)
      Bit = !Bit;
    const DecodedOperand &Src = Bit ? D.Src0 : D.Src1;
    if constexpr (IsF32)
      S.writeF32(D.Dst, L, S.readF32(Src, L));
    else
      S.writeInt(D.Dst, L, S.readInt(Src, L), I.Ty);
  }
  return Act::Next;
}

/// Cvt, specialized at trace time on source kind, destination type, and
/// predication — the arithmetic (double intermediate, trunc, saturating
/// clamp) is exactly the generic interpreter's, only the per-lane type
/// dispatch is compiled out.
template <bool SrcF32, ElemType DstTy, bool Pred>
Act cvt(Run &, Shred &S, const FastOp &Op) {
  const Instruction &I = *Op.I;
  const DecodedInsn &D = *Op.D;
  const unsigned Width = I.Width;
  const ElemType SrcTy = I.SrcTy;
  const DecodedOperand Src0 = D.Src0, Dst = D.Dst;
  for (unsigned L = 0; L < Width; ++L) {
    if constexpr (Pred)
      if (!S.laneEnabled(I, L))
        continue;
    // Read in source type (Src0 was decoded with SrcTy's stride).
    double V;
    if constexpr (SrcF32)
      V = S.readF32(Src0, L);
    else
      V = static_cast<double>(signExtend(S.readInt(Src0, L), SrcTy));
    // Write in destination type (saturating for narrow integers).
    if constexpr (DstTy == ElemType::F32) {
      S.writeF32(Dst, L, static_cast<float>(V));
    } else {
      constexpr double Lo = DstTy == ElemType::I8    ? -128.0
                            : DstTy == ElemType::I16 ? -32768.0
                                                     : -2147483648.0;
      constexpr double Hi = DstTy == ElemType::I8    ? 127.0
                            : DstTy == ElemType::I16 ? 32767.0
                                                     : 2147483647.0;
      double Clamped = std::min(std::max(std::trunc(V), Lo), Hi);
      S.writeInt(Dst, L, static_cast<int64_t>(Clamped), DstTy);
    }
  }
  return Act::Next;
}

Act jmp(Run &, Shred &S, const FastOp &Op) {
  S.Pc = static_cast<uint32_t>(Op.I->Src0.Imm);
  return Act::Jump;
}

Act br(Run &, Shred &S, const FastOp &Op) {
  const Instruction &I = *Op.I;
  bool Bit = (S.Preds[I.PredReg] & 1) != 0; // lane 0
  if (I.PredNegate ? !Bit : Bit) {
    S.Pc = static_cast<uint32_t>(I.Src0.Imm);
    return Act::Jump;
  }
  return Act::Next;
}

Act sid(Run &, Shred &S, const FastOp &Op) {
  S.Regs[Op.I->Dst.Reg0] = S.Id;
  return Act::Next;
}

Act nop(Run &, Shred &, const FastOp &) { return Act::Next; }

/// xmit/wait/spawn on the host lane: IA32 has no peer sequencer to
/// signal, so they fail the run — only when executed.
Act deviceOnly(Run &R, Shred &S, const FastOp &Op) {
  R.Err = formatString("shred %u pc %u: `%s` is a device-only "
                       "synchronization op; cannot re-dispatch on IA32",
                       S.Id, S.Pc, opcodeName(Op.I->Op));
  return Act::Fail;
}

Act halt(Run &, Shred &, const FastOp &) { return Act::Halt; }

/// xmit: deliver a register (+ready flag) into another shred of this
/// dispatch, waking it if it is parked on that register. Mirrors the
/// Xmit arm of resolveOne including the MISP drop/dup injection probes.
/// Targets outside the dispatch are dropped: the fast lane has no
/// cross-dispatch mailbox (the cycle backend would stash the value in
/// the device mailbox for a later dispatch); the modelled workloads
/// signal only within their own team.
Act xmit(Run &R, Shred &S, const FastOp &Op) {
  const Instruction &I = *Op.I;
  const DecodedInsn &D = *Op.D;
  uint32_t Target = static_cast<uint32_t>(S.scalar(D.Src0));
  uint32_t Value = static_cast<uint32_t>(S.scalar(D.Src1));
  uint8_t Reg = I.Dst.Reg0;
  unsigned Deliveries = 1;
  if (R.Inj) {
    uint64_t SigKey = (static_cast<uint64_t>(Target) << 8) | Reg;
    if (R.Inj->shouldInject(fault::FaultKind::MailboxDrop, SigKey)) {
      ++R.Stats.FaultsInjected;
      ++R.Stats.MailboxDropped;
      return Act::Next; // signal lost; the waiter's timeout names it
    }
    if (R.Inj->shouldInject(fault::FaultKind::MailboxDup, SigKey)) {
      ++R.Stats.FaultsInjected;
      ++R.Stats.MailboxDuplicated;
      Deliveries = 2; // register writes are idempotent; must be benign
    }
  }
  if (Target < R.FirstId ||
      Target >= R.FirstId + static_cast<uint32_t>(R.Shreds.size()))
    return Act::Next;
  Shred &T = R.Shreds[Target - R.FirstId];
  for (unsigned Dv = 0; Dv < Deliveries; ++Dv) {
    if (T.State == Shred::St::Fresh) {
      // Not yet initialized: per-shred mailbox, replace-on-same-reg.
      bool Replaced = false;
      for (auto &P : T.Mail)
        if (P.first == Reg) {
          P.second = Value;
          Replaced = true;
          break;
        }
      if (!Replaced)
        T.Mail.emplace_back(Reg, Value);
      continue;
    }
    T.Regs[Reg] = Value;
    T.RegReady[Reg] = true;
    if (T.State == Shred::St::Waiting && T.WaitReg == Reg) {
      T.State = Shred::St::Ready;
      T.RegReady[Reg] = false; // the pending wait consumes it
      R.RunQ.push_back(T.Idx);
    }
  }
  return Act::Next;
}

Act wait(Run &, Shred &S, const FastOp &Op) {
  uint8_t Reg = Op.I->Dst.Reg0;
  if (S.RegReady[Reg]) {
    S.RegReady[Reg] = false;
    return Act::Next;
  }
  S.WaitReg = Reg;
  ++S.Pc; // resume past the wait once signalled
  return Act::Block;
}

/// Copies \p Words 32-bit words. Every case is a memcpy of constant
/// length, which compiles to a few plain moves; GCC expands the same copy
/// with a variable length as `rep movsq`, whose startup cost is several
/// times the move itself (DESIGN.md §14).
template <size_t Bytes> void copyBytes(void *Dst, const void *Src) {
  std::memcpy(Dst, Src, Bytes);
}

void copyWords(void *Dst, const void *Src, unsigned Words) {
  switch (Words) {
  case 1: return copyBytes<4>(Dst, Src);
  case 2: return copyBytes<8>(Dst, Src);
  case 3: return copyBytes<12>(Dst, Src);
  case 4: return copyBytes<16>(Dst, Src);
  case 5: return copyBytes<20>(Dst, Src);
  case 6: return copyBytes<24>(Dst, Src);
  case 7: return copyBytes<28>(Dst, Src);
  case 8: return copyBytes<32>(Dst, Src);
  case 9: return copyBytes<36>(Dst, Src);
  case 10: return copyBytes<40>(Dst, Src);
  case 11: return copyBytes<44>(Dst, Src);
  case 12: return copyBytes<48>(Dst, Src);
  case 13: return copyBytes<52>(Dst, Src);
  case 14: return copyBytes<56>(Dst, Src);
  case 15: return copyBytes<60>(Dst, Src);
  case 16: return copyBytes<64>(Dst, Src);
  }
  exochiUnreachable("SIMD width out of range");
}

/// Ld/St/LdBlk/StBlk. Checked instantiations carry the interpreter's
/// issue-order surface checks; unchecked ones are the XVerify payoff —
/// the dispatch was proven in-bounds, so the checks are compiled out.
template <bool IsStore, bool Is2D, bool Checked, bool Pred>
Act memOp(Run &R, Shred &S, const FastOp &Op) {
  const Instruction &I = *Op.I;
  const DecodedInsn &D = *Op.D;
  if constexpr (Checked) {
    if (!S.Surf || I.Src0.Imm < 0 ||
        static_cast<size_t>(I.Src0.Imm) >= S.Surf->size())
      return raiseException(R, S, Op, gma::ExceptionKind::InvalidSurface);
  }
  const gma::SurfaceBinding &Sf = (*S.Surf)[static_cast<size_t>(I.Src0.Imm)];
  unsigned Esz = elemTypeSize(I.Ty);
  int64_t FirstElem;
  if constexpr (Is2D) {
    int64_t X = S.scalar(D.Src1), Y = S.scalar(D.Src2);
    if constexpr (Checked) {
      if (X < 0 || Y < 0 || X + I.Width > Sf.Width ||
          Y >= static_cast<int64_t>(Sf.Height))
        return raiseException(R, S, Op, gma::ExceptionKind::SurfaceBounds);
    }
    FirstElem = Y * static_cast<int64_t>(Sf.Width) + X;
  } else {
    FirstElem = S.scalar(D.Src1) + S.scalar(D.Src2);
    if constexpr (Checked) {
      if (FirstElem < 0 ||
          FirstElem + I.Width > static_cast<int64_t>(Sf.totalElements()))
        return raiseException(R, S, Op, gma::ExceptionKind::SurfaceBounds);
    }
  }

  // Blocking shared-resource interaction: the wedged-EU probe site.
  if (hardFailFired(R, S))
    return Act::Restart;

  mem::VirtAddr Va = Sf.Base + static_cast<uint64_t>(FirstElem) * Esz;
  uint64_t Span = static_cast<uint64_t>(I.Width) * Esz;

  // Fast path: the span sits in one already-translated page, so lanes
  // move directly between registers and host memory, and disabled lanes
  // are simply not written. The common shape — unpredicated, 4-byte
  // elements, stride-1 register range — is one block copy.
  uint8_t *Mem = R.hostSpan(Va, Span, IsStore);
  if constexpr (!Pred) {
    if (Mem && Esz == 4 && D.Dst.Stride == 1) {
      if constexpr (IsStore)
        copyWords(Mem, &S.Regs[D.Dst.Reg0], I.Width);
      else
        copyWords(&S.Regs[D.Dst.Reg0], Mem, I.Width);
      return Act::Next;
    }
  }

  // No page-cache hit: translate page by page and run the lane loop
  // below over a buffer (read-modify-write for a predicated store).
  SegList Segs;
  uint8_t Buf[MaxWidth * 8]; // widest access: 16 lanes of F64
  if (!Mem) {
    if (!translateSpan(R, S, Va, Span, IsStore, Sf.MemType, Segs)) {
      // Under injection a failed access is survivable (no functional
      // write happened yet); otherwise fatal — as the Memory arm of
      // resolveOne.
      return R.Inj ? Act::Restart : Act::Fail;
    }
    Mem = Buf;
    bool Fill = !IsStore;
    if constexpr (IsStore && Pred)
      for (unsigned L = 0; L < I.Width; ++L)
        Fill = Fill || !S.laneEnabled(I, L);
    uint64_t Ofs = 0;
    for (unsigned K = 0; Fill && K < Segs.N; ++K) {
      R.PM.read(Segs.Segs[K].Phys, Buf + Ofs, Segs.Segs[K].Bytes);
      Ofs += Segs.Segs[K].Bytes;
    }
  }

  const DecodedOperand Dst = D.Dst;
  for (unsigned L = 0; L < I.Width; ++L) {
    if constexpr (Pred)
      if (!S.laneEnabled(I, L))
        continue;
    uint8_t *P = Mem + L * Esz;
    uint32_t *Reg = &S.Regs[Dst.Reg0 + L * Dst.Stride];
    if constexpr (IsStore) {
      // Narrow types store the low bytes (two's complement truncation);
      // an F64 lane is its register pair, low word first.
      switch (I.Ty) {
      case ElemType::I8:
        copyBytes<1>(P, Reg);
        break;
      case ElemType::I16:
        copyBytes<2>(P, Reg);
        break;
      case ElemType::F64:
        copyBytes<8>(P, Reg);
        break;
      default:
        copyBytes<4>(P, Reg);
        break;
      }
    } else {
      switch (I.Ty) {
      case ElemType::I8: {
        int8_t B;
        copyBytes<1>(&B, P);
        *Reg = static_cast<uint32_t>(static_cast<int32_t>(B));
        break;
      }
      case ElemType::I16: {
        int16_t W;
        copyBytes<2>(&W, P);
        *Reg = static_cast<uint32_t>(static_cast<int32_t>(W));
        break;
      }
      case ElemType::F64:
        copyBytes<8>(Reg, P);
        break;
      default:
        copyBytes<4>(Reg, P);
        break;
      }
    }
  }

  if (IsStore && Mem == Buf) {
    uint64_t Ofs = 0;
    for (unsigned K = 0; K < Segs.N; ++K) {
      R.PM.write(Segs.Segs[K].Phys, Buf + Ofs, Segs.Segs[K].Bytes);
      Ofs += Segs.Segs[K].Bytes;
    }
  }
  return Act::Next;
}

/// Bilinear sampler, mirroring resolveSample: clamp-to-edge addressing,
/// two row fetches (each its own translated access), per-channel filter.
template <bool Checked> Act sampleOp(Run &R, Shred &S, const FastOp &Op) {
  const Instruction &I = *Op.I;
  const DecodedInsn &D = *Op.D;
  if constexpr (Checked) {
    if (!S.Surf || I.Src0.Imm < 0 ||
        static_cast<size_t>(I.Src0.Imm) >= S.Surf->size())
      return raiseException(R, S, Op, gma::ExceptionKind::InvalidSurface);
  }
  const gma::SurfaceBinding &Sf = (*S.Surf)[static_cast<size_t>(I.Src0.Imm)];
  if constexpr (Checked) {
    if (Sf.Width == 0 || Sf.Height == 0)
      return raiseException(R, S, Op, gma::ExceptionKind::SurfaceBounds);
  }
  if (hardFailFired(R, S))
    return Act::Restart;
  ++R.Stats.SamplerOps;

  float U = S.readF32(D.Src1, 0), V = S.readF32(D.Src2, 0);
  auto Clamp = [](int X, int Hi) { return std::min(std::max(X, 0), Hi); };
  int W = static_cast<int>(Sf.Width), H = static_cast<int>(Sf.Height);
  float Uc = std::min(std::max(U, 0.0f), static_cast<float>(W - 1));
  float Vc = std::min(std::max(V, 0.0f), static_cast<float>(H - 1));
  int X0 = static_cast<int>(Uc), Y0 = static_cast<int>(Vc);
  int X1 = Clamp(X0 + 1, W - 1), Y1 = Clamp(Y0 + 1, H - 1);
  float Fx = Uc - static_cast<float>(X0), Fy = Vc - static_cast<float>(Y0);

  uint32_t Texels[4] = {};
  for (int Row = 0; Row < 2; ++Row) {
    int Y = Row == 0 ? Y0 : Y1;
    mem::VirtAddr Va =
        Sf.Base + (static_cast<uint64_t>(Y) * Sf.Width + X0) * 4;
    uint64_t Span = X1 > X0 ? 8 : 4;
    if (const uint8_t *Host = R.hostSpan(Va, Span, /*IsWrite=*/false)) {
      std::memcpy(&Texels[Row * 2 + 0], Host, 4);
      std::memcpy(&Texels[Row * 2 + 1], Span == 8 ? Host + 4 : Host, 4);
      continue;
    }
    SegList Segs;
    if (!translateSpan(R, S, Va, Span, /*IsWrite=*/false, Sf.MemType, Segs))
      return R.Inj ? Act::Restart : Act::Fail;
    uint8_t Tmp[8] = {};
    uint64_t Ofs = 0;
    for (unsigned K = 0; K < Segs.N; ++K) {
      R.PM.read(Segs.Segs[K].Phys, Tmp + Ofs, Segs.Segs[K].Bytes);
      Ofs += Segs.Segs[K].Bytes;
    }
    std::memcpy(&Texels[Row * 2 + 0], Tmp, 4);
    std::memcpy(&Texels[Row * 2 + 1], Span == 8 ? Tmp + 4 : Tmp, 4);
  }

  for (unsigned Ch = 0; Ch < 4; ++Ch) {
    auto Channel = [&](unsigned T) {
      return static_cast<float>((Texels[T] >> (8 * Ch)) & 0xff);
    };
    float Top = Channel(0) * (1 - Fx) + Channel(1) * Fx;
    float Bot = Channel(2) * (1 - Fx) + Channel(3) * Fx;
    float Out = Top * (1 - Fy) + Bot * Fy;
    uint32_t Bits;
    std::memcpy(&Bits, &Out, 4);
    S.Regs[I.Dst.Reg0 + Ch] = Bits;
  }
  return Act::Next;
}

//===----------------------------------------------------------------------===//
// Trace compilation: one handler per instruction, selected at load.
//===----------------------------------------------------------------------===//

template <bool Pred> FastFn aluFn(const Instruction &I) {
  bool F32 = I.Ty == ElemType::F32;
  switch (I.Op) {
  case Opcode::Mov:
    return F32 ? &aluF32<Opcode::Mov, Pred> : &aluInt<Opcode::Mov, Pred>;
  case Opcode::Add:
    return F32 ? &aluF32<Opcode::Add, Pred> : &aluInt<Opcode::Add, Pred>;
  case Opcode::Sub:
    return F32 ? &aluF32<Opcode::Sub, Pred> : &aluInt<Opcode::Sub, Pred>;
  case Opcode::Mul:
    return F32 ? &aluF32<Opcode::Mul, Pred> : &aluInt<Opcode::Mul, Pred>;
  case Opcode::Mac:
    return F32 ? &aluF32<Opcode::Mac, Pred> : &aluInt<Opcode::Mac, Pred>;
  case Opcode::Div:
    return F32 ? &aluF32<Opcode::Div, Pred> : &aluInt<Opcode::Div, Pred>;
  case Opcode::Min:
    return F32 ? &aluF32<Opcode::Min, Pred> : &aluInt<Opcode::Min, Pred>;
  case Opcode::Max:
    return F32 ? &aluF32<Opcode::Max, Pred> : &aluInt<Opcode::Max, Pred>;
  case Opcode::Avg:
    return F32 ? &aluF32<Opcode::Avg, Pred> : &aluInt<Opcode::Avg, Pred>;
  case Opcode::Abs:
    return F32 ? &aluF32<Opcode::Abs, Pred> : &aluInt<Opcode::Abs, Pred>;
  case Opcode::Shl:
    return F32 ? &floatInvalid : &aluInt<Opcode::Shl, Pred>;
  case Opcode::Shr:
    return F32 ? &floatInvalid : &aluInt<Opcode::Shr, Pred>;
  case Opcode::Asr:
    return F32 ? &floatInvalid : &aluInt<Opcode::Asr, Pred>;
  case Opcode::And:
    return F32 ? &floatInvalid : &aluInt<Opcode::And, Pred>;
  case Opcode::Or:
    return F32 ? &floatInvalid : &aluInt<Opcode::Or, Pred>;
  case Opcode::Xor:
    return F32 ? &floatInvalid : &aluInt<Opcode::Xor, Pred>;
  case Opcode::Not:
    return F32 ? &floatInvalid : &aluInt<Opcode::Not, Pred>;
  default:
    exochiUnreachable("non-ALU opcode in aluFn");
  }
}

template <bool IsF32, bool Pred> FastFn cmpFn(CmpOp C) {
  switch (C) {
  case CmpOp::Eq:
    return &cmp<IsF32, CmpOp::Eq, Pred>;
  case CmpOp::Ne:
    return &cmp<IsF32, CmpOp::Ne, Pred>;
  case CmpOp::Lt:
    return &cmp<IsF32, CmpOp::Lt, Pred>;
  case CmpOp::Le:
    return &cmp<IsF32, CmpOp::Le, Pred>;
  case CmpOp::Gt:
    return &cmp<IsF32, CmpOp::Gt, Pred>;
  case CmpOp::Ge:
    return &cmp<IsF32, CmpOp::Ge, Pred>;
  }
  exochiUnreachable("bad CmpOp");
}

template <bool IsStore, bool Is2D, bool Pred> FastFn memFn(bool Checked) {
  return Checked ? &memOp<IsStore, Is2D, true, Pred>
                 : &memOp<IsStore, Is2D, false, Pred>;
}

template <bool SrcF32, bool Pred> FastFn cvtFn(const Instruction &I) {
  switch (I.Ty) {
  case ElemType::F32:
    return &cvt<SrcF32, ElemType::F32, Pred>;
  case ElemType::I8:
    return &cvt<SrcF32, ElemType::I8, Pred>;
  case ElemType::I16:
    return &cvt<SrcF32, ElemType::I16, Pred>;
  default:
    return &cvt<SrcF32, ElemType::I32, Pred>;
  }
}

template <bool Pred>
FastFn selectHandlerP(const Instruction &I, bool Checked) {
  switch (I.Op) {
  case Opcode::Nop:
    return &nop;
  case Opcode::Halt:
    return &halt;
  case Opcode::Jmp:
    return &jmp;
  case Opcode::Br:
    return &br;
  case Opcode::Sid:
    return &sid;
  case Opcode::Xmit:
    return &xmit;
  case Opcode::Wait:
    return &wait;
  case Opcode::Cmp:
    if (I.Ty == ElemType::F64)
      return &excUnsupported;
    return I.Ty == ElemType::F32 ? cmpFn<true, Pred>(I.Cmp)
                                 : cmpFn<false, Pred>(I.Cmp);
  case Opcode::Sel:
    if (I.Ty == ElemType::F64)
      return &excUnsupported;
    return I.Ty == ElemType::F32 ? &sel<true> : &sel<false>;
  case Opcode::Cvt:
    if (I.Ty == ElemType::F64 || I.SrcTy == ElemType::F64)
      return &excUnsupported;
    return I.SrcTy == ElemType::F32 ? cvtFn<true, Pred>(I)
                                    : cvtFn<false, Pred>(I);
  case Opcode::Ld:
    return memFn<false, false, Pred>(Checked);
  case Opcode::St:
    return memFn<true, false, Pred>(Checked);
  case Opcode::LdBlk:
    return memFn<false, true, Pred>(Checked);
  case Opcode::StBlk:
    return memFn<true, true, Pred>(Checked);
  case Opcode::Sample:
    return Checked ? &sampleOp<true> : &sampleOp<false>;
  case Opcode::Spawn:
    exochiUnreachable("spawn kernel reached XJIT trace build");
  default:
    if (I.Ty == ElemType::F64)
      return &excUnsupported;
    return aluFn<Pred>(I);
  }
}

FastFn selectHandler(const Instruction &I, bool Checked) {
  return I.PredReg == NoPred ? selectHandlerP<false>(I, Checked)
                             : selectHandlerP<true>(I, Checked);
}

template <Opcode OP> FastFn vecIntForm(VForm F0, VForm F1) {
  static constexpr FastFn Tab[9] = {
      &aluIntVec<OP, VImm, VImm>,    &aluIntVec<OP, VImm, VBcast>,
      &aluIntVec<OP, VImm, VLane>,   &aluIntVec<OP, VBcast, VImm>,
      &aluIntVec<OP, VBcast, VBcast>, &aluIntVec<OP, VBcast, VLane>,
      &aluIntVec<OP, VLane, VImm>,   &aluIntVec<OP, VLane, VBcast>,
      &aluIntVec<OP, VLane, VLane>};
  return Tab[F0 * 3 + F1];
}

template <Opcode OP> FastFn vecF32Form(VForm F0, VForm F1) {
  static constexpr FastFn Tab[9] = {
      &aluF32Vec<OP, VImm, VImm>,    &aluF32Vec<OP, VImm, VBcast>,
      &aluF32Vec<OP, VImm, VLane>,   &aluF32Vec<OP, VBcast, VImm>,
      &aluF32Vec<OP, VBcast, VBcast>, &aluF32Vec<OP, VBcast, VLane>,
      &aluF32Vec<OP, VLane, VImm>,   &aluF32Vec<OP, VLane, VBcast>,
      &aluF32Vec<OP, VLane, VLane>};
  return Tab[F0 * 3 + F1];
}

/// Returns the vector-form handler for \p I when its decoded operands
/// admit one (see the aluIntVec/aluF32Vec comment for the lane
/// independence obligations), else null and the scalar handler stands.
FastFn vecSelect(const Instruction &I, const DecodedInsn &D) {
  if (I.PredReg != NoPred)
    return nullptr;
  const bool F32 = I.Ty == ElemType::F32;
  if (!F32 && I.Ty != ElemType::I32)
    return nullptr;
  switch (I.Op) {
  case Opcode::Mov:
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::Mac:
  case Opcode::Min:
  case Opcode::Max:
  case Opcode::Avg:
  case Opcode::Abs:
    break;
  case Opcode::Div: // integer div raises on zero — scalar only
    if (!F32)
      return nullptr;
    break;
  case Opcode::Shl:
  case Opcode::Shr:
  case Opcode::Asr:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Not:
    if (F32)
      return nullptr;
    break;
  default:
    return nullptr;
  }
  const DecodedOperand &Dst = D.Dst;
  if (Dst.IsImm || Dst.Stride != 1)
    return nullptr;
  const unsigned W = I.Width;
  const unsigned D0 = Dst.Reg0;
  auto FormOf = [&](const DecodedOperand &O, VForm &F) {
    if (O.IsImm) {
      F = VImm;
      return true;
    }
    const unsigned R = O.Reg0;
    if (O.Stride == 0) {
      F = VBcast; // hoistable only when outside the written run
      return R < D0 || R >= D0 + W;
    }
    if (O.Stride == 1) {
      F = VLane; // same run (elementwise) or fully disjoint
      return R == D0 || R + W <= D0 || D0 + W <= R;
    }
    return false; // F64 register pairs — not eligible
  };
  VForm F0, F1;
  if (!FormOf(D.Src0, F0) || !FormOf(D.Src1, F1))
    return nullptr;
  switch (I.Op) {
  case Opcode::Mov:
    return F32 ? vecF32Form<Opcode::Mov>(F0, F1)
               : vecIntForm<Opcode::Mov>(F0, F1);
  case Opcode::Add:
    return F32 ? vecF32Form<Opcode::Add>(F0, F1)
               : vecIntForm<Opcode::Add>(F0, F1);
  case Opcode::Sub:
    return F32 ? vecF32Form<Opcode::Sub>(F0, F1)
               : vecIntForm<Opcode::Sub>(F0, F1);
  case Opcode::Mul:
    return F32 ? vecF32Form<Opcode::Mul>(F0, F1)
               : vecIntForm<Opcode::Mul>(F0, F1);
  case Opcode::Mac:
    return F32 ? vecF32Form<Opcode::Mac>(F0, F1)
               : vecIntForm<Opcode::Mac>(F0, F1);
  case Opcode::Min:
    return F32 ? vecF32Form<Opcode::Min>(F0, F1)
               : vecIntForm<Opcode::Min>(F0, F1);
  case Opcode::Max:
    return F32 ? vecF32Form<Opcode::Max>(F0, F1)
               : vecIntForm<Opcode::Max>(F0, F1);
  case Opcode::Avg:
    return F32 ? vecF32Form<Opcode::Avg>(F0, F1)
               : vecIntForm<Opcode::Avg>(F0, F1);
  case Opcode::Abs:
    return F32 ? vecF32Form<Opcode::Abs>(F0, F1)
               : vecIntForm<Opcode::Abs>(F0, F1);
  case Opcode::Div:
    return vecF32Form<Opcode::Div>(F0, F1);
  case Opcode::Shl:
    return vecIntForm<Opcode::Shl>(F0, F1);
  case Opcode::Shr:
    return vecIntForm<Opcode::Shr>(F0, F1);
  case Opcode::Asr:
    return vecIntForm<Opcode::Asr>(F0, F1);
  case Opcode::And:
    return vecIntForm<Opcode::And>(F0, F1);
  case Opcode::Or:
    return vecIntForm<Opcode::Or>(F0, F1);
  case Opcode::Xor:
    return vecIntForm<Opcode::Xor>(F0, F1);
  case Opcode::Not:
    return vecIntForm<Opcode::Not>(F0, F1);
  default:
    return nullptr;
  }
}

/// True when \p I's handler unconditionally returns Act::Next: a
/// straight-line data op with no jump, exception, or scheduler
/// interaction, eligible for block fusion. Integer Div is out (its
/// divide-by-zero CEH path raises); so are the invalid-combination
/// diagnostics, which return Fail.
bool blockableOp(const Instruction &I, FastFn Fn) {
  if (Fn == &floatInvalid || Fn == &excUnsupported)
    return false;
  switch (I.Op) {
  case Opcode::Nop:
  case Opcode::Sid:
  case Opcode::Cmp:
  case Opcode::Sel:
  case Opcode::Cvt:
  case Opcode::Mov:
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::Mac:
  case Opcode::Min:
  case Opcode::Max:
  case Opcode::Avg:
  case Opcode::Abs:
  case Opcode::Shl:
  case Opcode::Shr:
  case Opcode::Asr:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Not:
    return true;
  case Opcode::Div:
    return I.Ty == ElemType::F32; // IEEE inf/nan, never raises
  default:
    return false;
  }
}

/// What a trace is compiled for: a device dispatch with per-access checks
/// elided (XVerify proved them unnecessary) or kept, or the IA32 host
/// lane — checked, with the device-only synchronization ops refused.
enum class TraceMode : uint8_t { Unchecked, Checked, Host };

Trace compileTrace(const gma::KernelImage &K, TraceMode Mode) {
  assert(K.Decoded && "kernel registered without decoded form");
  const bool Checked = Mode != TraceMode::Unchecked;
  Trace T;
  T.Pin = K.Decoded;
  T.Ops.reserve(K.Code.size() + 1);
  for (size_t Pc = 0; Pc < K.Code.size(); ++Pc) {
    FastOp Op;
    Op.I = &K.Code[Pc];
    Op.D = &K.Decoded->Insns[Pc];
    Op.IssueCycles = Op.D->IssueCycles;
    Opcode Code = Op.I->Op;
    if (Mode == TraceMode::Host &&
        (Code == Opcode::Xmit || Code == Opcode::Wait || Code == Opcode::Spawn))
      Op.Fn = &deviceOnly;
    else
      Op.Fn = selectHandler(*Op.I, Checked);
    if (FastFn Vec = vecSelect(*Op.I, *Op.D))
      Op.Fn = Vec; // ALU carries no checks: valid in every trace mode
    T.Ops.push_back(Op);
  }
  FastOp End; // past-the-end retire: uncounted, like the cycle backend
  End.Fn = &halt;
  T.Ops.push_back(End);
  if (Mode == TraceMode::Host)
    return T; // the host loop single-steps: no fusion, so no XCost run
  // Fuse straight-line runs: a backward pass gives every op the
  // length and issue cost of the all-Act::Next suffix it heads.
  // Branches into the middle of a run stay correct — each member
  // carries its own (shorter) suffix.
  //
  // Gate on XCost's structural verdict, which reads no register value,
  // so the default spec serves: a kernel whose CFG is irreducible or
  // whose waits cannot be matched to an in-kernel xmit keeps
  // single-step dispatch, where the park/wake bookkeeping of the
  // cooperative scheduler is easiest to audit. Finite bounds are NOT
  // required — the Table 2 kernels all have parameter-dependent trip
  // counts and must stay fused.
  const bool Fusable =
      xopt::analyzeCost(K.Code, xopt::VerifySpec(), K.Name).structureOk();
  for (size_t Pc = T.Ops.size(); Pc-- > 0;) {
    FastOp &Op = T.Ops[Pc];
    Op.BlockIssue = Op.IssueCycles;
    if (!Fusable || !Op.I || !blockableOp(*Op.I, Op.Fn))
      continue;
    if (Pc + 1 < T.Ops.size()) {
      const FastOp &Next = T.Ops[Pc + 1];
      if (Next.I && blockableOp(*Next.I, Next.Fn)) {
        Op.BlockLen = Next.BlockLen + 1;
        Op.BlockIssue = Op.IssueCycles + Next.BlockIssue;
      }
    }
  }
  return T;
}

} // namespace

//===----------------------------------------------------------------------===//
// Engine
//===----------------------------------------------------------------------===//

struct JitEngine::Impl {
  gma::GmaDevice &Device;
  mem::PhysicalMemory &PM;
  gma::ProxySignalHandler *Proxy;
  /// The fast lane's ATR-filled TLB, sized like the device's aggregate
  /// EU TLB capacity. Filled by the same proxy, so ATR behaviour (and
  /// the ExoProxyHandler's fault schedule) is shared across backends.
  mem::Tlb JTlb;
  PageCache Pages;
  std::unordered_map<uint64_t, Trace> Traces; ///< (kernel << 1 | checked)
  /// Dispatch-shape -> "checks provably unnecessary" XVerify verdicts.
  /// Key: kernel id, param count, per-slot geometry, per-param range.
  std::map<std::vector<int64_t>, bool> Verdicts;

  Impl(gma::GmaDevice &D, mem::PhysicalMemory &PM, gma::ProxySignalHandler *P)
      : Device(D), PM(PM), Proxy(P),
        JTlb(D.config().TlbEntriesPerEu * D.config().NumEus) {}

  const Trace &traceFor(uint32_t KernelId, const gma::KernelImage &K,
                        bool Checked) {
    uint64_t Key = (static_cast<uint64_t>(KernelId) << 1) | (Checked ? 1 : 0);
    auto It = Traces.find(Key);
    if (It != Traces.end())
      return It->second;
    Trace T = compileTrace(K, Checked ? TraceMode::Checked
                                      : TraceMode::Unchecked);
    return Traces.emplace(Key, std::move(T)).first->second;
  }

  /// XVerify gate for check elision: prove the kernel in-bounds under
  /// this dispatch's actual surface geometry and the min/max envelope of
  /// its scalar parameters. Verdicts are cached per dispatch shape — the
  /// serving stack re-runs identical shapes constantly.
  bool checksElidable(const JitRunRequest &Req, const gma::KernelImage &K) {
    if (Req.Shreds.empty())
      return true;
    const gma::ShredDescriptor &D0 = Req.Shreds.front();
    const gma::SurfaceTable *Surf = D0.Surfaces.get();
    for (const gma::ShredDescriptor &D : Req.Shreds)
      if (D.Surfaces.get() != Surf || D.Params.size() != D0.Params.size())
        return false; // heterogeneous team: keep the checks
    xopt::VerifySpec Spec;
    Spec.NumScalarParams = static_cast<unsigned>(D0.Params.size());
    Spec.NumSurfaceSlots = Surf ? static_cast<int32_t>(Surf->size()) : 0;
    std::vector<int64_t> Key;
    Key.reserve(3 + 2 * (Surf ? Surf->size() : 0) + 2 * D0.Params.size());
    Key.push_back(Req.KernelId);
    Key.push_back(static_cast<int64_t>(D0.Params.size()));
    Key.push_back(Spec.NumSurfaceSlots);
    if (Surf) {
      for (size_t Slot = 0; Slot < Surf->size(); ++Slot) {
        const gma::SurfaceBinding &B = (*Surf)[Slot];
        xopt::SurfaceGeometry G;
        G.Width = static_cast<int64_t>(B.Width);
        G.Height = static_cast<int64_t>(B.Height);
        Spec.Surfaces[static_cast<int32_t>(Slot)] = G;
        Key.push_back(G.Width);
        Key.push_back(G.Height);
      }
    }
    for (size_t P = 0; P < D0.Params.size(); ++P) {
      int64_t Lo = D0.Params[P], Hi = D0.Params[P];
      for (const gma::ShredDescriptor &D : Req.Shreds) {
        Lo = std::min<int64_t>(Lo, D.Params[P]);
        Hi = std::max<int64_t>(Hi, D.Params[P]);
      }
      Spec.ParamRanges[static_cast<unsigned>(P)] = xopt::Range::of(Lo, Hi);
      Key.push_back(Lo);
      Key.push_back(Hi);
    }
    auto It = Verdicts.find(Key);
    if (It != Verdicts.end())
      return It->second;
    bool Clean = xopt::verifyKernel(K.Code, Spec, K.Name).clean();
    Verdicts.emplace(std::move(Key), Clean);
    return Clean;
  }
};

namespace {

/// Mirrors refillContext's functional half: zero the register file,
/// fetch the continuation record through ATR when it lives in shared
/// memory, preload params into vr0.., then deliver mailboxed xmits.
Act initShred(Run &R, Shred &S) {
  std::memset(S.Regs, 0, sizeof(S.Regs));
  std::memset(S.Preds, 0, sizeof(S.Preds));
  std::memset(S.RegReady, 0, sizeof(S.RegReady));
  S.Pc = 0;
  ++R.Started;
  const gma::ShredDescriptor &D = S.Desc;
  if (D.RecordVa != 0 && !D.Params.empty()) {
    uint64_t Bytes = D.Params.size() * 4;
    SegList Segs;
    if (!translateSpan(R, S, D.RecordVa, Bytes, /*IsWrite=*/false,
                       mem::GpuMemType::Cached, Segs)) {
      if (R.Inj)
        return Act::Restart; // injected descriptor-fetch fault: ladder
      R.Err = "shred descriptor fetch failed: " + R.Err;
      return Act::Fail;
    }
    // The record's little-endian words land straight in vr0..; words
    // past the register file are fetched (and counted) but dropped.
    uint8_t *Dst = reinterpret_cast<uint8_t *>(S.Regs);
    uint64_t Room = sizeof(S.Regs);
    for (unsigned K = 0; K < Segs.N && Room > 0; ++K) {
      uint64_t Chunk = std::min(Room, Segs.Segs[K].Bytes);
      R.PM.read(Segs.Segs[K].Phys, Dst, Chunk);
      Dst += Chunk;
      Room -= Chunk;
    }
  } else {
    for (size_t K = 0; K < D.Params.size() && K < NumVRegs; ++K)
      S.Regs[K] = static_cast<uint32_t>(D.Params[K]);
  }
  if (!S.Mail.empty()) {
    for (const auto &[Reg, V] : S.Mail) {
      S.Regs[Reg] = V;
      S.RegReady[Reg] = true;
    }
    S.Mail.clear();
  }
  S.State = Shred::St::Ready;
  return Act::Next;
}

/// Last rung of the ladder: run the orphan on the IA32 host lane, as
/// GmaDevice::hostRedispatch. Failure here is fatal even under
/// injection — the ladder has no rung below the host lane.
bool hostOrphan(Run &R, Shred &S) {
  if (!R.Proxy) {
    R.Err = formatString("shred %u: orphaned with no proxy handler installed",
                         S.Id);
    return false;
  }
  gma::OrphanShred O;
  O.ShredId = S.Id;
  O.KernelId = R.KernelId;
  O.Kernel = R.Kern;
  O.Params = S.Desc.Params;
  O.Surfaces = S.Desc.Surfaces;
  O.RecordVa = S.Desc.RecordVa;
  ++R.Stats.ProxyCalls;
  auto Latency = R.Proxy->onShredOrphaned(O);
  if (!Latency) {
    R.Err = formatString(
        "shred %u: EU re-dispatch exhausted and IA32 host lane failed: %s",
        S.Id, Latency.message().c_str());
    return false;
  }
  ++R.Stats.HostRedispatches;
  ++R.Stats.ShredsExecuted;
  R.Stats.ProxyStallNs += *Latency;
  S.State = Shred::St::Done;
  return true;
}

/// FaultLab re-dispatch ladder, as GmaDevice::redispatchShred: bounded
/// retries from the saved descriptor (idempotent kernels recompute), then
/// the host lane once the budget is spent or every modeled lane is down.
bool restartShred(Run &R, Shred &S) {
  S.Desc.FixedShredId = S.Id; // keep the id across re-dispatches
  S.Desc.Redispatches = static_cast<uint8_t>(S.Desc.Redispatches + 1);
  if (S.Desc.Redispatches > R.Cfg->MaxShredRedispatch || !R.anyOnlineEu())
    return hostOrphan(R, S);
  ++R.Stats.ShredsRedispatched;
  S.State = Shred::St::Fresh; // xmits arriving meanwhile go to Mail
  R.RunQ.push_back(S.Idx);
  return true;
}

} // namespace

JitEngine::JitEngine(gma::GmaDevice &Device, mem::PhysicalMemory &PM,
                     gma::ProxySignalHandler *Proxy)
    : I(std::make_unique<Impl>(Device, PM, Proxy)) {}

JitEngine::~JitEngine() = default;

bool JitEngine::supports(const std::vector<isa::Instruction> &Code) {
  for (const isa::Instruction &In : Code)
    if (In.Op == Opcode::Spawn)
      return false;
  return true;
}

Expected<JitRunResult> JitEngine::run(JitRunRequest Req) {
  const gma::KernelImage *Kern = I->Device.kernel(Req.KernelId);
  if (!Kern)
    return Error::make(
        formatString("xjit: unregistered kernel %u", Req.KernelId));
  if (!supports(Kern->Code))
    return Error::make(formatString(
        "xjit: kernel '%s' uses spawn and cannot run on the fast lane",
        Kern->Name.c_str()));

  bool Elide = !Req.ForceChecked && I->checksElidable(Req, *Kern);
  const Trace &T = I->traceFor(Req.KernelId, *Kern, /*Checked=*/!Elide);

  // The host may remap pages between dispatches (the cycle backend's
  // GmaDevice::invalidateTlbs coherence point). The fast lane has no
  // hook into that call, so it starts every run cold and refills through
  // ATR — a handful of proxy translations per dispatch, which is noise
  // next to the per-instruction work it saves.
  I->JTlb.invalidateAll();
  I->Pages.newRun();

  const gma::GmaConfig &Cfg = I->Device.config();
  uint32_t N = static_cast<uint32_t>(Req.Shreds.size());
  uint32_t FirstId = I->Device.allocShredIds(N);
  fault::FaultInjector *Inj = I->Device.faultInjector();

  Run R{.PM = I->PM,
        .Pages = I->Pages,
        .Proxy = I->Proxy,
        .JTlb = &I->JTlb,
        .Cfg = &Cfg,
        .Inj = (Inj && Inj->armed()) ? Inj : nullptr,
        .Kern = Kern,
        .KernelId = Req.KernelId,
        .FirstId = FirstId};
  R.Stats.Backend = gma::BackendKind::Fast;
  R.Stats.StartNs = Req.StartNs;
  R.Stats.FinishNs = Req.StartNs;
  R.EuOffline.assign(Cfg.NumEus, false);
  R.Shreds.resize(N);
  for (uint32_t K = 0; K < N; ++K) {
    Shred &S = R.Shreds[K];
    S.Idx = K;
    S.Desc = std::move(Req.Shreds[K]);
    S.Id = S.Desc.FixedShredId ? S.Desc.FixedShredId : FirstId + K;
    S.Surf = S.Desc.Surfaces.get();
    R.RunQ.push_back(K);
  }

  gma::RunExit Exit = gma::RunExit::QueueDrained;
  const bool HasDeadline = Req.DeadlineNs > 0;
  uint64_t Steps = 0;
  uint64_t NextCheck = 4096;
  bool Preempted = false;
  while (!R.RunQ.empty()) {
    // Deadline safepoint at shred granularity (the batch-granular
    // equivalent of the cycle backend's epoch-boundary watchdog).
    if (HasDeadline && R.estimateNs() > Req.DeadlineNs) {
      Preempted = true;
      break;
    }
    uint32_t Idx = R.RunQ.front();
    R.RunQ.pop_front();
    Shred &S = R.Shreds[Idx];
    if (S.State == Shred::St::Fresh) {
      Act A = initShred(R, S);
      if (A == Act::Fail)
        return Error::make(std::move(R.Err));
      if (A == Act::Restart) {
        if (!restartShred(R, S))
          return Error::make(std::move(R.Err));
        continue;
      }
    }
    // Run the shred until it halts, blocks, restarts, or fails. The
    // instruction and issue-cycle counters accumulate in locals the
    // dispatch loop can keep in registers across the indirect handler
    // calls; they flush to Stats wherever estimateNs might read them.
    uint64_t LocalInstr = 0;
    double LocalIssue = 0;
    const FastOp *const Ops = T.Ops.data();
    for (;;) {
      if (HasDeadline && Steps >= NextCheck) {
        NextCheck = Steps + 4096;
        R.Stats.Instructions += LocalInstr;
        R.Stats.IssueCycles += LocalIssue;
        LocalInstr = 0;
        LocalIssue = 0;
        if (R.estimateNs() > Req.DeadlineNs) {
          Preempted = true; // mid-shred safepoint for long-running kernels
          break;
        }
      }
      const FastOp &Op = Ops[S.Pc];
      if (Op.BlockLen > 1) {
        // Fused straight-line run: every member returns Act::Next, so
        // pc/counter/deadline bookkeeping is charged once for the run.
        Steps += Op.BlockLen;
        LocalInstr += Op.BlockLen;
        LocalIssue += Op.BlockIssue;
        const FastOp *P = &Op;
        const FastOp *const E = P + Op.BlockLen;
        do
          P->Fn(R, S, *P);
        while (++P != E);
        S.Pc += Op.BlockLen;
        continue;
      }
      ++Steps;
      if (Op.D) { // the synthetic trailing halt is uncounted
        ++LocalInstr;
        LocalIssue += Op.IssueCycles;
      }
      Act A = Op.Fn(R, S, Op);
      if (A == Act::Next) {
        ++S.Pc;
        continue;
      }
      if (A == Act::Jump)
        continue;
      if (A == Act::Halt) {
        S.State = Shred::St::Done;
        ++R.Stats.ShredsExecuted;
      } else if (A == Act::Block) {
        S.State = Shred::St::Waiting;
      } else if (A == Act::Restart) {
        if (!restartShred(R, S))
          return Error::make(std::move(R.Err));
      } else { // Act::Fail
        return Error::make(std::move(R.Err));
      }
      break;
    }
    R.Stats.Instructions += LocalInstr;
    R.Stats.IssueCycles += LocalIssue;
    if (Preempted)
      break;
  }

  if (Preempted) {
    for (const Shred &S : R.Shreds)
      if (S.State != Shred::St::Done)
        ++R.Stats.ShredsPreempted;
    R.Stats.FinishNs = std::max(Req.StartNs, Req.DeadlineNs);
    Exit = gma::RunExit::DeadlinePreempted;
  } else {
    // Queue drained. A shred still parked in `wait` lost its signal:
    // under injection this is the bounded, diagnosed timeout (the cycle
    // backend's per-wait watchdog); otherwise it is the deadlock
    // diagnostic, with the same shred/register list.
    const Shred *Stuck = nullptr;
    std::string Who;
    for (const Shred &S : R.Shreds)
      if (S.State == Shred::St::Waiting) {
        if (!Stuck)
          Stuck = &S;
        if (!Who.empty())
          Who += ", ";
        Who += formatString("shred %u on vr%u", S.Id,
                            static_cast<unsigned>(S.WaitReg));
      }
    if (Stuck) {
      if (R.Inj)
        return Error::make(formatString(
            "shred %u: `wait vr%u` timed out after %.0f ns blocked "
            "(signal lost or sender failed)",
            Stuck->Id, static_cast<unsigned>(Stuck->WaitReg),
            Cfg.WaitTimeoutNs));
      return Error::make(
          "deadlock: every resident shred is blocked in `wait` and the "
          "work queue cannot make progress (" +
          Who + ")");
    }
    R.Stats.FinishNs = std::max(Req.StartNs, R.estimateNs());
  }

  JitRunResult Res;
  Res.Exit = Exit;
  Res.Stats = std::move(R.Stats);
  Res.ElidedChecks = Elide;
  return Res;
}

//===----------------------------------------------------------------------===//
// IA32 host lane
//===----------------------------------------------------------------------===//

struct HostLane::Impl {
  /// A host trace and the kernel copy its instruction pointers point
  /// into: the trace outlives the kernel table the orphan came from.
  struct Entry {
    gma::KernelImage Kern;
    Trace T;
  };

  mem::Ia32AddressSpace &AS;
  PageCache Pages;
  /// Keyed by decoded form, which each entry's kernel copy keeps alive.
  std::unordered_map<const isa::DecodedKernel *, std::unique_ptr<Entry>>
      Traces;

  explicit Impl(mem::Ia32AddressSpace &AS) : AS(AS) {}

  const Trace &traceFor(const gma::KernelImage &K) {
    std::unique_ptr<Entry> &E = Traces[K.Decoded.get()];
    if (!E) {
      E = std::make_unique<Entry>();
      E->Kern = K;
      E->T = compileTrace(E->Kern, TraceMode::Host);
    }
    return E->T;
  }
};

HostLane::HostLane(mem::Ia32AddressSpace &AS)
    : I(std::make_unique<Impl>(AS)) {}

HostLane::~HostLane() = default;

Error HostLane::run(const gma::OrphanShred &O, gma::DivZeroPolicy DivZero,
                    HostLaneStats &Stats) {
  if (!O.Kernel)
    return Error::make(formatString(
        "host lane: shred %u orphaned without kernel code", O.ShredId));
  const Trace &T = I->traceFor(*O.Kernel);
  HostSide Host{I->AS, DivZero, Stats};
  I->Pages.newRun();
  Run R{.PM = I->AS.physical(), .Pages = I->Pages, .Host = &Host};
  Shred S;
  S.Id = O.ShredId;
  S.Desc.Params = O.Params;
  S.Desc.Surfaces = O.Surfaces;
  S.Desc.RecordVa = O.RecordVa;
  S.Surf = O.Surfaces.get();
  if (initShred(R, S) == Act::Fail)
    return Error::make("host lane: " + R.Err);

  // Far above any legitimate kernel in the modelled workloads: orphans
  // caught in an infinite loop become a diagnosed error, not a hang.
  constexpr uint64_t InstrBudget = 4'000'000;
  uint64_t Instrs = 0;
  for (;;) {
    const FastOp &Op = T.Ops[S.Pc];
    if (Op.D && ++Instrs > InstrBudget) // the trailing halt is uncounted
      return Error::make(formatString(
          "host lane: shred %u exceeded the %llu-instruction budget "
          "(runaway orphan)",
          O.ShredId, static_cast<unsigned long long>(InstrBudget)));
    switch (Op.Fn(R, S, Op)) {
    case Act::Next:
      ++S.Pc;
      break;
    case Act::Jump:
      break;
    case Act::Halt:
      Stats.Instructions += Instrs;
      return Error::success();
    default: // Act::Fail: Block and Restart need a device
      return Error::make("host lane: " + R.Err);
    }
  }
}

} // namespace xjit
} // namespace exochi
