//===- gma/GmaDevice.cpp -----------------------------------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Epoch-based simulation engine. Every run proceeds in rounds:
//
//   1. refill  — dispatch queued shreds into idle contexts, in EU-index
//                order.
//   2. advance — each EU, in index order, advances up to a shared
//                simulated-time horizon. Instructions with only EU-local
//                effects (ALU, branches, predication) execute
//                immediately; every interaction with a shared resource
//                (memory/cache/TLB/bus, the sampler, xmit/wait, spawn,
//                proxy ATR and CEH calls, retirement) is buffered as a
//                PendingOp. Ops whose result the context needs block it
//                until the barrier.
//   3. resolve — all buffered ops are drained in (issue time, EU index,
//                sequence) order. Arbitration for the bus, cache, TLB,
//                sampler queue and work queue happens here, so its
//                outcome depends only on the issue schedule.
//
// A context's instruction stream depends only on state established at
// round barriers, so the order in which step 2 visits the EUs never
// shows in the results. A hook-requested pause stops step 2 and resolves
// all buffered ops before returning so debuggers observe a consistent
// machine.
//
//===----------------------------------------------------------------------===//

#include "gma/GmaDevice.h"

#include "fault/FaultInjector.h"
#include "support/Format.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <type_traits>

using namespace exochi;
using namespace exochi::gma;
using namespace exochi::isa;

ShredRegView::~ShredRegView() = default;
ProxySignalHandler::~ProxySignalHandler() = default;

Expected<TimeNs> ProxySignalHandler::onShredOrphaned(const OrphanShred &O) {
  return Error::make(formatString(
      "shred %u (kernel '%s'): no IA32 re-dispatch lane installed",
      O.ShredId, O.Kernel ? O.Kernel->Name.c_str() : "?"));
}

const char *gma::backendName(BackendKind K) {
  switch (K) {
  case BackendKind::Cycle:
    return "cycle";
  case BackendKind::Fast:
    return "fast";
  }
  exochiUnreachable("bad BackendKind");
}

std::optional<BackendKind> gma::parseBackendName(std::string_view Name) {
  if (Name == "cycle")
    return BackendKind::Cycle;
  if (Name == "fast")
    return BackendKind::Fast;
  return std::nullopt;
}

const char *gma::exceptionKindName(ExceptionKind K) {
  switch (K) {
  case ExceptionKind::UnsupportedType:
    return "unsupported-type";
  case ExceptionKind::DivideByZero:
    return "divide-by-zero";
  case ExceptionKind::SurfaceBounds:
    return "surface-bounds";
  case ExceptionKind::InvalidSurface:
    return "invalid-surface";
  }
  exochiUnreachable("bad ExceptionKind");
}

//===----------------------------------------------------------------------===//
// Internal structures
//===----------------------------------------------------------------------===//

/// One hardware thread context (an exo-sequencer).
struct GmaDevice::Context : public ShredRegView {
  enum class State : uint8_t {
    Idle,    ///< no shred loaded
    Running, ///< executing (possibly stalled until StallUntil)
    Blocked, ///< issued a shared-resource op; parked until the barrier
    Waiting, ///< blocked in `wait` on a register ready flag
  };

  State St = State::Idle;
  uint32_t Regs[NumVRegs] = {};
  uint16_t Preds[NumPRegs] = {};
  bool RegReady[NumVRegs] = {};
  uint32_t Pc = 0;
  uint32_t ShredId = 0;
  uint32_t KernelId = 0;
  const KernelImage *Kern = nullptr;
  const isa::DecodedKernel *Dec = nullptr; ///< Kern->Decoded.get()
  std::shared_ptr<const SurfaceTable> Surfaces;
  TimeNs StallUntil = 0;
  uint8_t WaitReg = 0;
  unsigned Slot = 0;          ///< thread-context index within the EU
  TimeNs LoadedAtNs = 0;      ///< dispatch time of the resident shred
  TimeNs WaitSinceNs = 0;     ///< issue time of the pending `wait`
  /// The dispatched descriptor, kept so a faulted shred can be
  /// re-dispatched from scratch (FaultLab degradation ladder).
  ShredDescriptor Desc;

  /// Stride-prefetcher state: a few tracked miss streams per context.
  /// A miss that continues a trained stream (same stride as last time)
  /// is considered prefetched.
  struct PrefetchStream {
    uint64_t LastLine = ~0ull;
    int64_t Stride = 0;
    bool Trained = false;
  };
  PrefetchStream Streams[4];
  unsigned NextStream = 0;

  /// Returns true when the miss on \p Line rides a trained stream, and
  /// updates the stream table.
  bool prefetchHit(uint64_t Line) {
    for (PrefetchStream &S : Streams) {
      if (S.LastLine == ~0ull)
        continue;
      int64_t D = static_cast<int64_t>(Line) - static_cast<int64_t>(S.LastLine);
      if (D == 0)
        return true; // same line re-missed (another chunk)
      if (S.Trained && D == S.Stride) {
        S.LastLine = Line;
        return true;
      }
      if (D != 0 && D > -512 && D < 512 && !S.Trained) {
        S.Stride = D;
        S.Trained = true;
        S.LastLine = Line;
        return false; // training access pays full latency
      }
      if (S.Trained && D != S.Stride && D > -8 && D < 8) {
        // Near the stream but off-stride: retrain.
        S.Stride = D;
        S.LastLine = Line;
        return false;
      }
    }
    // Allocate a new stream slot round-robin.
    Streams[NextStream].LastLine = Line;
    Streams[NextStream].Stride = 0;
    Streams[NextStream].Trained = false;
    NextStream = (NextStream + 1) % 4;
    return false;
  }

  // ShredRegView implementation (CEH / debugger access).
  uint32_t readReg(unsigned Reg) const override {
    assert(Reg < NumVRegs && "register index out of range");
    return Regs[Reg];
  }
  void writeReg(unsigned Reg, uint32_t Value) override {
    assert(Reg < NumVRegs && "register index out of range");
    Regs[Reg] = Value;
  }
  bool readPredLane(unsigned PredReg, unsigned Lane) const override {
    assert(PredReg < NumPRegs && Lane < 16 && "predicate index out of range");
    return (Preds[PredReg] >> Lane) & 1;
  }
  void writePredLane(unsigned PredReg, unsigned Lane, bool Set) override {
    assert(PredReg < NumPRegs && Lane < 16 && "predicate index out of range");
    if (Set)
      Preds[PredReg] |= static_cast<uint16_t>(1u << Lane);
    else
      Preds[PredReg] &= static_cast<uint16_t>(~(1u << Lane));
  }
};

/// A buffered shared-resource interaction, applied at the round barrier.
struct GmaDevice::PendingOp {
  enum class Kind : uint8_t {
    Memory,    ///< Ld/St/LdBlk/StBlk (blocking)
    Sampler,   ///< sample (blocking)
    Exception, ///< CEH proxy call (blocking)
    Xmit,      ///< cross-shred register send (non-blocking)
    Wait,      ///< wait with no locally ready value (blocking)
    Spawn,     ///< child shred enqueue (non-blocking)
    Retire,    ///< halt / end of kernel (blocking; context idles here)
  };

  Kind K = Kind::Memory;
  TimeNs IssueNs = 0;
  uint32_t EuIdx = 0;
  uint32_t Slot = 0;
  uint32_t NextPc = 0; ///< pc after the op completes

  /// Memory / Sampler / Exception: the issuing instruction, in its
  /// kernel image (the KernelTable never moves or frees an image).
  const isa::Instruction *Instr = nullptr;
  ExceptionKind Exc = ExceptionKind::UnsupportedType;
  uint32_t Target = 0; ///< Xmit: destination shred id
  uint32_t Value = 0;  ///< Xmit: value; Spawn: child parameter
  uint8_t Reg = 0;     ///< Xmit / Wait register
  TimeNs EndNs = 0;    ///< Retire: span end time
};

/// One execution unit with its four thread contexts. The advance phase
/// touches only what is here — including the pending-op buffer and the
/// statistic shards — plus read-only kernel code and configuration.
struct GmaDevice::Eu {
  Eu(unsigned Index, unsigned NumThreads)
      : Index(Index), Contexts(NumThreads) {
    for (unsigned K = 0; K < NumThreads; ++K)
      Contexts[K].Slot = K;
  }

  unsigned Index;
  TimeNs Time = 0;
  std::vector<Context> Contexts;
  int LastIssued = -1;
  bool Offline = false; ///< hard-failed: no refills, buffered ops dropped
  /// Quarantined by the ExoServe circuit breaker: no refills, but unlike
  /// Offline this is a between-runs policy state that resetStats keeps.
  bool Quarantined = false;

  /// Buffered ops in issue order (non-decreasing issue time).
  std::vector<PendingOp> Pending;

  // Statistic shards, merged into GmaRunStats in EU-index order at every
  // run exit so double-precision accumulation order is fixed.
  uint64_t ShardInstructions = 0;
  double ShardIssueCycles = 0;
  TimeNs ShardFinishNs = 0;
  std::string ShardError; ///< first advance-phase error (empty = none)
};

//===----------------------------------------------------------------------===//
// Lane value access helpers
//===----------------------------------------------------------------------===//

namespace {

/// Lanes of \p I that its predicate prefix enables, one bit per lane
/// below its width.
uint32_t laneMask(const Instruction &I, const uint16_t *Preds) {
  uint32_t All = (1u << I.Width) - 1;
  if (I.PredReg == NoPred)
    return All;
  uint32_t P = Preds[I.PredReg];
  return (I.PredNegate ? ~P : P) & All;
}

/// Left shift that, undone arithmetically, narrows a 32-bit value to
/// integer type \p Ty and sign-extends it back: 24 for I8, 16 for I16,
/// and 0 for the 32-bit types, which it leaves as they are.
unsigned narrowShift(ElemType Ty) { return 32 - 8 * elemTypeSize(Ty); }

/// \p V truncated to the integer type of \p Sh = narrowShift(Ty) and
/// sign-extended to 32 bits.
int32_t narrow(int64_t V, unsigned Sh) {
  return static_cast<int32_t>(static_cast<uint32_t>(V) << Sh) >> Sh;
}

/// Value of a scalar (index) operand.
int64_t scalarVal(const isa::DecodedOperand &O, const uint32_t *Regs) {
  return O.IsImm ? O.Imm : static_cast<int32_t>(Regs[O.Reg0]);
}

/// A source operand's lanes: lane L is P[L * Stride]. An immediate points
/// at its own value with stride 0, as a broadcast register does.
struct LaneSrc {
  const uint32_t *P;
  unsigned Stride;

  uint32_t bits(unsigned L) const { return P[L * Stride]; }
  int64_t i(unsigned L) const { return static_cast<int32_t>(bits(L)); }
  float f(unsigned L) const { return std::bit_cast<float>(bits(L)); }
  /// Lane L as an integer (with 64-bit intermediates) or a float.
  template <typename T> T at(unsigned L) const {
    if constexpr (std::is_same_v<T, float>)
      return f(L);
    else
      return i(L);
  }
};

LaneSrc laneSrc(const isa::DecodedOperand &O, const uint32_t *Regs) {
  if (O.IsImm)
    return {reinterpret_cast<const uint32_t *>(&O.Imm), 0};
  return {Regs + O.Reg0, O.Stride};
}

/// The operands of one ALU instruction, resolved once for its lane loop.
struct AluLanes {
  uint32_t *Dst;
  unsigned DstStride;
  LaneSrc A, B;
  uint32_t Mask; ///< enabled lanes
};

// The lane loops visit the enabled lanes in order. Each lane reads its
// sources (and, for mac, its destination) before writing its destination,
// so a destination overlapping a source shows the lanes written before
// it. Integer ops compute in 64 bits and narrow to the element type.

template <unsigned Sh, typename Fn> void intLanes(const AluLanes &X, Fn F) {
  for (uint32_t M = X.Mask; M; M &= M - 1) {
    unsigned L = static_cast<unsigned>(std::countr_zero(M));
    uint32_t &D = X.Dst[L * X.DstStride];
    D = static_cast<uint32_t>(
        narrow(F(X.A.i(L), X.B.i(L), static_cast<int32_t>(D)), Sh));
  }
}

template <typename Fn> void f32Lanes(const AluLanes &X, Fn F) {
  for (uint32_t M = X.Mask; M; M &= M - 1) {
    unsigned L = static_cast<unsigned>(std::countr_zero(M));
    uint32_t &D = X.Dst[L * X.DstStride];
    D = std::bit_cast<uint32_t>(
        F(X.A.f(L), X.B.f(L), std::bit_cast<float>(D)));
  }
}

/// Runs integer ALU opcode \p Op on elements of narrowShift \p Sh.
/// Returns false at the first enabled lane that divides by zero, with the
/// lanes before it already written.
template <unsigned Sh> bool intAlu(Opcode Op, const AluLanes &X) {
  using I = int64_t;
  switch (Op) {
  case Opcode::Mov: intLanes<Sh>(X, [](I A, I, I) { return A; }); break;
  case Opcode::Add: intLanes<Sh>(X, [](I A, I B, I) { return A + B; }); break;
  case Opcode::Sub: intLanes<Sh>(X, [](I A, I B, I) { return A - B; }); break;
  case Opcode::Mul: intLanes<Sh>(X, [](I A, I B, I) { return A * B; }); break;
  case Opcode::Mac:
    intLanes<Sh>(X, [](I A, I B, I D) { return D + A * B; });
    break;
  case Opcode::Div:
    for (uint32_t M = X.Mask; M; M &= M - 1) {
      unsigned L = static_cast<unsigned>(std::countr_zero(M));
      I B = X.B.i(L);
      if (B == 0)
        return false;
      X.Dst[L * X.DstStride] = static_cast<uint32_t>(narrow(X.A.i(L) / B, Sh));
    }
    break;
  case Opcode::Min:
    intLanes<Sh>(X, [](I A, I B, I) { return std::min(A, B); });
    break;
  case Opcode::Max:
    intLanes<Sh>(X, [](I A, I B, I) { return std::max(A, B); });
    break;
  case Opcode::Avg:
    intLanes<Sh>(X, [](I A, I B, I) { return (A + B + 1) >> 1; });
    break;
  case Opcode::Abs:
    intLanes<Sh>(X, [](I A, I, I) { return A < 0 ? -A : A; });
    break;
  case Opcode::Shl:
    intLanes<Sh>(X, [](I A, I B, I) { return A << (B & 31); });
    break;
  case Opcode::Shr:
    intLanes<Sh>(X, [](I A, I B, I) {
      return static_cast<I>(static_cast<uint32_t>(A) >> (B & 31));
    });
    break;
  case Opcode::Asr:
    intLanes<Sh>(X, [](I A, I B, I) {
      return static_cast<I>(static_cast<int32_t>(A) >> (B & 31));
    });
    break;
  case Opcode::And: intLanes<Sh>(X, [](I A, I B, I) { return A & B; }); break;
  case Opcode::Or: intLanes<Sh>(X, [](I A, I B, I) { return A | B; }); break;
  case Opcode::Xor: intLanes<Sh>(X, [](I A, I B, I) { return A ^ B; }); break;
  case Opcode::Not: intLanes<Sh>(X, [](I A, I, I) { return ~A; }); break;
  default:
    exochiUnreachable("unhandled ALU opcode");
  }
  return true;
}

bool intAlu(Opcode Op, const AluLanes &X, ElemType Ty) {
  switch (Ty) {
  case ElemType::I8: return intAlu<24>(Op, X);
  case ElemType::I16: return intAlu<16>(Op, X);
  default: return intAlu<0>(Op, X);
  }
}

/// Runs F32 ALU opcode \p Op. Returns false for an opcode that is not
/// defined on floats.
bool f32Alu(Opcode Op, const AluLanes &X) {
  using F = float;
  switch (Op) {
  case Opcode::Mov: f32Lanes(X, [](F A, F, F) { return A; }); break;
  case Opcode::Add: f32Lanes(X, [](F A, F B, F) { return A + B; }); break;
  case Opcode::Sub: f32Lanes(X, [](F A, F B, F) { return A - B; }); break;
  case Opcode::Mul: f32Lanes(X, [](F A, F B, F) { return A * B; }); break;
  case Opcode::Mac: f32Lanes(X, [](F A, F B, F D) { return D + A * B; }); break;
  // IEEE inf/nan, no fault.
  case Opcode::Div: f32Lanes(X, [](F A, F B, F) { return A / B; }); break;
  case Opcode::Min:
    f32Lanes(X, [](F A, F B, F) { return std::min(A, B); });
    break;
  case Opcode::Max:
    f32Lanes(X, [](F A, F B, F) { return std::max(A, B); });
    break;
  case Opcode::Avg:
    f32Lanes(X, [](F A, F B, F) { return (A + B) * 0.5f; });
    break;
  case Opcode::Abs: f32Lanes(X, [](F A, F, F) { return std::fabs(A); }); break;
  default:
    return false;
  }
  return true;
}

/// cmp over the lanes in \p Mask, comparing as integers or floats:
/// returns the predicate bits of the lanes where A <Cond> B holds.
template <typename T>
uint32_t cmpLanes(CmpOp Cond, LaneSrc A, LaneSrc B, uint32_t Mask) {
  auto Run = [&](auto Holds) {
    uint32_t Bits = 0;
    for (uint32_t M = Mask; M; M &= M - 1) {
      unsigned L = static_cast<unsigned>(std::countr_zero(M));
      if (Holds(A.at<T>(L), B.at<T>(L)))
        Bits |= 1u << L;
    }
    return Bits;
  };
  switch (Cond) {
  case CmpOp::Eq: return Run(std::equal_to<T>());
  case CmpOp::Ne: return Run(std::not_equal_to<T>());
  case CmpOp::Lt: return Run(std::less<T>());
  case CmpOp::Le: return Run(std::less_equal<T>());
  case CmpOp::Gt: return Run(std::greater<T>());
  case CmpOp::Ge: return Run(std::greater_equal<T>());
  }
  exochiUnreachable("bad CmpOp");
}

// Issue cost in EU cycles is precomputed per instruction at kernel
// registration (isa::decodedIssueCycles); the interpreter reads it from
// the DecodedInsn instead of re-deriving it every step.

} // namespace

//===----------------------------------------------------------------------===//
// GmaDevice
//===----------------------------------------------------------------------===//

GmaDevice::GmaDevice(const GmaConfig &Config, mem::PhysicalMemory &PM,
                     mem::MemoryBus &Bus,
                     std::shared_ptr<KernelTable> SharedKernels,
                     unsigned DeviceIndex)
    : Config(Config), CycleNs(Config.cycleNs()), PM(PM), Bus(Bus),
      Cache(Config.CacheBytes, Config.CacheLineBytes, Config.CacheWays),
      DeviceTlb(Config.TlbEntriesPerEu * Config.NumEus),
      Kernels(SharedKernels ? std::move(SharedKernels)
                            : std::make_shared<KernelTable>()),
      DeviceIndex_(DeviceIndex) {
  for (unsigned K = 0; K < Config.NumEus; ++K)
    Eus.push_back(std::make_unique<Eu>(K, Config.ThreadsPerEu));
}

GmaDevice::~GmaDevice() = default;

uint32_t GmaDevice::registerKernel(KernelImage Image) {
  // Pre-decode once per registration (done inside the table): the
  // interpreter executes from the operand-resolved form instead of
  // re-deriving lane/register mappings and issue costs on every step.
  return Kernels->add(std::move(Image));
}

const KernelImage *GmaDevice::kernel(uint32_t KernelId) const {
  return Kernels->get(KernelId);
}

uint32_t GmaDevice::enqueueShred(ShredDescriptor Desc) {
  assert(kernel(Desc.KernelId) && "enqueue of unregistered kernel");
  Queue.push_back(std::move(Desc));
  return NextShredId + static_cast<uint32_t>(Queue.size()) - 1;
}

void GmaDevice::resetStats(bool RewindFaults) {
  Stats = GmaRunStats();
  SamplerFreeAt = 0;
  for (auto &E : Eus) {
    E->Time = 0;
    E->ShardInstructions = 0;
    E->ShardIssueCycles = 0;
    E->ShardFinishNs = 0;
    E->Offline = false; // a fresh run starts with a healed device
    // E->Quarantined survives: the circuit breaker, not the device,
    // decides when a misbehaving EU rejoins the rotation.
  }
  // Run setup rewinds the injector's per-site occurrence counters and
  // fired log so back-to-back jobs replay the same fault schedule. A
  // cluster's per-chunk resets skip the rewind: the injector is shared
  // across the fleet and rewound once per region by the scheduler.
  if (RewindFaults && Injector)
    Injector->reset();
}

bool GmaDevice::injectionArmed() const {
  return Injector && Injector->armed();
}

bool GmaDevice::anyOnlineEu() const {
  for (const auto &E : Eus)
    if (!E->Offline && !E->Quarantined)
      return true;
  return false;
}

void GmaDevice::setEuQuarantine(unsigned EuIdx, bool On) {
  assert(EuIdx < Eus.size() && "EU index out of range");
  Eus[EuIdx]->Quarantined = On;
}

bool GmaDevice::euQuarantined(unsigned EuIdx) const {
  assert(EuIdx < Eus.size() && "EU index out of range");
  return Eus[EuIdx]->Quarantined;
}

void GmaDevice::invalidateTlbs() { DeviceTlb.invalidateAll(); }

std::vector<uint32_t> GmaDevice::residentShreds() const {
  std::vector<uint32_t> Out;
  for (const auto &E : Eus)
    for (const Context &C : E->Contexts)
      if (C.St != Context::State::Idle)
        Out.push_back(C.ShredId);
  return Out;
}

ShredRegView *GmaDevice::shredRegs(uint32_t ShredId) {
  return findResident(ShredId);
}

GmaDevice::Context *GmaDevice::findResident(uint32_t ShredId) {
  for (auto &E : Eus)
    for (Context &C : E->Contexts)
      if (C.St != Context::State::Idle && C.ShredId == ShredId)
        return &C;
  return nullptr;
}

std::optional<uint32_t> GmaDevice::shredPc(uint32_t ShredId) const {
  for (const auto &E : Eus)
    for (const Context &C : E->Contexts)
      if (C.St != Context::State::Idle && C.ShredId == ShredId)
        return C.Pc;
  return std::nullopt;
}

std::optional<uint32_t> GmaDevice::shredKernel(uint32_t ShredId) const {
  for (const auto &E : Eus)
    for (const Context &C : E->Contexts)
      if (C.St != Context::State::Idle && C.ShredId == ShredId)
        return C.KernelId;
  return std::nullopt;
}

Expected<bool> GmaDevice::refillContext(Eu &E) {
  if (E.Offline || E.Quarantined || Queue.empty())
    return false;
  Context *Free = nullptr;
  for (Context &C : E.Contexts)
    if (C.St == Context::State::Idle) {
      Free = &C;
      break;
    }
  if (!Free)
    return false;

  ShredDescriptor Desc = std::move(Queue.front());
  Queue.pop_front();

  Context &C = *Free;
  std::memset(C.Regs, 0, sizeof(C.Regs));
  std::memset(C.Preds, 0, sizeof(C.Preds));
  std::memset(C.RegReady, 0, sizeof(C.RegReady));
  C.Pc = 0;
  // A re-dispatched shred keeps its id so xmit targets and the trace
  // still address the same logical shred.
  C.ShredId = Desc.FixedShredId ? Desc.FixedShredId : NextShredId++;
  C.KernelId = Desc.KernelId;
  C.Kern = kernel(Desc.KernelId);
  assert(C.Kern && "dispatching unregistered kernel");
  C.Dec = C.Kern->Decoded.get();
  C.Desc = std::move(Desc); // kept for fault re-dispatch
  C.Surfaces = C.Desc.Surfaces;
  C.St = Context::State::Running;
  // Firmware dispatch cost (descriptor -> hardware command translation).
  C.StallUntil = E.Time + Config.ShredDispatchNs;
  C.LoadedAtNs = E.Time;
  C.WaitSinceNs = 0;

  if (C.Desc.RecordVa != 0 && !C.Desc.Params.empty()) {
    // The continuation record lives in shared virtual memory (paper
    // Section 3.4): the firmware fetches it through the same translated
    // path as data, so descriptor pages take ATR misses like any other.
    uint64_t Bytes = C.Desc.Params.size() * 4;
    auto Done = accessMemoryAt(E.Time, C, C.Desc.RecordVa, Bytes,
                               /*IsWrite=*/false, mem::GpuMemType::Cached);
    if (!Done) {
      if (injectionArmed()) {
        // Survive an injected descriptor-fetch fault: send the shred back
        // through the re-dispatch ladder (bounded by MaxShredRedispatch,
        // then the IA32 host lane).
        if (Error Err = redispatchShred(E, C))
          return Err;
        return true;
      }
      return Error::make("shred descriptor fetch failed: " +
                         Done.message());
    }
    std::vector<uint8_t> Buf(Bytes);
    readSegments(Buf.data());
    for (size_t K = 0; K < C.Desc.Params.size() && K < NumVRegs; ++K)
      std::memcpy(&C.Regs[K], Buf.data() + K * 4, 4);
    C.StallUntil = std::max(C.StallUntil, *Done);
  } else {
    for (size_t K = 0; K < C.Desc.Params.size() && K < NumVRegs; ++K)
      C.Regs[K] = static_cast<uint32_t>(C.Desc.Params[K]);
  }

  // Deliver any cross-shred register writes sent before this shred ran:
  // one mailbox lookup per dispatch instead of one per register.
  if (!Mailbox.empty()) {
    auto It = Mailbox.find(C.ShredId);
    if (It != Mailbox.end()) {
      for (const auto &[R, V] : It->second) {
        C.Regs[R] = V;
        C.RegReady[R] = true;
      }
      Mailbox.erase(It);
    }
  }
  return true;
}

GmaDevice::Context *GmaDevice::pickReadyContext(Eu &E) {
  // Switch-on-stall: keep issuing from the last context while it is
  // ready; otherwise rotate to the next ready one.
  unsigned N = static_cast<unsigned>(E.Contexts.size());
  if (E.LastIssued >= 0) {
    Context &C = E.Contexts[static_cast<unsigned>(E.LastIssued)];
    if (C.St == Context::State::Running && C.StallUntil <= E.Time)
      return &C;
  }
  for (unsigned K = 1; K <= N; ++K) {
    unsigned Idx = (static_cast<unsigned>(E.LastIssued + 1) + K - 1) % N;
    Context &C = E.Contexts[Idx];
    if (C.St == Context::State::Running && C.StallUntil <= E.Time) {
      E.LastIssued = static_cast<int>(Idx);
      return &C;
    }
  }
  return nullptr;
}

Expected<TimeNs> GmaDevice::accessMemoryAt(TimeNs Now, Context &Ctx,
                                           mem::VirtAddr Va, uint64_t Bytes,
                                           bool IsWrite,
                                           mem::GpuMemType MemType) {
  AccessSegments.clear();
  ++Stats.MemoryOps;

  uint64_t Remaining = Bytes;
  mem::VirtAddr Cur = Va;
  while (Remaining > 0) {
    uint64_t Chunk = std::min(Remaining, mem::PageSize - mem::pageOffset(Cur));
    uint64_t Vpn = mem::pageNumber(Cur);

    mem::GpuPte Pte;
    if (std::optional<mem::GpuPte> Hit = DeviceTlb.lookup(Vpn)) {
      Pte = *Hit;
    } else {
      // ATR: suspend and signal the IA32 sequencer for proxy execution.
      ++Stats.TlbMisses;
      if (!Proxy)
        return Error::make("TLB miss with no proxy handler installed");
      ++Stats.ProxyCalls;
      auto Latency =
          Proxy->onTranslationMiss(Cur, IsWrite, MemType, DeviceTlb);
      if (Latency)
        Stats.ProxyStallNs += *Latency;
      if (!Latency)
        return Error::make(formatString(
            "shred %u: unserviceable fault at 0x%llx: %s", Ctx.ShredId,
            static_cast<unsigned long long>(Cur), Latency.message().c_str()));
      Now += *Latency;
      std::optional<mem::GpuPte> Filled = DeviceTlb.lookup(Vpn);
      if (!Filled)
        return Error::make("proxy handler did not install a TLB entry");
      Pte = *Filled;
    }
    if (IsWrite && !Pte.writable())
      return Error::make(formatString(
          "shred %u: write to read-only page 0x%llx", Ctx.ShredId,
          static_cast<unsigned long long>(Cur)));

    mem::PhysAddr Pa = (Pte.frame() << mem::PageShift) | mem::pageOffset(Cur);
    AccessSegments.push_back({Pa, Chunk});

    // Timing. Loads through the shared cache stall the issuing context
    // (hits briefly, misses for a DRAM round trip); stores drain through
    // write buffers and never stall — they only consume bus bandwidth,
    // which later loads contend with.
    const unsigned LineShift = Cache.lineShift();
    const uint64_t First = Pa >> LineShift, Last = (Pa + Chunk - 1) >> LineShift;
    if (IsWrite) {
      (void)Bus.request(Now, Chunk);
      if (Pte.memType() == mem::GpuMemType::Cached) {
        uint64_t Line = Config.CacheLineBytes;
        for (uint64_t L = First; L <= Last; ++L) {
          auto R = Cache.access(L << LineShift, /*IsWrite=*/true);
          if (R.Hit)
            ++Stats.CacheHits;
          if (R.WritebackVictim)
            (void)Bus.request(Now, Line);
        }
      }
    } else if (Pte.memType() == mem::GpuMemType::Cached) {
      uint64_t Line = Config.CacheLineBytes;
      TimeNs Done = Now;
      for (uint64_t L = First; L <= Last; ++L) {
        auto R = Cache.access(L << LineShift, /*IsWrite=*/false);
        if (R.Hit) {
          ++Stats.CacheHits;
          Done = std::max(Done, Now + Config.CacheHitNs);
        } else {
          ++Stats.CacheMisses;
          // Misses that continue a trained stride stream ride the
          // hardware prefetcher: DRAM latency is hidden, bandwidth paid.
          bool Streamed = Ctx.prefetchHit(L);
          Done = std::max(Done, Streamed ? Bus.requestStreamed(Now, Line)
                                         : Bus.request(Now, Line));
        }
        if (R.WritebackVictim)
          (void)Bus.request(Now, Line);
      }
      Now = Done;
    } else {
      Now = Bus.request(Now, Chunk);
    }

    Cur += Chunk;
    Remaining -= Chunk;
  }

  if (IsWrite)
    Stats.BytesStored += Bytes;
  else
    Stats.BytesLoaded += Bytes;
  return Now;
}

// A segment never crosses a page: accessMemoryAt cuts the span at every
// page boundary.
void GmaDevice::readSegments(uint8_t *Dst) const {
  for (auto &[Pa, N] : AccessSegments) {
    std::memcpy(Dst, PM.frameData(mem::pageNumber(Pa)) + mem::pageOffset(Pa),
                N);
    Dst += N;
  }
}

void GmaDevice::writeSegments(const uint8_t *Src) {
  for (auto &[Pa, N] : AccessSegments) {
    std::memcpy(PM.frameData(mem::pageNumber(Pa)) + mem::pageOffset(Pa), Src,
                N);
    Src += N;
  }
}

//===----------------------------------------------------------------------===//
// Instruction execution (advance phase: EU-local effects only)
//===----------------------------------------------------------------------===//

void GmaDevice::issueInstruction(Eu &E, Context &Ctx) {
  const std::vector<Instruction> &Code = Ctx.Kern->Code;

  // Buffers an op of kind \p K that resumes at \p NextPc, with the common
  // scheduling fields filled in; the caller fills in the rest.
  auto Defer = [&](PendingOp::Kind K, uint32_t NextPc) -> PendingOp & {
    PendingOp &Op = E.Pending.emplace_back();
    Op.K = K;
    Op.IssueNs = E.Time;
    Op.EuIdx = E.Index;
    Op.Slot = Ctx.Slot;
    Op.NextPc = NextPc;
    return Op;
  };

  // Running past the end of the kernel behaves as halt.
  if (Ctx.Pc >= Code.size()) {
    PendingOp &Op = Defer(PendingOp::Kind::Retire, Ctx.Pc);
    Op.EndNs = std::max(E.Time, Ctx.StallUntil);
    Ctx.St = Context::State::Blocked;
    return;
  }

  const Instruction &I = Code[Ctx.Pc];
  const isa::DecodedInsn &DI = Ctx.Dec->Insns[Ctx.Pc];
  ++E.ShardInstructions;
  E.ShardIssueCycles += DI.IssueCycles;
  E.Time += DI.IssueCycles * CycleNs;
  E.ShardFinishNs = std::max(E.ShardFinishNs, E.Time);

  uint32_t NextPc = Ctx.Pc + 1;

  // Defers a CEH exception for the proxy; the context parks until the
  // barrier, where the proxy call decides skip-or-terminate.
  auto RaiseException = [&](ExceptionKind Kind) {
    PendingOp &Op = Defer(PendingOp::Kind::Exception, NextPc);
    Op.Instr = &I;
    Op.Exc = Kind;
    Ctx.St = Context::State::Blocked;
  };

  switch (I.Op) {
  case Opcode::Nop:
    break;

  case Opcode::Halt: {
    PendingOp &Op = Defer(PendingOp::Kind::Retire, NextPc);
    Op.EndNs = std::max(E.Time, Ctx.StallUntil);
    Ctx.St = Context::State::Blocked;
    return;
  }

  case Opcode::Jmp:
    NextPc = static_cast<uint32_t>(I.Src0.Imm);
    break;

  case Opcode::Br: {
    bool Bit = (Ctx.Preds[I.PredReg] & 1) != 0; // lane 0
    if (I.PredNegate ? !Bit : Bit)
      NextPc = static_cast<uint32_t>(I.Src0.Imm);
    break;
  }

  case Opcode::Sid:
    Ctx.Regs[I.Dst.Reg0] = Ctx.ShredId;
    break;

  case Opcode::Spawn: {
    // Non-blocking: the child lands in the work queue at the barrier, in
    // issue-time order with every other spawn of the round.
    PendingOp &Op = Defer(PendingOp::Kind::Spawn, NextPc);
    Op.Value = static_cast<uint32_t>(scalarVal(DI.Src0, Ctx.Regs));
    break;
  }

  case Opcode::Xmit: {
    // Non-blocking: delivery happens at the barrier. A target blocked in
    // `wait` observes it there; a running target sees the register once
    // it next synchronizes (programs pair xmit with wait, as the paper's
    // inter-shred protocol does).
    PendingOp &Op = Defer(PendingOp::Kind::Xmit, NextPc);
    Op.Target = static_cast<uint32_t>(scalarVal(DI.Src0, Ctx.Regs));
    Op.Value = static_cast<uint32_t>(scalarVal(DI.Src1, Ctx.Regs));
    Op.Reg = I.Dst.Reg0;
    break;
  }

  case Opcode::Wait: {
    uint8_t Reg = I.Dst.Reg0;
    if (Ctx.RegReady[Reg]) {
      // Fast path: the value arrived at an earlier barrier (or at
      // dispatch); RegReady is EU-local during the advance phase.
      Ctx.RegReady[Reg] = false;
      break;
    }
    PendingOp &Op = Defer(PendingOp::Kind::Wait, NextPc);
    Op.Reg = Reg;
    Ctx.St = Context::State::Blocked;
    return;
  }

  case Opcode::Cmp: {
    if (I.Ty == ElemType::F64)
      return RaiseException(ExceptionKind::UnsupportedType);
    const uint32_t Mask = laneMask(I, Ctx.Preds);
    const LaneSrc A = laneSrc(DI.Src0, Ctx.Regs), B = laneSrc(DI.Src1, Ctx.Regs);
    uint32_t Bits = I.Ty == ElemType::F32
                        ? cmpLanes<float>(I.Cmp, A, B, Mask)
                        : cmpLanes<int64_t>(I.Cmp, A, B, Mask);
    uint16_t &P = Ctx.Preds[I.Dst.Reg0];
    P = static_cast<uint16_t>((P & ~Mask) | Bits);
    break;
  }

  case Opcode::Sel: {
    // The predicate picks each lane's source; it masks no lane.
    if (I.Ty == ElemType::F64)
      return RaiseException(ExceptionKind::UnsupportedType);
    const LaneSrc A = laneSrc(DI.Src0, Ctx.Regs), B = laneSrc(DI.Src1, Ctx.Regs);
    uint32_t *D = Ctx.Regs + DI.Dst.Reg0;
    const unsigned DS = DI.Dst.Stride, Sh = narrowShift(I.Ty);
    uint32_t Pick = Ctx.Preds[I.PredReg];
    if (I.PredNegate)
      Pick = ~Pick;
    for (unsigned L = 0; L < I.Width; ++L)
      D[L * DS] = static_cast<uint32_t>(
          narrow((Pick >> L) & 1 ? A.bits(L) : B.bits(L), Sh));
    break;
  }

  case Opcode::Cvt: {
    if (I.Ty == ElemType::F64 || I.SrcTy == ElemType::F64)
      return RaiseException(ExceptionKind::UnsupportedType);
    // Src0 was decoded in the source type.
    const LaneSrc S = laneSrc(DI.Src0, Ctx.Regs);
    uint32_t *D = Ctx.Regs + DI.Dst.Reg0;
    const unsigned DS = DI.Dst.Stride;
    const bool FromF32 = I.SrcTy == ElemType::F32;
    const unsigned SrcSh = narrowShift(I.SrcTy), Sh = narrowShift(I.Ty);
    // Narrow integer destinations saturate, as media ISAs do.
    double Lo, Hi;
    switch (I.Ty) {
    case ElemType::I8: Lo = -128; Hi = 127; break;
    case ElemType::I16: Lo = -32768; Hi = 32767; break;
    default: Lo = -2147483648.0; Hi = 2147483647.0; break;
    }
    for (uint32_t M = laneMask(I, Ctx.Preds); M; M &= M - 1) {
      unsigned L = static_cast<unsigned>(std::countr_zero(M));
      double V = FromF32 ? S.f(L) : narrow(S.i(L), SrcSh);
      if (I.Ty == ElemType::F32) {
        D[L * DS] = std::bit_cast<uint32_t>(static_cast<float>(V));
      } else {
        double Clamped = std::min(std::max(std::trunc(V), Lo), Hi);
        D[L * DS] =
            static_cast<uint32_t>(narrow(static_cast<int64_t>(Clamped), Sh));
      }
    }
    break;
  }

  case Opcode::Ld:
  case Opcode::St:
  case Opcode::LdBlk:
  case Opcode::StBlk: {
    if (!Ctx.Surfaces || I.Src0.Imm < 0 ||
        static_cast<size_t>(I.Src0.Imm) >= Ctx.Surfaces->size())
      return RaiseException(ExceptionKind::InvalidSurface);
    const SurfaceBinding &S = (*Ctx.Surfaces)[static_cast<size_t>(I.Src0.Imm)];
    bool Is2D = I.Op == Opcode::LdBlk || I.Op == Opcode::StBlk;

    // Bounds checks read only frozen context state, so they stay in the
    // advance phase; the timed + functional access is deferred.
    if (Is2D) {
      int64_t X = scalarVal(DI.Src1, Ctx.Regs),
              Y = scalarVal(DI.Src2, Ctx.Regs);
      if (X < 0 || Y < 0 || X + I.Width > S.Width ||
          Y >= static_cast<int64_t>(S.Height))
        return RaiseException(ExceptionKind::SurfaceBounds);
    } else {
      int64_t FirstElem =
          scalarVal(DI.Src1, Ctx.Regs) + scalarVal(DI.Src2, Ctx.Regs);
      if (FirstElem < 0 ||
          FirstElem + I.Width > static_cast<int64_t>(S.totalElements()))
        return RaiseException(ExceptionKind::SurfaceBounds);
    }

    PendingOp &Op = Defer(PendingOp::Kind::Memory, NextPc);
    Op.Instr = &I;
    Ctx.St = Context::State::Blocked;
    return;
  }

  case Opcode::Sample: {
    if (!Ctx.Surfaces || I.Src0.Imm < 0 ||
        static_cast<size_t>(I.Src0.Imm) >= Ctx.Surfaces->size())
      return RaiseException(ExceptionKind::InvalidSurface);
    const SurfaceBinding &S = (*Ctx.Surfaces)[static_cast<size_t>(I.Src0.Imm)];
    if (S.Width == 0 || S.Height == 0)
      return RaiseException(ExceptionKind::SurfaceBounds);

    PendingOp &Op = Defer(PendingOp::Kind::Sampler, NextPc);
    Op.Instr = &I;
    Ctx.St = Context::State::Blocked;
    return;
  }

  default: {
    // ALU operations: one lane loop per (opcode, int or F32).
    if (I.Ty == ElemType::F64)
      return RaiseException(ExceptionKind::UnsupportedType);
    const AluLanes X{Ctx.Regs + DI.Dst.Reg0, DI.Dst.Stride,
                     laneSrc(DI.Src0, Ctx.Regs), laneSrc(DI.Src1, Ctx.Regs),
                     laneMask(I, Ctx.Preds)};
    if (I.Ty != ElemType::F32) {
      if (!intAlu(I.Op, X, I.Ty))
        return RaiseException(ExceptionKind::DivideByZero);
    } else if (!f32Alu(I.Op, X) && X.Mask) {
      E.ShardError = formatString(
          "shred %u: %s is not defined for float operands", Ctx.ShredId,
          opcodeName(I.Op));
      return;
    }
    break;
  }
  }

  Ctx.Pc = NextPc;
}

//===----------------------------------------------------------------------===//
// Advance phase
//===----------------------------------------------------------------------===//

void GmaDevice::advanceEu(Eu &E, TimeNs Horizon) {
  while (true) {
    // Switch-on-stall: while the last-issued context is still ready, the
    // scan below would choose it at E.Time, so only a stall pays for it.
    Context *Ctx = E.LastIssued >= 0
                       ? &E.Contexts[static_cast<unsigned>(E.LastIssued)]
                       : nullptr;
    if (Ctx && Ctx->St == Context::State::Running &&
        Ctx->StallUntil <= E.Time) {
      if (E.Time > Horizon)
        return;
    } else {
      TimeNs T = std::numeric_limits<TimeNs>::infinity();
      for (Context &C : E.Contexts)
        if (C.St == Context::State::Running)
          T = std::min(T, std::max(E.Time, C.StallUntil));
      if (T > Horizon) // also covers "no runnable context" (T = inf)
        return;
      E.Time = T;
      Ctx = pickReadyContext(E);
      assert(Ctx && "EU advanced to a time with no ready context");
    }

    if (Hook_) {
      StepAction A = Hook_(Ctx->ShredId, Ctx->KernelId, Ctx->Pc);
      if (A == StepAction::Pause) {
        PauseRequested = true;
        return;
      }
    }

    issueInstruction(E, *Ctx);
    if (!E.ShardError.empty())
      return;
  }
}

//===----------------------------------------------------------------------===//
// Resolve phase
//===----------------------------------------------------------------------===//

Error GmaDevice::resolveLoadStore(Eu &E, Context &Ctx, const PendingOp &Op) {
  const Instruction &I = *Op.Instr;
  const isa::DecodedInsn &DI = Ctx.Dec->Insns[Op.Instr - Ctx.Kern->Code.data()];
  const SurfaceBinding &S = (*Ctx.Surfaces)[static_cast<size_t>(I.Src0.Imm)];
  unsigned Esz = elemTypeSize(I.Ty);
  bool IsWrite = I.Op == Opcode::St || I.Op == Opcode::StBlk;
  bool Is2D = I.Op == Opcode::LdBlk || I.Op == Opcode::StBlk;

  // First element index accessed by lane 0 (bounds were validated at
  // issue; the context's registers are frozen while it is blocked, so
  // this recomputation sees the same values).
  int64_t FirstElem;
  if (Is2D) {
    int64_t X = scalarVal(DI.Src1, Ctx.Regs), Y = scalarVal(DI.Src2, Ctx.Regs);
    FirstElem = Y * static_cast<int64_t>(S.Width) + X;
  } else {
    FirstElem = scalarVal(DI.Src1, Ctx.Regs) + scalarVal(DI.Src2, Ctx.Regs);
  }

  mem::VirtAddr Va = S.Base + static_cast<uint64_t>(FirstElem) * Esz;
  uint64_t Span = static_cast<uint64_t>(I.Width) * Esz;

  auto Done = accessMemoryAt(Op.IssueNs, Ctx, Va, Span, IsWrite, S.MemType);
  if (!Done)
    return Done.takeError();

  // Functional data movement over the access's physical segments. Lane L
  // of the data operand is Data[L * Stride] (and the next register for
  // F64); the buffer holds lane L at byte L * Esz.
  uint8_t Buf[MaxWidth * 8];
  assert(Span <= sizeof(Buf) && "access wider than 16 lanes of 8 bytes");
  uint32_t *Data = Ctx.Regs + DI.Dst.Reg0;
  const unsigned Stride = DI.Dst.Stride;
  const uint32_t Mask = laneMask(I, Ctx.Preds);

  // Every copy below has a fixed size, so none becomes a library call.
  if (IsWrite) {
    if (Mask != (1u << I.Width) - 1)
      readSegments(Buf); // read-modify-write under predication
    for (uint32_t M = Mask; M; M &= M - 1) {
      unsigned L = static_cast<unsigned>(std::countr_zero(M));
      const uint32_t *R = Data + L * Stride;
      uint8_t *P = Buf + L * Esz;
      // Store the low Esz bytes (two's complement truncation).
      switch (I.Ty) {
      case ElemType::I8: *P = static_cast<uint8_t>(*R); break;
      case ElemType::I16: {
        uint16_t H = static_cast<uint16_t>(*R);
        std::memcpy(P, &H, 2);
        break;
      }
      case ElemType::F64: {
        uint64_t Wide = R[0] | (static_cast<uint64_t>(R[1]) << 32);
        std::memcpy(P, &Wide, 8);
        break;
      }
      default: std::memcpy(P, R, 4); break;
      }
    }
    writeSegments(Buf);
  } else {
    readSegments(Buf);
    for (uint32_t M = Mask; M; M &= M - 1) {
      unsigned L = static_cast<unsigned>(std::countr_zero(M));
      uint32_t *R = Data + L * Stride;
      const uint8_t *P = Buf + L * Esz;
      // Narrow integers sign-extend into their register.
      switch (I.Ty) {
      case ElemType::I8:
        *R = static_cast<uint32_t>(static_cast<int8_t>(*P));
        break;
      case ElemType::I16: {
        int16_t H;
        std::memcpy(&H, P, 2);
        *R = static_cast<uint32_t>(H);
        break;
      }
      case ElemType::F64: {
        uint64_t Wide;
        std::memcpy(&Wide, P, 8);
        R[0] = static_cast<uint32_t>(Wide);
        R[1] = static_cast<uint32_t>(Wide >> 32);
        break;
      }
      default: std::memcpy(R, P, 4); break;
      }
    }
  }

  Ctx.StallUntil = *Done;
  Stats.FinishNs = std::max(Stats.FinishNs, Ctx.StallUntil);
  Ctx.Pc = Op.NextPc;
  Ctx.St = Context::State::Running;
  (void)E;
  return Error::success();
}

Error GmaDevice::resolveSample(Eu &E, Context &Ctx, const PendingOp &Op) {
  const Instruction &I = *Op.Instr;
  const isa::DecodedInsn &DI = Ctx.Dec->Insns[Op.Instr - Ctx.Kern->Code.data()];
  const SurfaceBinding &S = (*Ctx.Surfaces)[static_cast<size_t>(I.Src0.Imm)];
  ++Stats.SamplerOps;

  float U = laneSrc(DI.Src1, Ctx.Regs).f(0), V = laneSrc(DI.Src2, Ctx.Regs).f(0);
  // Clamp-to-edge addressing over a packed RGBA8 surface (one I32
  // element per pixel).
  auto Clamp = [](int X, int Hi) { return std::min(std::max(X, 0), Hi); };
  int W = static_cast<int>(S.Width), H = static_cast<int>(S.Height);
  float Uc = std::min(std::max(U, 0.0f), static_cast<float>(W - 1));
  float Vc = std::min(std::max(V, 0.0f), static_cast<float>(H - 1));
  int X0 = static_cast<int>(Uc), Y0 = static_cast<int>(Vc);
  int X1 = Clamp(X0 + 1, W - 1), Y1 = Clamp(Y0 + 1, H - 1);
  float Fx = Uc - static_cast<float>(X0), Fy = Vc - static_cast<float>(Y0);

  // Timed fetch of the 2x2 texel block (two row segments).
  uint32_t Texels[4] = {};
  TimeNs Done = Op.IssueNs;
  for (int Row = 0; Row < 2; ++Row) {
    int Y = Row == 0 ? Y0 : Y1;
    mem::VirtAddr Va =
        S.Base + (static_cast<uint64_t>(Y) * S.Width + X0) * 4;
    uint64_t Span = X1 > X0 ? 8 : 4;
    auto RowDone =
        accessMemoryAt(Op.IssueNs, Ctx, Va, Span, /*IsWrite=*/false,
                       S.MemType);
    if (!RowDone)
      return RowDone.takeError();
    Done = std::max(Done, *RowDone);
    uint8_t Tmp[8] = {};
    readSegments(Tmp);
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
    Ctx.Regs[I.Dst.Reg0 + Ch] = Bits;
  }

  // The sampler is shared fixed-function hardware: requests serialize
  // at its throughput before the pipeline latency.
  TimeNs SampleSlot = std::max(Done, SamplerFreeAt);
  SamplerFreeAt = SampleSlot + 1.0 / Config.SamplerThroughputPerNs;
  Ctx.StallUntil = SampleSlot + Config.SamplerLatencyNs;
  Stats.FinishNs = std::max(Stats.FinishNs, Ctx.StallUntil);
  Ctx.Pc = Op.NextPc;
  Ctx.St = Context::State::Running;
  (void)E;
  return Error::success();
}

//===----------------------------------------------------------------------===//
// FaultLab degradation ladder (refill/resolve phases only)
//===----------------------------------------------------------------------===//

Error GmaDevice::hostRedispatch(ShredDescriptor Desc, uint32_t ShredId,
                                TimeNs Now) {
  const KernelImage *K = kernel(Desc.KernelId);
  if (!K)
    return Error::make(formatString(
        "shred %u: orphaned with unregistered kernel %u", ShredId,
        Desc.KernelId));
  if (!Proxy)
    return Error::make(formatString(
        "shred %u: orphaned with no proxy handler installed", ShredId));

  OrphanShred O;
  O.ShredId = ShredId;
  O.KernelId = Desc.KernelId;
  O.Kernel = K;
  O.Params = std::move(Desc.Params);
  O.Surfaces = std::move(Desc.Surfaces);
  O.RecordVa = Desc.RecordVa;

  ++Stats.ProxyCalls;
  auto Latency = Proxy->onShredOrphaned(O);
  if (!Latency)
    return Error::make(formatString(
        "shred %u: EU re-dispatch exhausted and IA32 host lane failed: %s",
        ShredId, Latency.message().c_str()));
  ++Stats.HostRedispatches;
  ++Stats.ShredsExecuted;
  Stats.ProxyStallNs += *Latency;
  Stats.FinishNs = std::max(Stats.FinishNs, Now + *Latency);
  return Error::success();
}

Error GmaDevice::redispatchShred(Eu &E, Context &Ctx) {
  ShredDescriptor Desc = Ctx.Desc;
  Desc.FixedShredId = Ctx.ShredId;
  Desc.Redispatches = static_cast<uint8_t>(Ctx.Desc.Redispatches + 1);
  Ctx.St = Context::State::Idle;
  // Once the retry budget is spent (or no EU survives to retry on), the
  // shred falls through to the last rung: functional execution on the
  // IA32 core through the proxy's host lane.
  if (Desc.Redispatches > Config.MaxShredRedispatch || !anyOnlineEu())
    return hostRedispatch(std::move(Desc), Ctx.ShredId, E.Time);
  ++Stats.ShredsRedispatched;
  Queue.push_back(std::move(Desc));
  return Error::success();
}

Error GmaDevice::offlineEu(Eu &E) {
  E.Offline = true;
  ++Stats.EusOfflined;
  Stats.OfflinedEus.push_back(E.Index);
  for (Context &C : E.Contexts)
    if (C.St != Context::State::Idle)
      if (Error Err = redispatchShred(E, C))
        return Err;
  return Error::success();
}

Error GmaDevice::resolveOne(const PendingOp &Op) {
  Eu &E = *Eus[Op.EuIdx];
  Context &Ctx = E.Contexts[Op.Slot];

  // A hard-failed EU drops its already-buffered ops — in-flight signals
  // from wedged hardware are simply lost. Its resident shreds were
  // re-dispatched when the EU went offline, so nothing dangles.
  if (E.Offline)
    return Error::success();

  // EuHardFail probe: a blocking shared-resource interaction is where a
  // wedged EU manifests. Keyed by the cluster-wide EU index (device ×
  // NumEus + EU) so a given EU fails at the same (deterministic)
  // occurrence in every run with the same seed, and distinct devices in a
  // cluster draw from distinct fault sites. Device 0 keys are unchanged
  // from the single-device scheme.
  if (injectionArmed() &&
      (Op.K == PendingOp::Kind::Memory || Op.K == PendingOp::Kind::Sampler ||
       Op.K == PendingOp::Kind::Exception) &&
      Injector->shouldInject(fault::FaultKind::EuHardFail,
                             DeviceIndex_ * Config.NumEus + E.Index)) {
    ++Stats.FaultsInjected;
    return offlineEu(E);
  }

  switch (Op.K) {
  case PendingOp::Kind::Memory: {
    Error Err = resolveLoadStore(E, Ctx, Op);
    // Under injection, a failed access is survivable: restart the shred
    // from its descriptor (functional writes only happen after the whole
    // access translates, so no partial mutation escaped).
    if (Err && injectionArmed())
      return redispatchShred(E, Ctx);
    return Err;
  }

  case PendingOp::Kind::Sampler: {
    Error Err = resolveSample(E, Ctx, Op);
    if (Err && injectionArmed())
      return redispatchShred(E, Ctx);
    return Err;
  }

  case PendingOp::Kind::Exception: {
    if (!Proxy)
      return Error::make(formatString(
          "shred %u: %s exception with no proxy handler", Ctx.ShredId,
          exceptionKindName(Op.Exc)));
    ExceptionInfo Info;
    Info.Kind = Op.Exc;
    Info.ShredId = Ctx.ShredId;
    Info.KernelId = Ctx.KernelId;
    Info.Pc = Ctx.Pc;
    Info.Instr = *Op.Instr;
    ++Stats.ProxyCalls;
    auto Latency = Proxy->onException(Info, Ctx);
    if (!Latency) {
      // Under injection a CEH failure (e.g. exhausted handler timeouts)
      // degrades to a shred restart instead of killing the run.
      if (injectionArmed())
        return redispatchShred(E, Ctx);
      return Error::make(formatString(
          "shred %u pc %u: unhandled %s exception: %s", Ctx.ShredId, Ctx.Pc,
          exceptionKindName(Op.Exc), Latency.message().c_str()));
    }
    ++Stats.ExceptionsHandled;
    Ctx.StallUntil = Op.IssueNs + *Latency;
    Stats.FinishNs = std::max(Stats.FinishNs, Ctx.StallUntil);
    Ctx.Pc = Op.NextPc;
    Ctx.St = Context::State::Running;
    return Error::success();
  }

  case PendingOp::Kind::Xmit: {
    unsigned Deliveries = 1;
    if (injectionArmed()) {
      // MISP signal faults, keyed by (target shred, register) so the same
      // logical signal is dropped/duplicated in every run with the seed.
      uint64_t SigKey = (static_cast<uint64_t>(Op.Target) << 8) | Op.Reg;
      if (Injector->shouldInject(fault::FaultKind::MailboxDrop, SigKey)) {
        ++Stats.FaultsInjected;
        ++Stats.MailboxDropped;
        return Error::success(); // signal lost; the waiter's timeout names it
      }
      if (Injector->shouldInject(fault::FaultKind::MailboxDup, SigKey)) {
        ++Stats.FaultsInjected;
        ++Stats.MailboxDuplicated;
        Deliveries = 2; // register writes are idempotent; must be benign
      }
    }
    for (unsigned D = 0; D < Deliveries; ++D) {
      if (Context *Remote = findResident(Op.Target)) {
        Remote->Regs[Op.Reg] = Op.Value;
        Remote->RegReady[Op.Reg] = true;
        if (Remote->St == Context::State::Waiting &&
            Remote->WaitReg == Op.Reg) {
          Remote->St = Context::State::Running;
          Remote->StallUntil = std::max(Remote->StallUntil, Op.IssueNs);
          Remote->RegReady[Op.Reg] = false; // the pending wait consumes it
        }
      } else {
        auto &Box = Mailbox[Op.Target];
        bool Replaced = false;
        for (auto &P : Box)
          if (P.first == Op.Reg) {
            P.second = Op.Value;
            Replaced = true;
            break;
          }
        if (!Replaced)
          Box.emplace_back(Op.Reg, Op.Value);
      }
    }
    return Error::success();
  }

  case PendingOp::Kind::Wait: {
    if (Ctx.RegReady[Op.Reg]) {
      // An xmit resolved earlier (in issue-time order) this round.
      Ctx.RegReady[Op.Reg] = false;
      Ctx.StallUntil = std::max(Ctx.StallUntil, Op.IssueNs);
      Ctx.St = Context::State::Running;
    } else {
      Ctx.WaitReg = Op.Reg;
      Ctx.WaitSinceNs = Op.IssueNs;
      Ctx.St = Context::State::Waiting;
    }
    Ctx.Pc = Op.NextPc; // resume after the wait once signalled
    return Error::success();
  }

  case PendingOp::Kind::Spawn: {
    // The spawning shred is still resident in Ctx: a context changes
    // shred only at refill, after every op of the round has resolved.
    ShredDescriptor Child;
    Child.KernelId = Ctx.KernelId;
    Child.Surfaces = Ctx.Surfaces;
    Child.Params.push_back(static_cast<int32_t>(Op.Value));
    Queue.push_back(std::move(Child));
    return Error::success();
  }

  case PendingOp::Kind::Retire: {
    Ctx.St = Context::State::Idle;
    ++Stats.ShredsExecuted;
    if (Tracer) {
      ShredSpan Span;
      Span.Device = DeviceIndex_;
      Span.Eu = E.Index;
      Span.Slot = Ctx.Slot;
      Span.ShredId = Ctx.ShredId;
      Span.Kernel = Ctx.Kern ? Ctx.Kern->Name : "";
      Span.StartNs = Ctx.LoadedAtNs;
      Span.EndNs = Op.EndNs;
      Tracer->record(std::move(Span));
    }
    return Error::success();
  }
  }
  exochiUnreachable("bad PendingOp kind");
}

Error GmaDevice::resolvePending() {
  // The arbitration rule: earlier issue first; EU index, then per-EU
  // issue order break ties. This depends only on the simulated schedule.
  // Each EU's buffer is already in issue order with non-decreasing issue
  // times (its clock only moves forward), so merging the buffers by
  // (issue time, EU index) gives that order.
  auto Before = [](const ResolveCursor &A, const ResolveCursor &B) {
    return A.Head < B.Head || (A.Head == B.Head && A.Eu < B.Eu);
  };
  // One cursor per EU with buffered ops, kept in merge order: sorted by
  // the issue time of the EU's next op, then by EU index.
  std::vector<ResolveCursor> &Order = Cursors;
  Order.clear();
  for (uint32_t K = 0; K < Eus.size(); ++K) {
    const std::vector<PendingOp> &Ops = Eus[K]->Pending;
    if (Ops.empty())
      continue;
    ResolveCursor C{Ops.front().IssueNs, K, 0};
    Order.push_back(C);
    size_t P = Order.size() - 1;
    for (; P > 0 && Before(C, Order[P - 1]); --P)
      Order[P] = Order[P - 1];
    Order[P] = C;
  }

  Error Err = Error::success();
  size_t Front = 0;
  while (!Err && Front < Order.size()) {
    // Resolve the first EU's ops while they come before the second EU's
    // next one.
    ResolveCursor C = Order[Front];
    const std::vector<PendingOp> &Ops = Eus[C.Eu]->Pending;
    const bool Alone = Front + 1 == Order.size();
    do {
      Err = resolveOne(Ops[C.Next++]);
      if (C.Next < Ops.size())
        C.Head = Ops[C.Next].IssueNs;
    } while (!Err && C.Next < Ops.size() &&
             (Alone || Before(C, Order[Front + 1])));
    if (C.Next == Ops.size()) {
      ++Front;
      continue;
    }
    // Move the EU back behind the ones whose next op now comes first.
    size_t P = Front;
    for (; P + 1 < Order.size() && Before(Order[P + 1], C); ++P)
      Order[P] = Order[P + 1];
    Order[P] = C;
  }
  for (auto &E : Eus)
    E->Pending.clear();
  return Err;
}

void GmaDevice::preemptAll(TimeNs Now) {
  for (auto &E : Eus) {
    assert(E->Pending.empty() && "preemption with buffered ops in flight");
    for (Context &C : E->Contexts) {
      if (C.St == Context::State::Idle)
        continue;
      ++Stats.ShredsPreempted;
      if (Tracer) {
        ShredSpan Span;
        Span.Device = DeviceIndex_;
        Span.Eu = E->Index;
        Span.Slot = C.Slot;
        Span.ShredId = C.ShredId;
        Span.Kernel = C.Kern ? C.Kern->Name : "";
        Span.StartNs = C.LoadedAtNs;
        Span.EndNs = Now;
        Tracer->record(std::move(Span));
      }
      C.St = Context::State::Idle;
    }
  }
  Stats.ShredsPreempted += Queue.size();
  Queue.clear();
  Stats.FinishNs = std::max(Stats.FinishNs, Now);
}

void GmaDevice::mergeStatShards() {
  for (auto &E : Eus) {
    Stats.Instructions += E->ShardInstructions;
    Stats.IssueCycles += E->ShardIssueCycles;
    Stats.FinishNs = std::max(Stats.FinishNs, E->ShardFinishNs);
    E->ShardInstructions = 0;
    E->ShardIssueCycles = 0;
    E->ShardFinishNs = 0;
  }
}

//===----------------------------------------------------------------------===//
// Run loop
//===----------------------------------------------------------------------===//

Expected<RunExit> GmaDevice::run(TimeNs StartNs) {
  Stats.StartNs = StartNs;
  Stats.FinishNs = StartNs;
  for (auto &E : Eus)
    E->Time = StartNs;
  PausedFlag = false;
  return resume();
}

Expected<RunExit> GmaDevice::resume() {
  PausedFlag = false;

  // Normally a no-op: every round resolves its own ops, and a pause
  // resolves before returning. Drains stale ops after an error exit.
  if (Error Err = resolvePending()) {
    mergeStatShards();
    return Err;
  }

  while (true) {
    // Phase 1: dispatch queued shreds into idle contexts.
    for (auto &E : Eus) {
      while (true) {
        auto Refilled = refillContext(*E);
        if (!Refilled) {
          mergeStatShards();
          return Refilled.takeError();
        }
        if (!*Refilled)
          break;
      }
    }

    // Next-event horizon and termination detection.
    TimeNs NextT = std::numeric_limits<TimeNs>::infinity();
    bool AnyResident = false, AnyWaiting = false;
    for (auto &E : Eus) {
      for (Context &C : E->Contexts) {
        if (C.St == Context::State::Idle)
          continue;
        AnyResident = true;
        if (C.St == Context::State::Waiting) {
          AnyWaiting = true;
          continue;
        }
        NextT = std::min(NextT, std::max(E->Time, C.StallUntil));
      }
    }

    // ExoServe watchdog: the deadline budget is enforced here, at the
    // epoch boundary where no buffered op is in flight. The next event
    // time is part of the canonical schedule, so the decision is
    // deterministic. NextT == infinity (every resident shred blocked in
    // `wait`) also trips the deadline: an overrunning deadlocked job
    // becomes a bounded preemption instead of an error. The
    // all-EUs-failed host-drain fallback below is exempt
    // (anyOnlineEu() false): its functional completion is the last rung
    // of the degradation ladder, not device time.
    if (DeadlineNs > 0 && NextT > DeadlineNs &&
        (AnyResident || (!Queue.empty() && anyOnlineEu()))) {
      preemptAll(DeadlineNs);
      mergeStatShards();
      return RunExit::DeadlinePreempted;
    }

    // Per-`wait` timeout: a shred starved of its xmit signal (e.g. a
    // dropped MISP mailbox message) becomes a bounded, diagnosed error
    // instead of an eventual silent hang. Compared against the next
    // event time so the check is part of the deterministic schedule.
    if (Config.WaitTimeoutNs > 0 && AnyWaiting &&
        NextT != std::numeric_limits<TimeNs>::infinity()) {
      for (auto &E : Eus)
        for (Context &C : E->Contexts)
          if (C.St == Context::State::Waiting &&
              NextT - C.WaitSinceNs > Config.WaitTimeoutNs) {
            mergeStatShards();
            return Error::make(formatString(
                "shred %u: `wait vr%u` timed out after %.0f ns blocked "
                "(signal lost or sender failed)",
                C.ShredId, static_cast<unsigned>(C.WaitReg),
                NextT - C.WaitSinceNs));
          }
    }

    if (NextT == std::numeric_limits<TimeNs>::infinity()) {
      // Every EU hard-failed with work still queued: drain the queue
      // through the IA32 host lane (degradation ladder, last rung).
      if (!AnyResident && !Queue.empty() && !anyOnlineEu()) {
        while (!Queue.empty()) {
          ShredDescriptor Desc = std::move(Queue.front());
          Queue.pop_front();
          uint32_t Id =
              Desc.FixedShredId ? Desc.FixedShredId : NextShredId++;
          if (Error Err = hostRedispatch(std::move(Desc), Id, Stats.FinishNs)) {
            mergeStatShards();
            return Err;
          }
        }
      }
      mergeStatShards();
      if (!AnyResident && Queue.empty())
        return RunExit::QueueDrained;
      if (AnyWaiting) {
        // Name the stuck shreds: "deadlock" alone sends the user to the
        // debugger; the register list usually identifies the protocol bug.
        std::string Who;
        for (auto &E : Eus)
          for (Context &C : E->Contexts)
            if (C.St == Context::State::Waiting) {
              if (!Who.empty())
                Who += ", ";
              Who += formatString("shred %u on vr%u", C.ShredId,
                                  static_cast<unsigned>(C.WaitReg));
            }
        return Error::make(
            "deadlock: every resident shred is blocked in `wait` and the "
            "work queue cannot make progress (" +
            Who + ")");
      }
      // Resident contexts exist but none runnable and none waiting —
      // impossible by construction.
      exochiUnreachable("GMA run loop stuck with no runnable context");
    }

    // Phase 2: advance every EU to the horizon, in index order.
    TimeNs Horizon = NextT + Config.SimHorizonNs;
    PauseRequested = false;
    for (auto &E : Eus) {
      advanceEu(*E, Horizon);
      if (PauseRequested)
        break;
    }

    // Advance-phase errors surface in EU-index order.
    for (auto &E : Eus) {
      if (!E->ShardError.empty()) {
        std::string Msg = std::move(E->ShardError);
        E->ShardError.clear();
        mergeStatShards();
        return Error::make(std::move(Msg));
      }
    }

    // Phase 3: resolve all buffered shared-resource ops.
    if (Error Err = resolvePending()) {
      mergeStatShards();
      return Err;
    }

    if (PauseRequested) {
      // The resolve above already applied everything issued before the
      // pause, so debuggers see a machine with no in-flight operations.
      PausedFlag = true;
      mergeStatShards();
      return RunExit::Paused;
    }
  }
}
