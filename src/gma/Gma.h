//===- gma/Gma.h - GMA X3000-class device model: common types --------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Common types of the simulated GMA-class accelerator (paper Section 3.4
/// and Figure 3): surface bindings, shred descriptors, device
/// configuration, run statistics, and the proxy-signal interface through
/// which the device raises ATR translation misses and CEH exceptions to
/// the OS-managed IA32 sequencer.
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_GMA_GMA_H
#define EXOCHI_GMA_GMA_H

#include "isa/Isa.h"
#include "mem/MemoryBus.h"
#include "mem/PageTable.h"
#include "mem/PhysicalMemory.h"
#include "mem/Tlb.h"
#include "support/Error.h"
#include "support/Json.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace exochi {
namespace gma {

using mem::TimeNs;

/// Which execution backend ran (or should run) a dispatch. The cycle
/// backend is the cycle-level GmaDevice interpreter — the semantics
/// reference; the fast backend is the XJIT host-native functional lane
/// (src/xjit), selectable per run via chi::Feature::Backend. Surface
/// outputs are bit-identical between the two; timing/occupancy
/// statistics are backend-specific.
enum class BackendKind : uint8_t {
  Cycle, ///< cycle-level interpreter (the differential oracle)
  Fast,  ///< XJIT host-native functional lane
};

/// Returns "cycle" or "fast".
const char *backendName(BackendKind K);

/// Parses a backend name ("cycle" / "fast"); nullopt for anything else.
std::optional<BackendKind> parseBackendName(std::string_view Name);

/// How a surface may be accessed by shreds (paper Table 1: descriptors are
/// allocated with an input/output mode).
enum class SurfaceMode : uint8_t {
  Input,
  Output,
  InputOutput,
};

/// A surface: the accelerator's 2-D view of a region of shared virtual
/// memory (paper Section 4.4). Configured by the CHI runtime from the
/// descriptors the programmer allocates with chi_alloc_desc.
struct SurfaceBinding {
  mem::VirtAddr Base = 0;
  uint32_t Width = 0;  ///< Elements per row.
  uint32_t Height = 1; ///< Rows.
  isa::ElemType Elem = isa::ElemType::I32;
  SurfaceMode Mode = SurfaceMode::InputOutput;
  mem::GpuMemType MemType = mem::GpuMemType::Cached;

  uint64_t totalElements() const {
    return static_cast<uint64_t>(Width) * Height;
  }
  uint64_t totalBytes() const {
    return totalElements() * isa::elemTypeSize(Elem);
  }
};

/// The surface table shared by every shred of one parallel dispatch.
using SurfaceTable = std::vector<SurfaceBinding>;

/// A shred continuation: what the emulation firmware translates into
/// hardware commands (paper Section 3.4: "a shred descriptor, which
/// includes shred continuation information like instruction and data
/// pointers to the shared memory").
struct ShredDescriptor {
  uint32_t KernelId = 0;
  /// Scalar parameters preloaded into vr0.. in order (private /
  /// firstprivate clause values).
  std::vector<int32_t> Params;
  /// Surfaces visible to the shred (shared clause variables).
  std::shared_ptr<const SurfaceTable> Surfaces;
  /// When nonzero, the authoritative copy of Params lives at this shared
  /// virtual address (Params.size() little-endian i32 words): the work
  /// queue's continuation records are in shared virtual memory as in the
  /// paper, and the firmware fetches them through ATR-translated reads at
  /// dispatch. Params then only conveys the record length.
  mem::VirtAddr RecordVa = 0;
  /// When nonzero, dispatch reuses this shred id instead of allocating a
  /// fresh one. Set by the FaultLab degradation ladder when a shred is
  /// re-queued after an EU failure, so xmit targets and traces keep
  /// addressing the same logical shred.
  uint32_t FixedShredId = 0;
  /// How many times this shred has been re-dispatched after a fault.
  /// Restart-from-descriptor assumes idempotent kernels (each attempt
  /// recomputes the same outputs); GmaConfig::MaxShredRedispatch bounds
  /// the retries before the IA32 host lane takes over.
  uint8_t Redispatches = 0;
};

/// Device geometry and first-order timing parameters. Defaults model the
/// GMA X3000: 8 EUs x 4 hardware threads at 667 MHz.
struct GmaConfig {
  unsigned NumEus = 8;
  unsigned ThreadsPerEu = 4;
  double ClockGhz = 0.667;
  unsigned TlbEntriesPerEu = 32;
  uint64_t CacheBytes = 128 * 1024;
  uint64_t CacheLineBytes = 64;
  unsigned CacheWays = 8;
  /// Shared-cache hit latency as seen by a shred (the cache pipeline is
  /// effectively hidden beyond a few cycles by switch-on-stall issue).
  TimeNs CacheHitNs = 6.0;
  TimeNs SamplerLatencyNs = 90.0; ///< Fixed-function sampler pipeline.
  /// Shared sampler throughput (samples per ns across the whole device):
  /// the exo-sequencers "share access to specialized, fixed function
  /// hardware" (paper Section 3.4), so sampler-heavy kernels serialize
  /// behind it.
  double SamplerThroughputPerNs = 0.667; // 1 sample per device cycle
  /// Firmware cost of translating a shred descriptor into hardware
  /// commands and loading a thread context (paper Section 3.4).
  TimeNs ShredDispatchNs = 60.0;

  /// Epoch length: each simulation round advances every EU to
  /// (earliest pending event + SimHorizonNs) before the shared-resource
  /// barrier. Part of the deterministic schedule, so changing it changes
  /// arbitration outcomes (see DESIGN.md, "Epoch schedule").
  TimeNs SimHorizonNs = 400.0;

  /// A shred blocked in `wait` longer than this (simulated time) fails
  /// the run with a diagnosed timeout instead of deadlocking silently
  /// (FaultLab: a dropped MISP signal becomes a bounded, named error).
  /// 0 disables the timeout. The default is far above any legitimate
  /// wait in the modelled workloads.
  TimeNs WaitTimeoutNs = 1e9;
  /// Times a faulted shred may be re-queued onto surviving EUs before
  /// the last-resort IA32 host lane runs it (degradation ladder step 3).
  unsigned MaxShredRedispatch = 3;

  /// Cycle period in nanoseconds.
  TimeNs cycleNs() const { return 1.0 / ClockGhz; }

  unsigned totalContexts() const { return NumEus * ThreadsPerEu; }
};

/// Exception kinds a shred can raise (the CEH cases of Section 3.3).
enum class ExceptionKind : uint8_t {
  UnsupportedType,  ///< e.g. double-precision vector instruction.
  DivideByZero,     ///< integer division by zero.
  SurfaceBounds,    ///< access outside a bound surface.
  InvalidSurface,   ///< surface slot not bound.
};

/// Returns a human-readable name for \p K.
const char *exceptionKindName(ExceptionKind K);

/// Everything a CEH handler needs to emulate a faulting instruction.
struct ExceptionInfo {
  ExceptionKind Kind = ExceptionKind::UnsupportedType;
  uint32_t ShredId = 0;
  uint32_t KernelId = 0;
  uint32_t Pc = 0;
  isa::Instruction Instr;
};

struct KernelImage;

/// Register-file view handed to CEH handlers so the IA32 proxy can read
/// faulting operands and write emulated results back into the
/// exo-sequencer (paper: "CEH ensures the result is updated in the
/// exo-sequencer before resuming execution").
class ShredRegView {
public:
  virtual ~ShredRegView();
  virtual uint32_t readReg(unsigned Reg) const = 0;
  virtual void writeReg(unsigned Reg, uint32_t Value) = 0;
  virtual bool readPredLane(unsigned PredReg, unsigned Lane) const = 0;
  virtual void writePredLane(unsigned PredReg, unsigned Lane, bool Set) = 0;
};

/// A shred the device can no longer run (its EU failed and either no EU
/// survives or the re-dispatch budget is spent): everything the IA32
/// host lane needs to execute it functionally instead.
struct OrphanShred {
  uint32_t ShredId = 0;
  uint32_t KernelId = 0;
  /// The registered kernel, code and decoded form (owned by the kernel
  /// table; valid for the call).
  const KernelImage *Kernel = nullptr;
  std::vector<int32_t> Params;
  std::shared_ptr<const SurfaceTable> Surfaces;
  mem::VirtAddr RecordVa = 0; ///< authoritative params, when nonzero
};

/// The MISP exoskeleton signalling interface: the device raises
/// user-level interrupts to the OS-managed sequencer through this, and
/// the exo layer (src/exo) implements proxy execution behind it.
class ProxySignalHandler {
public:
  virtual ~ProxySignalHandler();

  /// ATR: the exo-sequencer's TLB missed for the page containing \p Va.
  /// The proxy must service the fault and insert a GPU-format entry into
  /// \p Tlb. Returns the proxy latency in nanoseconds, or an error when
  /// the fault is unserviceable (the shred then terminates).
  virtual Expected<TimeNs> onTranslationMiss(mem::VirtAddr Va, bool IsWrite,
                                             mem::GpuMemType MemType,
                                             mem::Tlb &Tlb) = 0;

  /// CEH: instruction \p Info faulted. The proxy may emulate it through
  /// \p Regs. Returns the handling latency (the instruction is then
  /// skipped), or an error to terminate the shred.
  virtual Expected<TimeNs> onException(const ExceptionInfo &Info,
                                       ShredRegView &Regs) = 0;

  /// Last resort of the FaultLab degradation ladder: run orphan \p O on
  /// the IA32 core (the paper's Fig. 10 cooperative machinery as a
  /// failover lane). Returns the host execution latency, or an error when
  /// no host lane exists (the default) or the shred cannot run there.
  virtual Expected<TimeNs> onShredOrphaned(const OrphanShred &O);
};

/// Aggregate statistics of one device run.
struct GmaRunStats {
  /// Which backend executed the run (cycle interpreter or XJIT fast
  /// lane). Functional counters mean the same thing on both; timing
  /// fields are cycle-accurate only on the cycle backend (the fast lane
  /// reports a deterministic issue-cycle estimate).
  BackendKind Backend = BackendKind::Cycle;
  TimeNs StartNs = 0;
  TimeNs FinishNs = 0;
  uint64_t ShredsExecuted = 0;
  uint64_t Instructions = 0;
  uint64_t MemoryOps = 0;
  uint64_t BytesLoaded = 0;
  uint64_t BytesStored = 0;
  uint64_t TlbMisses = 0;
  uint64_t ProxyCalls = 0;
  uint64_t ExceptionsHandled = 0;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t SamplerOps = 0;
  double IssueCycles = 0; ///< total EU issue cycles charged
  TimeNs ProxyStallNs = 0; ///< context-stall time due to ATR/CEH proxies

  // FaultLab resilience counters (all zero when injection is disarmed).
  uint64_t FaultsInjected = 0;     ///< injector decisions taken at device sites
  uint64_t EusOfflined = 0;        ///< EUs removed after a hard-fail
  uint64_t ShredsRedispatched = 0; ///< shreds re-queued onto surviving EUs
  uint64_t HostRedispatches = 0;   ///< orphans executed on the IA32 lane
  uint64_t MailboxDropped = 0;     ///< xmit signals lost by injection
  uint64_t MailboxDuplicated = 0;  ///< xmit signals delivered twice

  // ExoServe counters.
  /// Shreds cancelled (resident or still queued) when the run hit its
  /// deadline budget and exited with RunExit::DeadlinePreempted.
  uint64_t ShredsPreempted = 0;
  /// EU indices offlined by hard-fails this run, in offline order (a
  /// serial-phase event, so the order is part of the deterministic
  /// schedule). The ExoServe circuit breaker consumes this as its
  /// per-EU failure signal.
  std::vector<unsigned> OfflinedEus;

  /// Field-wise equality: the determinism contract (DESIGN.md §9)
  /// promises bit-identical stats for every replay of a run.
  bool operator==(const GmaRunStats &) const = default;

  TimeNs elapsedNs() const { return FinishNs - StartNs; }

  static constexpr auto jsonFields() {
    using S = GmaRunStats;
    return json::fields(
        "backend", [](const S &R) { return backendName(R.Backend); },
        "start_ns", &S::StartNs, "finish_ns", &S::FinishNs,
        "shreds", &S::ShredsExecuted, "instructions", &S::Instructions,
        "memory_ops", &S::MemoryOps, "bytes_loaded", &S::BytesLoaded,
        "bytes_stored", &S::BytesStored, "tlb_misses", &S::TlbMisses,
        "proxy_calls", &S::ProxyCalls,
        "exceptions_handled", &S::ExceptionsHandled,
        "cache_hits", &S::CacheHits, "cache_misses", &S::CacheMisses,
        "sampler_ops", &S::SamplerOps, "issue_cycles", &S::IssueCycles,
        "proxy_stall_ns", &S::ProxyStallNs,
        "faults_injected", &S::FaultsInjected, "eus_offlined", &S::EusOfflined,
        "shreds_redispatched", &S::ShredsRedispatched,
        "host_redispatches", &S::HostRedispatches,
        "mailbox_dropped", &S::MailboxDropped,
        "mailbox_duplicated", &S::MailboxDuplicated,
        "shreds_preempted", &S::ShredsPreempted,
        "offlined_eus", &S::OfflinedEus);
  }
};

/// One-line JSON rendering of \p S (machine-readable device stats for
/// tools; includes the active backend).
inline std::string runStatsJson(const GmaRunStats &S) {
  return json::render(S);
}

/// One lane's share of a dispatch: a device shard, or the IA32 host lane
/// that steals work (the paper's Fig. 10 split between sequencers). A
/// region's row covers one job; serving totals merge rows lane by lane.
struct ShardStat {
  unsigned Lane = 0; ///< device index; numDevices() for the host lane
  bool HostLane = false;
  uint64_t Shreds = 0; ///< shreds this lane executed
  uint64_t Stolen = 0; ///< of those, acquired through work stealing
  uint64_t Steals = 0; ///< successful steal operations performed
  uint64_t Jobs = 1;   ///< dispatches the row covers
  TimeNs FinishNs = 0; ///< lane clock when it went idle for good
  double IssueCycles = 0; ///< EU issue cycles charged on this lane

  /// Merges \p O into this row: counts add, FinishNs takes the later.
  ShardStat &operator+=(const ShardStat &O) {
    Shreds += O.Shreds;
    Stolen += O.Stolen;
    Steals += O.Steals;
    Jobs += O.Jobs;
    FinishNs = std::max(FinishNs, O.FinishNs);
    IssueCycles += O.IssueCycles;
    return *this;
  }

  bool operator==(const ShardStat &) const = default;

  static constexpr auto jsonFields() {
    using S = ShardStat;
    return json::fields(
        "lane", &S::Lane, "host", &S::HostLane, "jobs", &S::Jobs,
        "shreds", &S::Shreds, "stolen", &S::Stolen, "steals", &S::Steals,
        "finish_ns", &S::FinishNs, "issue_cycles", &S::IssueCycles);
  }
};

} // namespace gma
} // namespace exochi

#endif // EXOCHI_GMA_GMA_H
