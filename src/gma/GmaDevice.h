//===- gma/GmaDevice.h - Cycle-level GMA-class device model ----------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated GMA X3000-class accelerator: 8 execution units, each with
/// 4 hardware thread contexts that alternate fetching through fly-weight
/// switch-on-stall multithreading (paper Section 3.4). The device executes
/// XGMA kernels functionally over simulated physical memory while
/// accumulating a first-order timing model: one instruction issues per EU
/// cycle, memory operations stall the issuing context through the shared
/// cache and memory bus, and the EU covers stalls by switching to another
/// ready context on the same EU.
///
/// TLB misses and exceptions suspend the shred and signal the OS-managed
/// IA32 sequencer through the ProxySignalHandler (the MISP exoskeleton),
/// which implements ATR and CEH in src/exo.
///
/// The simulation runs in epochs: each round advances every EU, in index
/// order, to a shared time horizon, buffering every shared-resource
/// interaction (memory, cache, TLB, sampler, xmit/wait, spawn, proxy
/// calls), and then resolves the buffer in (issue time, EU index,
/// sequence) order. See DESIGN.md, "Epoch schedule & determinism
/// contract".
///
/// The API is single-threaded: do not call into one GmaDevice from
/// multiple host threads.
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_GMA_GMADEVICE_H
#define EXOCHI_GMA_GMADEVICE_H

#include "gma/Gma.h"
#include "gma/KernelTable.h"
#include "gma/Trace.h"
#include "isa/Decoded.h"
#include "mem/CacheModel.h"
#include "mem/PhysicalMemory.h"

#include <cassert>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>

namespace exochi {

namespace fault {
class FaultInjector;
}

namespace gma {

/// Action a debugger step hook may request after each instruction.
enum class StepAction : uint8_t {
  Continue, ///< keep running
  Pause,    ///< stop the run loop (debugger takes over)
};

/// Debugger hook: called before each instruction issues. Receives the
/// shred id, kernel id, and pc. A pause ends the round at that
/// instruction, so the pause point is a single well-defined machine state.
using StepHook =
    std::function<StepAction(uint32_t ShredId, uint32_t KernelId, uint32_t Pc)>;

/// Why GmaDevice::run returned.
enum class RunExit : uint8_t {
  QueueDrained,      ///< all shreds completed
  Paused,            ///< a StepHook requested a pause
  DeadlinePreempted, ///< the deadline budget expired (ExoServe watchdog)
};

/// The device model. The simulation is deterministic; the API is not
/// thread-safe.
class GmaDevice {
public:
  /// \p SharedKernels shares one device-global kernel table across a
  /// cluster of instances (a private table is created when null), and
  /// \p DeviceIndex identifies this instance inside the cluster (0 for a
  /// single device) — it qualifies fault-injection site keys and trace
  /// spans so per-device schedules stay distinguishable yet
  /// deterministic.
  GmaDevice(const GmaConfig &Config, mem::PhysicalMemory &PM,
            mem::MemoryBus &Bus,
            std::shared_ptr<KernelTable> SharedKernels = nullptr,
            unsigned DeviceIndex = 0);
  ~GmaDevice();

  GmaDevice(const GmaDevice &) = delete;
  GmaDevice &operator=(const GmaDevice &) = delete;

  /// Installs the MISP exoskeleton signal handler (ATR + CEH proxies).
  /// Must be installed before run() services any miss or exception.
  void setProxyHandler(ProxySignalHandler *Handler) { Proxy = Handler; }

  /// Installs a debugger step hook (nullptr to remove).
  void setStepHook(StepHook Hook) { Hook_ = std::move(Hook); }

  /// Installs a shred-span trace recorder (nullptr to remove). Passes the
  /// device geometry along so trace rows and occupancy account for every
  /// hardware context, including idle ones.
  void setTracer(TraceRecorder *T) {
    Tracer = T;
    if (T)
      T->setGeometry(Config.NumEus, Config.ThreadsPerEu);
  }

  /// Installs the FaultLab injector consulted at the device's refill/resolve
  /// probe sites (nullptr to remove). A disarmed injector costs ~nothing.
  void setFaultInjector(fault::FaultInjector *Inj) { Injector = Inj; }

  /// Re-dispatch budget before orphans go to the IA32 host lane.
  void setMaxRedispatch(unsigned N) { Config.MaxShredRedispatch = N; }

  /// Per-`wait` timeout (simulated ns; 0 disables).
  void setWaitTimeoutNs(TimeNs T) { Config.WaitTimeoutNs = T; }

  /// ExoServe watchdog: absolute simulated time at which the current run
  /// is preempted (0 disables). Checked at the epoch boundary — after
  /// refill, before the advance phase — where the machine has no
  /// in-flight operations, so preemption lands at a fixed point of the
  /// canonical schedule. A run whose last
  /// event completes exactly at the deadline finishes normally; the
  /// first round whose next event would land strictly beyond it returns
  /// RunExit::DeadlinePreempted with resident and queued shreds
  /// cancelled (counted in GmaRunStats::ShredsPreempted).
  void setDeadlineNs(TimeNs D) { DeadlineNs = D; }
  TimeNs deadlineNs() const { return DeadlineNs; }

  /// ExoServe circuit breaker: takes EU \p EuIdx out of refill rotation
  /// (quarantine) or readmits it. Unlike a hard-fail offline, quarantine
  /// survives resetStats() — it represents a policy decision above the
  /// device, applied between runs and lifted only by the caller.
  void setEuQuarantine(unsigned EuIdx, bool On);
  bool euQuarantined(unsigned EuIdx) const;

  /// Registers \p Image and returns its kernel id.
  uint32_t registerKernel(KernelImage Image);

  /// Looks up a registered kernel; nullptr when unknown.
  const KernelImage *kernel(uint32_t KernelId) const;

  /// Appends a shred to the software work queue and returns its shred id.
  /// The queue may hold far more shreds than there are hardware contexts.
  uint32_t enqueueShred(ShredDescriptor Desc);

  /// Reserves \p N consecutive shred ids from the device's allocation
  /// sequence and returns the first. The XJIT fast lane draws its ids
  /// here so `sid`-dependent addressing matches the cycle backend
  /// bit-for-bit and ids never collide across backends. Must not be
  /// called while shreds are queued (their ids are already implied).
  uint32_t allocShredIds(uint32_t N) {
    assert(Queue.empty() && "id reservation with shreds queued");
    uint32_t First = NextShredId;
    NextShredId += N;
    return First;
  }

  /// True when a debugger step hook or tracer is installed — execution
  /// observers that only the cycle backend can drive (dispatch falls
  /// back to it while they are attached).
  bool hasExecutionHooks() const {
    return static_cast<bool>(Hook_) || Tracer != nullptr;
  }

  /// True when a debugger step hook specifically is installed. A tracer
  /// merely observes spans (cluster sharding supports it per device); a
  /// step hook pins execution to a single device.
  bool hasStepHook() const { return static_cast<bool>(Hook_); }

  /// This instance's position in its cluster (0 for a single device).
  unsigned deviceIndex() const { return DeviceIndex_; }

  /// The device-global kernel table this instance executes from.
  const std::shared_ptr<KernelTable> &kernelTable() const { return Kernels; }

  /// The installed FaultLab injector (nullptr when none): shared with the
  /// fast lane so both backends probe one fault schedule.
  fault::FaultInjector *faultInjector() const { return Injector; }

  /// Current device configuration (including set* overrides).
  const GmaConfig &config() const { return Config; }

  /// Number of shreds waiting in the queue (excluding resident ones).
  size_t queuedShreds() const { return Queue.size(); }

  /// Runs until the work queue drains and all contexts idle (or a step
  /// hook pauses the machine). \p StartNs is the simulated time at which
  /// the device begins executing. Fails on unserviceable faults or
  /// deadlock (every resident shred blocked in `wait`).
  Expected<RunExit> run(TimeNs StartNs);

  /// Resumes after a Paused run. Equivalent to run() continuing from the
  /// paused state.
  Expected<RunExit> resume();

  /// Statistics of the current/most recent run (reset by resetStats).
  const GmaRunStats &stats() const { return Stats; }

  /// Clears statistics and the finish clock, keeping kernels registered.
  /// \p RewindFaults also rewinds the installed fault injector so
  /// back-to-back runs replay the same fault schedule; a cluster passes
  /// false for its per-chunk resets (the injector is shared across the
  /// fleet and rewound once per region by the scheduler).
  void resetStats(bool RewindFaults = true);

  /// Invalidates every EU TLB (e.g. after the host changes mappings).
  void invalidateTlbs();

  //===--------------------------------------------------------------------===//
  // Debugger access (used by src/xdbg).
  //===--------------------------------------------------------------------===//

  /// Identifiers of the shreds currently resident in thread contexts.
  std::vector<uint32_t> residentShreds() const;

  /// Register-file view of a resident shred; nullptr when not resident.
  ShredRegView *shredRegs(uint32_t ShredId);

  /// Current pc of a resident shred (nullopt when not resident).
  std::optional<uint32_t> shredPc(uint32_t ShredId) const;

  /// Kernel id a resident shred is executing (nullopt when not resident).
  std::optional<uint32_t> shredKernel(uint32_t ShredId) const;

private:
  struct Context;
  struct Eu;
  struct PendingOp;

  /// Loads the next queued shred into an idle context of \p E (if any).
  /// Fails only when fetching a shared-memory descriptor record faults
  /// unserviceably. Refill/resolve phases only.
  Expected<bool> refillContext(Eu &E);

  /// Advances \p E until no context is ready at or before \p Horizon, a
  /// context blocks every runnable slot, a hook pauses, or an error is
  /// recorded. Touches only EU-local state plus read-only kernel images
  /// and configuration.
  void advanceEu(Eu &E, TimeNs Horizon);

  /// Issues one instruction from \p Ctx on \p E (advance phase). Local
  /// effects apply immediately; shared-resource interactions are
  /// buffered as PendingOps and the context blocks when the result is
  /// needed to continue.
  void issueInstruction(Eu &E, Context &Ctx);

  /// Chooses the context to issue from (switch-on-stall policy).
  Context *pickReadyContext(Eu &E);

  /// Drains every EU's buffered PendingOps in (issue time, EU, sequence)
  /// order, applying shared-resource arbitration, functional data
  /// movement, proxy calls, and retirement. Refill/resolve phases only.
  Error resolvePending();

  /// Folds per-EU statistic shards into Stats (in EU-index order) and
  /// clears the shards. Called at every run/resume exit.
  void mergeStatShards();

  /// Deadline preemption: idles every resident context (recording its
  /// span up to \p Now) and cancels the queue. Serial phase only, with
  /// no buffered PendingOps in flight.
  void preemptAll(TimeNs Now);

  /// The resident context executing \p ShredId, or nullptr.
  Context *findResident(uint32_t ShredId);

  /// True when an armed FaultLab injector is installed (the gate on every
  /// device probe site and recovery path).
  bool injectionArmed() const;

  /// True when at least one EU has not been offlined by a hard-fail.
  bool anyOnlineEu() const;

  /// FaultLab degradation: takes \p E out of rotation and re-dispatches
  /// every shred resident on it. Refill/resolve phases only.
  Error offlineEu(Eu &E);

  /// Re-dispatches the shred in \p Ctx after a fault: restart from its
  /// saved descriptor on a surviving EU, or — once the budget is spent or
  /// no EU survives — on the IA32 host lane. Idles the context.
  Error redispatchShred(Eu &E, Context &Ctx);

  /// Runs an orphaned shred descriptor through the proxy's IA32 lane
  /// (ProxySignalHandler::onShredOrphaned) and books its stats/latency.
  Error hostRedispatch(ShredDescriptor Desc, uint32_t ShredId, TimeNs Now);

  /// Translates and times a virtual span through the device TLB starting
  /// at \p Now, raising ATR proxy requests on misses, and returns the
  /// completion time. The span's physical segments are left in
  /// AccessSegments; the caller moves the data with readSegments or
  /// writeSegments and stalls the context until the completion time.
  /// Refill/resolve phases only.
  Expected<TimeNs> accessMemoryAt(TimeNs Now, Context &Ctx, mem::VirtAddr Va,
                                  uint64_t Bytes, bool IsWrite,
                                  mem::GpuMemType MemType);

  /// Functional data movement over the last access's segments, in
  /// address order.
  void readSegments(uint8_t *Dst) const;
  void writeSegments(const uint8_t *Src);

  /// Applies one buffered op (resolve phase).
  Error resolveOne(const PendingOp &Op);

  /// Resolves a buffered Ld/St/LdBlk/StBlk: timing through cache and
  /// bus at the op's issue time, then functional data movement.
  Error resolveLoadStore(Eu &E, Context &Ctx, const PendingOp &Op);

  /// Resolves a buffered `sample`: timed texel fetches, bilinear filter,
  /// and shared-sampler queue arbitration.
  Error resolveSample(Eu &E, Context &Ctx, const PendingOp &Op);

  GmaConfig Config;
  const TimeNs CycleNs; ///< Config.cycleNs(), hoisted off the issue path
  mem::PhysicalMemory &PM;
  mem::MemoryBus &Bus;
  mem::CacheModel Cache;
  mem::Tlb DeviceTlb; ///< the device's internal TLB (shared by all EUs)
  mem::TimeNs SamplerFreeAt = 0; ///< shared fixed-function sampler queue
  ProxySignalHandler *Proxy = nullptr;
  StepHook Hook_;
  TraceRecorder *Tracer = nullptr;
  fault::FaultInjector *Injector = nullptr;

  /// Device-global kernel table (shared across a cluster; private when
  /// constructed stand-alone).
  std::shared_ptr<KernelTable> Kernels;

  /// Position inside the owning cluster (0 stand-alone). Qualifies
  /// fault-injection EU site keys and trace spans.
  unsigned DeviceIndex_ = 0;

  std::deque<ShredDescriptor> Queue;
  uint32_t NextShredId = 1;

  std::vector<std::unique_ptr<Eu>> Eus;
  GmaRunStats Stats;

  /// Physical (address, bytes) segments of the last accessMemoryAt,
  /// covering its virtual span in order. Reused so an access allocates
  /// nothing.
  std::vector<std::pair<mem::PhysAddr, uint64_t>> AccessSegments;

  /// resolvePending's place in one EU's buffer: the index of its next op
  /// and that op's issue time.
  struct ResolveCursor {
    TimeNs Head;
    uint32_t Eu;
    uint32_t Next;
  };
  /// resolvePending's cursors, kept to reuse the storage.
  std::vector<ResolveCursor> Cursors;

  /// Cross-shred register mailbox for xmit to non-resident targets:
  /// shred id -> (reg, value) pairs, applied in one lookup at dispatch.
  std::unordered_map<uint32_t, std::vector<std::pair<uint8_t, uint32_t>>>
      Mailbox;

  /// Absolute simulated-time deadline of the current run (0 = none).
  TimeNs DeadlineNs = 0;

  bool PausedFlag = false;
  bool PauseRequested = false; ///< set by a hook during the advance
};

} // namespace gma
} // namespace exochi

#endif // EXOCHI_GMA_GMADEVICE_H
