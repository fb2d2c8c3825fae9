//===- bench/exobench/Table2.h - The ten Table 2 kernels, dispatched --------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The in-process Table 2 rig: each of the ten media kernels on its own
/// platform and runtime (so one kernel's simulated cache and TLB state
/// never depends on another's), dispatched straight through
/// chi::Runtime::dispatch, one job per video frame — the way a media
/// pipeline hands frames to the accelerator as they arrive.
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_BENCH_EXOBENCH_TABLE2_H
#define EXOCHI_BENCH_EXOBENCH_TABLE2_H

#include "Measure.h"

#include "chi/Runtime.h"
#include "exo/ExoPlatform.h"
#include "kernels/MediaWorkload.h"

#include <memory>
#include <string>
#include <vector>

namespace exobench {

/// How the ten kernels are run.
struct Table2Config {
  double Scale = 0.5;
  bool Fast = true;     ///< XJIT fast lane, else the cycle model
  unsigned Devices = 1; ///< > 1: ExoCluster with stealing and the host lane
};

/// table2-fast: scale 0.5, XJIT, one device.
Table2Config fastConfig();
/// table2-cluster-cycle: scale 0.25, the cycle model, two devices plus
/// the IA32 host lane, stealing on with a fixed steal seed.
Table2Config clusterCycleConfig();

/// Simulated counts of one kernel over one pass. All of them repeat
/// exactly from process to process for the same pass, and a change that
/// only speeds up the simulator must leave them unchanged. Within one
/// process only the functional ones (sameWork) repeat from pass to pass:
/// the cluster scheduler's choices, and so cache misses, steals and
/// simulated time, depend on the absolute simulated clock a pass starts
/// at.
struct KernelCounts {
  uint64_t Instructions = 0, MemoryOps = 0, CacheMisses = 0, TlbMisses = 0,
           ProxyCalls = 0, HostShreds = 0, StolenShreds = 0;
  double IssueCycles = 0;
  double SimNs = 0;          ///< simulated region time, submit to end
  double FinishSpreadNs = 0; ///< device lanes' finish-time spread
  unsigned DeviceLanes = 0;  ///< most device lanes one dispatch used

  /// The functional counters match: the pass did the same work.
  bool sameWork(const KernelCounts &O) const {
    return Instructions == O.Instructions && MemoryOps == O.MemoryOps &&
           IssueCycles == O.IssueCycles;
  }
};

/// One pass over every kernel's frames.
struct PassResult {
  std::vector<double> KernelMs;   ///< per kernel (rig order): wall ms
  std::vector<double> FirstJobMs; ///< per kernel: its first dispatch
  Samples JobMs;                  ///< per dispatch: wall ms
  std::vector<KernelCounts> Counts;
  double Ms = 0;                  ///< whole pass
};

class Table2Rig {
public:
  /// Builds, loads and sets up all ten kernels, then runs one warm-up
  /// pass (first XJIT compiles, the XVerify verdicts, caches).
  explicit Table2Rig(const Table2Config &C);
  ~Table2Rig();

  size_t size() const { return Kernels.size(); }
  /// Short name of kernel \p K (e.g. "LinearFilter").
  const std::string &name(size_t K) const;
  /// Dispatches per pass (one per frame of every kernel).
  uint64_t jobsPerPass() const;
  /// Wall ms of each kernel's first dispatch during the warm-up pass.
  double firstDispatchMs() const { return FirstDispatchMs; }

  /// Runs every kernel's frames, kernels in \p Order. Spans (one per
  /// dispatch, id = \p FirstId + dispatch index) go to \p T when set.
  PassResult pass(const std::vector<unsigned> &Order, Trace *T,
                  uint64_t FirstId);

  /// Computes every kernel's host reference (IA32 implementation).
  void computeReferences();
  /// Zeroes every output surface, so the next pass must rewrite them.
  void clearOutputs();
  /// FATAL unless every output equals its host reference.
  void checkOutputs();

private:
  struct Kernel {
    std::unique_ptr<exochi::exo::ExoPlatform> Platform;
    std::unique_ptr<exochi::chi::Runtime> RT;
    std::unique_ptr<exochi::kernels::MediaWorkload> WL;
  };
  Table2Config Config;
  std::vector<Kernel> Kernels;
  double FirstDispatchMs = 0;
};

} // namespace exobench

#endif // EXOCHI_BENCH_EXOBENCH_TABLE2_H
