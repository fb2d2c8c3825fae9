//===- chi/Chi.h - CHI programming environment: common types ----------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Common types of the CHI (C for Heterogeneous Integration) runtime
/// (paper Section 4): target ISAs, descriptor attributes (Table 1),
/// memory-model configurations (Section 5.2), and the clause model of the
/// extended OpenMP pragmas (Figure 5).
///
/// The paper extends the Intel C++ Compiler with pragmas; this
/// reproduction exposes the same semantics as a runtime API with a 1:1
/// mapping:
///
///   #pragma omp parallel target(targetISA) ...   -> chi::ParallelRegion
///   #pragma intel omp taskq target(targetISA)    -> chi::TaskQueue
///   #pragma intel omp task ...                   -> chi::TaskQueue::task
///   shared(v) descriptor(d)  -> .shared("v", d)
///   firstprivate(v)          -> .firstprivate("v", value)
///   private(i)               -> .privateVar("i", perShredFn)
///   num_threads(n)           -> .numThreads(n)
///   master_nowait            -> .masterNowait()
///   captureprivate(v)        -> task(..., {"v", value} ...)
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_CHI_CHI_H
#define EXOCHI_CHI_CHI_H

#include "gma/Gma.h"

#include <cstdint>
#include <vector>

namespace exochi {
namespace chi {

using gma::TimeNs;

/// Instruction-set targets of the target() clause.
enum class TargetIsa : uint8_t {
  IA32,
  X3000, ///< the XGMA exo-sequencers
};

/// Input/output mode of a descriptor (chi_alloc_desc's `mode`).
using SurfaceMode = gma::SurfaceMode;

/// Memory-model configurations compared in the paper's Section 5.2 /
/// Figure 8.
enum class MemoryModel : uint8_t {
  /// No shared virtual memory: explicit data copies between the IA32 and
  /// accelerator address spaces at the measured 3.1 GB/s WC-copy rate.
  DataCopy,
  /// Shared virtual memory without cache coherence: the IA32 sequencer
  /// flushes dirty producer data before dispatch; the exo-sequencers
  /// flush outputs before releasing the completion semaphore.
  NonCCShared,
  /// Cache-coherent shared virtual memory: no copies, no flushes.
  CCShared,
};

/// Returns a short display name for \p M.
const char *memoryModelName(MemoryModel M);

/// Modifiable descriptor attributes (Table 1 API #3, chi_modify_desc).
enum class DescAttr : uint8_t {
  Width,
  Height,
  Mode,     ///< value is a SurfaceMode
  ElemType, ///< value is an isa::ElemType
  Tiling,   ///< value is a mem::GpuMemType (surface tiling/caching format)
};

/// Global / per-shred accelerator features (Table 1 APIs #4 and #5,
/// chi_set_feature / chi_set_feature_pershred).
enum class Feature : uint8_t {
  /// Default memory type for newly allocated descriptors: value is a
  /// mem::GpuMemType. Models configuring surface cacheability globally.
  DefaultSurfaceTiling,
  /// Scheduling hint: shreds of one dispatch are ordered to maximize
  /// macroblock locality (paper Section 5.1). Value: 0/1.
  LocalityScheduling,
  /// Per-shred: free-form application tag readable back (used by tools).
  ShredTag,
  /// Execution backend for XGMA dispatches: 0 = the cycle-level device
  /// model (default), 1 = XJIT, the host-native fast lane (surface
  /// outputs bit-identical; timing statistics are estimates), 2 = XJIT
  /// with per-access checks forced on even when XVerify would elide
  /// them (diagnostic mode, used to measure the elision gain). Kernels
  /// the fast lane cannot represent (spawn) or that fail its static
  /// eligibility gate silently fall back to the cycle backend, as do
  /// runs with execution hooks or a tracer attached.
  Backend,
};

/// Descriptor: the accelerator-specific access information attached to a
/// shared variable (paper Section 4.4). Width/Height are in elements.
struct Descriptor {
  mem::VirtAddr Ptr = 0;
  SurfaceMode Mode = SurfaceMode::InputOutput;
  uint32_t Width = 0;
  uint32_t Height = 1;
  isa::ElemType Elem = isa::ElemType::I32;
  mem::GpuMemType MemType = mem::GpuMemType::Cached;
  /// Bytes written by the IA32 sequencer since the last synchronization
  /// (drives flush/copy cost in the non-coherent models).
  uint64_t HostDirtyBytes = 0;
  bool Live = true;

  uint64_t totalBytes() const {
    return static_cast<uint64_t>(Width) * Height * isa::elemTypeSize(Elem);
  }
};

/// Runtime-wide FaultLab resilience totals, accumulated across every
/// dispatched region (all zero when injection is disarmed).
struct ChiStats {
  uint64_t FaultsInjected = 0; ///< injector decisions across device + proxy
  uint64_t Retried = 0;        ///< proxy transient / CEH timeout retries
  uint64_t Redispatched = 0;   ///< shreds re-dispatched (EU or IA32 lane)
  uint64_t Offlined = 0;       ///< EUs taken out of rotation
};

/// One ExoCluster lane's share of a region (gma::ShardStat). Single-device
/// and fast-lane dispatches report one row for device 0.
using gma::ShardStat;

/// Statistics of one executed parallel region / task-queue wave.
struct RegionStats {
  TimeNs SubmitNs = 0;      ///< when the master encountered the construct
  TimeNs DeviceStartNs = 0; ///< first shred dispatch
  TimeNs DeviceFinishNs = 0;
  TimeNs EndNs = 0;         ///< all memory-model epilogue work done
  TimeNs CopyNs = 0;        ///< DataCopy transfer time
  TimeNs FlushNs = 0;       ///< NonCCShared flush time (critical path only)
  uint64_t ShredsSpawned = 0;
  /// The region hit its RegionSpec::DeadlineNs budget and was preempted
  /// at an epoch boundary (Device.ShredsPreempted counts the casualties).
  bool DeadlinePreempted = false;
  /// Fleet aggregate (equals the single device's stats when NumDevices
  /// is 1 or the region ran on the fast lane).
  gma::GmaRunStats Device;
  /// Per-lane breakdown of the dispatch (one row per participating
  /// cluster lane; exactly one row for non-cluster dispatches).
  std::vector<ShardStat> Shards;

  TimeNs totalNs() const { return EndNs - SubmitNs; }
};

} // namespace chi
} // namespace exochi

#endif // EXOCHI_CHI_CHI_H
