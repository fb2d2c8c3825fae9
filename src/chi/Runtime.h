//===- chi/Runtime.h - The CHI runtime library ------------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The CHI runtime (paper Section 4.4): translates the programmer's
/// parallel constructs into shred creation and management on the
/// heterogeneous platform. Responsibilities reproduced from the paper:
///
///  - locating accelerator binary code in the fat binary and dispatching
///    shred continuations to the exo-sequencers via SIGNAL;
///  - managing descriptors (Table 1 APIs) and configuring surfaces before
///    forking heterogeneous shreds;
///  - implementing the master_nowait asynchronous completion model;
///  - pricing the three memory-model configurations of Section 5.2
///    (DataCopy / NonCCShared / CCShared), including the intelligent
///    overlapped cache-flushing scheme;
///  - tracking a simulated master clock so cooperative CPU+GPU execution
///    (Section 5.3) can be measured.
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_CHI_RUNTIME_H
#define EXOCHI_CHI_RUNTIME_H

#include "chi/Chi.h"
#include "cluster/Cluster.h"
#include "exo/ExoPlatform.h"
#include "fatbin/FatBinary.h"

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace exochi {

namespace xjit {
class JitEngine;
}

namespace chi {

/// One clause-bound parallel dispatch (the dynamic instance of a
/// `#pragma omp parallel target(X3000)` construct).
struct RegionSpec {
  std::string KernelName;
  unsigned NumThreads = 1;
  bool MasterNowait = false;
  /// firstprivate: one copy-constructed value broadcast to every shred.
  std::map<std::string, int32_t> Firstprivate;
  /// private: per-shred value (e.g. the loop index), evaluated per shred.
  std::map<std::string, std::function<int32_t(unsigned)>> Private;
  /// shared + descriptor clauses: variable name -> descriptor id, in the
  /// kernel's surface-parameter order resolved by name.
  std::map<std::string, uint32_t> SharedDescs;
  /// ExoServe deadline budget in simulated ns, measured from the first
  /// shred dispatch (0 = none). When the device's next event would land
  /// beyond it, the run is preempted at that epoch boundary and the
  /// region completes with RegionStats::DeadlinePreempted set — not an
  /// error. Deterministic: part of the canonical schedule.
  TimeNs DeadlineNs = 0;
};

/// Handle to a dispatched (possibly still pending) region.
using RegionHandle = uint32_t;

/// The runtime library instance bound to one platform and fat binary.
class Runtime {
public:
  Runtime(exo::ExoPlatform &Platform, MemoryModel Model = MemoryModel::CCShared);
  ~Runtime();

  /// Loads every XGMA section of \p Binary onto the device. Must be
  /// called before dispatching regions that name those kernels.
  Error loadBinary(const fatbin::FatBinary &Binary);

  /// The fat-binary section of a loaded kernel (nullptr when not
  /// loaded). Exposes the ABI metadata — scalar/surface parameter names
  /// in slot order — that static analyses (XCost admission, XVerify)
  /// need at dispatch time.
  const fatbin::CodeSection *loadedSection(const std::string &Name) const {
    auto It = Loaded.find(Name);
    return It == Loaded.end() ? nullptr : &It->second.Section;
  }

  //===--------------------------------------------------------------------===//
  // Clock & configuration
  //===--------------------------------------------------------------------===//

  TimeNs now() const { return Clock; }
  void advanceTo(TimeNs T) { Clock = std::max(Clock, T); }

  MemoryModel memoryModel() const { return Model; }
  void setMemoryModel(MemoryModel M) { Model = M; }

  /// Enables/disables the intelligent flushing scheme (paper Section 5.2:
  /// flush only the data needed by the first wave of shreds up front and
  /// overlap the rest with execution).
  void setIntelligentFlush(bool On) { IntelligentFlush = On; }
  bool intelligentFlush() const { return IntelligentFlush; }

  /// ExoCluster policy for multi-device dispatches (stealing on/off, the
  /// steal seed, chunk size, host-lane participation). Only consulted
  /// when the platform has more than one device and the kernel is
  /// shardable; a different seed or steal setting changes the schedule
  /// but never the surface outputs of race-free kernels.
  void setClusterConfig(const cluster::ClusterConfig &C) { ClusterCfg = C; }
  const cluster::ClusterConfig &clusterConfig() const { return ClusterCfg; }

  //===--------------------------------------------------------------------===//
  // Table 1: CHI APIs for programming an exo-sequencer
  //===--------------------------------------------------------------------===//

  /// API #1: chi_alloc_desc(targetISA, ptr, mode, width, height).
  Expected<uint32_t> allocDesc(TargetIsa Target, mem::VirtAddr Ptr,
                               SurfaceMode Mode, uint32_t Width,
                               uint32_t Height);

  /// API #2: chi_free_desc.
  Error freeDesc(uint32_t Desc);

  /// API #3: chi_modify_desc.
  Error modifyDesc(uint32_t Desc, DescAttr Attr, int64_t Value);

  /// API #4: chi_set_feature (global: applies to all shreds created
  /// afterwards).
  void setFeature(Feature F, int64_t Value);

  /// API #5: chi_set_feature_pershred.
  void setFeaturePerShred(uint32_t ShredId, Feature F, int64_t Value);

  /// Reads back a feature value (global scope; 0 when unset).
  int64_t feature(Feature F) const;
  /// Reads back a per-shred feature value (falls back to global, then 0).
  int64_t featureForShred(uint32_t ShredId, Feature F) const;

  /// Returns the live descriptor, or nullptr.
  const Descriptor *descriptor(uint32_t Desc) const;

  /// Records that the IA32 sequencer produced \p Bytes into the buffer
  /// described by \p Desc (drives flush/copy cost in non-coherent
  /// models). Descriptors start fully dirty.
  Error markHostWrote(uint32_t Desc, uint64_t Bytes);

  //===--------------------------------------------------------------------===//
  // Region dispatch (used by ParallelRegion and TaskQueue)
  //===--------------------------------------------------------------------===//

  /// Forks the heterogeneous shred team for \p Spec. With master_nowait
  /// the master clock does not advance past the construct; otherwise the
  /// clock advances to the region's end.
  Expected<RegionHandle> dispatch(const RegionSpec &Spec);

  /// Blocks the master until region \p H completes (the runtime's
  /// asynchronous completion notification).
  Error wait(RegionHandle H);

  /// Waits for every pending region.
  void waitAll();

  /// Statistics of a dispatched region.
  const RegionStats *regionStats(RegionHandle H) const;

  /// Total shreds spawned since construction (Table 2 reporting).
  uint64_t totalShredsSpawned() const { return TotalShreds; }

  /// FaultLab resilience totals accumulated across every dispatch (zero
  /// when injection is disarmed).
  const ChiStats &faultStats() const { return FaultStats; }

  //===--------------------------------------------------------------------===//
  // Master-shred (IA32) work
  //===--------------------------------------------------------------------===//

  /// Charges \p Work to the IA32 sequencer, advancing the master clock.
  /// Returns the completion time.
  TimeNs runHostWork(const cpu::WorkEstimate &Work);

  exo::ExoPlatform &platform() { return Platform; }

private:
  /// Builds the device surface table for \p Spec (by-name resolution of
  /// the kernel's surface parameters to descriptors).
  Expected<std::shared_ptr<gma::SurfaceTable>>
  buildSurfaces(const fatbin::CodeSection &Section, const RegionSpec &Spec);

  exo::ExoPlatform &Platform;
  MemoryModel Model;
  bool IntelligentFlush = true;
  cluster::ClusterConfig ClusterCfg;

  /// Kernel name -> {device kernel id, fat-binary section}.
  struct LoadedKernel {
    uint32_t DeviceKernelId = 0;
    fatbin::CodeSection Section;
    /// True when the kernel passed the XJIT eligibility gate at load:
    /// representable on the fast lane (no spawn) and free of
    /// Error-severity lint/XVerify findings under the dispatch ABI.
    bool FastEligible = false;
    /// True when the kernel may shard across an ExoCluster fleet: free
    /// of cross-shred synchronization (xmit/wait/spawn) and of
    /// Error-severity lint/XVerify findings — i.e. statically race-free
    /// per shred, so any device partition produces identical surfaces.
    bool Shardable = false;
  };
  std::map<std::string, LoadedKernel> Loaded;

  /// The XJIT fast-lane engine, constructed on first fast dispatch
  /// (Feature::Backend != 0); owns compiled traces and its ATR TLB.
  std::unique_ptr<xjit::JitEngine> Jit;

  std::map<uint32_t, Descriptor> Descriptors;
  uint32_t NextDesc = 1;

  std::map<Feature, int64_t> GlobalFeatures;
  std::map<std::pair<uint32_t, Feature>, int64_t> PerShredFeatures;

  std::map<RegionHandle, RegionStats> Regions;
  RegionHandle NextRegion = 1;

  TimeNs Clock = 0;
  uint64_t TotalShreds = 0;

  /// Runtime-wide FaultLab totals; proxy counters are accumulated as
  /// deltas against the values seen at the previous dispatch.
  ChiStats FaultStats;
  uint64_t LastProxyInjected = 0;
  uint64_t LastProxyRetries = 0;
};

} // namespace chi
} // namespace exochi

#endif // EXOCHI_CHI_RUNTIME_H
