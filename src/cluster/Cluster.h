//===- cluster/Cluster.h - Multi-device sharding with work stealing --------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ExoCluster: shards a region's shred range across N GmaDevice instances
/// plus the IA32 host lane, with cooperative work stealing in the style of
/// the paper's Fig. 10 `master_nowait` scheme — an idle lane steals the
/// back half of the busiest lane's remaining range instead of waiting for
/// a static partition to drain.
///
/// The scheduler is a serial simulated-time event loop over per-lane
/// clocks: the earliest-ready lane acts next (executes a chunk of its
/// range, or steals when empty), ties broken by lane index, and steal
/// victims chosen by a seeded hash among maximal candidates. Because the
/// loop is serial and every decision depends only on simulated time and
/// the seed — never on host threading — the shard assignment, the steal
/// trace, and therefore the surface outputs are bit-identical in every
/// replay and, for race-free (Shardable) kernels, for every device
/// count.
///
/// Shred identity is preserved across shards via
/// ShredDescriptor::FixedShredId: shred i of the region keeps id Base+i
/// no matter which device (or the host lane) ends up executing it, so
/// `sid`-dependent addressing matches the single-device schedule
/// bit-for-bit.
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_CLUSTER_CLUSTER_H
#define EXOCHI_CLUSTER_CLUSTER_H

#include "exo/ExoPlatform.h"
#include "gma/Gma.h"
#include "gma/GmaDevice.h"

#include <vector>

namespace exochi {
namespace cluster {

/// Policy knobs of the cluster scheduler.
struct ClusterConfig {
  /// Cooperative work stealing: idle lanes steal the back half of the
  /// busiest lane's remaining range. Off = static contiguous partition.
  bool Steal = true;
  /// Seed of the deterministic steal-order hash (victim tie-break).
  uint64_t StealSeed = 0;
  /// Shreds a device lane commits to per scheduling step (0 = auto: one
  /// full wave, the device's total hardware context count). Smaller
  /// chunks steal better; larger chunks amortize dispatch.
  uint32_t ChunkShreds = 0;
  /// Let the IA32 sequencer participate as a steal-only lane (Fig. 10:
  /// the master "executes the remaining iterations in parallel").
  bool HostLane = true;
  /// Simulated cost of one steal operation (queue-lock handoff).
  mem::TimeNs StealLatencyNs = 60.0;
};

/// Result of one cluster region.
struct ClusterResult {
  gma::RunExit Exit = gma::RunExit::QueueDrained;
  /// Fleet-wide aggregate: counters summed across lanes, FinishNs the
  /// makespan, OfflinedEus remapped to cluster-wide indices
  /// (device × NumEus + EU) in deterministic offline order.
  gma::GmaRunStats Total;
  /// One row per lane (devices in index order, then the host lane).
  std::vector<gma::ShardStat> Lanes;
};

/// Shards one region across the platform's device fleet. Stateless
/// between runs apart from the platform it drives; construct per region
/// or reuse freely.
class ClusterScheduler {
public:
  ClusterScheduler(exo::ExoPlatform &Platform, const ClusterConfig &Config)
      : Platform(Platform), Config(Config) {}

  /// Executes \p Descs (shred i receives id Base+i from device 0's
  /// allocation sequence unless FixedShredId is preset) across every
  /// device with at least one non-quarantined EU, plus the host lane.
  /// \p DeadlineNs is the absolute simulated-time budget (0 = none);
  /// on expiry the remaining shreds are cancelled and counted in
  /// Total.ShredsPreempted, mirroring GmaDevice::run.
  Expected<ClusterResult> run(std::vector<gma::ShredDescriptor> Descs,
                              mem::TimeNs StartNs, mem::TimeNs DeadlineNs);

private:
  exo::ExoPlatform &Platform;
  ClusterConfig Config;
};

} // namespace cluster
} // namespace exochi

#endif // EXOCHI_CLUSTER_CLUSTER_H
