//===- bench/bench_cluster.cpp - ExoCluster scaling + steal ablation ----------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Measures ExoCluster multi-device scaling on the serving path:
// simulated-time jobs/sec for a stream of 256-shred vecadd jobs pushed
// through serve::Server at 1/2/4/8 devices, with work stealing on and
// off. Time is the master simulation clock, not wall time, so the
// numbers are deterministic and the scaling is the cluster scheduler's
// own (sharding + stealing), not the host's.
//
// Also checks the determinism contract while it is at it: the output
// surface hash must be bit-identical across every device count and
// steal setting.
//
// Writes a human-readable table to stdout and machine-readable results
// to BENCH_cluster.json (override the path with EXOCHI_BENCH_JSON).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "cluster/Cluster.h"
#include "serve/Server.h"
#include "support/Format.h"

#include <string>
#include <vector>

using namespace exochi;
using namespace exochi::bench;

namespace {

constexpr unsigned Shreds = 256;        // per job
constexpr unsigned ElemsPerShred = 32;  // 4 SIMD blocks: a media-sized strip
constexpr unsigned N = Shreds * ElemsPerShred;

/// vecadd where each shred processes a 32-element strip (4 unrolled
/// 8-wide blocks), so per-shred work is in the range of the Table 2
/// media kernels rather than a single SIMD op — the regime multi-device
/// scaling is for.
///
/// The working set is sized deliberately: 3 surfaces x 8192 x 4B = 96 KB,
/// inside a single device's 128 KB cache. Jobs repeat over the same
/// surfaces, so after the first job every configuration runs warm and the
/// speedups measure the cluster scheduler, not cache capacity. (With a
/// footprint that overflows one device's cache the curve goes superlinear
/// — per-shard working sets fit where the whole job did not — which is a
/// real aggregate-cache effect but not the one this bench isolates.)
std::string stripKernelAsm() {
  std::string Asm = "  shl.1.dw vr1 = i, 5\n";
  for (unsigned B = 0; B < ElemsPerShred / 8; ++B) {
    Asm += "  ld.8.dw  [vr2..vr9]   = (A, vr1, 0)\n"
           "  ld.8.dw  [vr10..vr17] = (B, vr1, 0)\n"
           "  add.8.dw [vr18..vr25] = [vr2..vr9], [vr10..vr17]\n"
           "  st.8.dw  (C, vr1, 0)  = [vr18..vr25]\n"
           "  add.1.dw vr1 = vr1, 8\n";
  }
  Asm += "  halt\n";
  return Asm;
}

struct Rig {
  static exo::PlatformConfig configFor(unsigned Devices) {
    exo::PlatformConfig C;
    C.NumDevices = Devices;
    return C;
  }

  explicit Rig(unsigned Devices) : Platform(configFor(Devices)), RT(Platform) {
    chi::ProgramBuilder PB;
    cantFail(PB.addXgmaKernel("vecadd", stripKernelAsm(), {"i"}, {"A", "B", "C"})
                 .takeError());
    cantFail(RT.loadBinary(PB.take()));
    A = Platform.allocateShared(N * 4, "A");
    B = Platform.allocateShared(N * 4, "B");
    C = Platform.allocateShared(N * 4, "C");
    for (unsigned K = 0; K < N; ++K) {
      Platform.store<int32_t>(A.Base + K * 4, static_cast<int32_t>(K * 3));
      Platform.store<int32_t>(B.Base + K * 4, static_cast<int32_t>(K * 7));
      Platform.store<int32_t>(C.Base + K * 4, 0);
    }
    ADesc = cantFail(RT.allocDesc(chi::TargetIsa::X3000, A.Base,
                                  chi::SurfaceMode::Input, N, 1));
    BDesc = cantFail(RT.allocDesc(chi::TargetIsa::X3000, B.Base,
                                  chi::SurfaceMode::Input, N, 1));
    CDesc = cantFail(RT.allocDesc(chi::TargetIsa::X3000, C.Base,
                                  chi::SurfaceMode::Output, N, 1));
  }

  chi::RegionSpec region() const {
    chi::RegionSpec Spec;
    Spec.KernelName = "vecadd";
    Spec.NumThreads = Shreds;
    Spec.SharedDescs = {{"A", ADesc}, {"B", BDesc}, {"C", CDesc}};
    Spec.Private["i"] = [](unsigned T) { return static_cast<int32_t>(T); };
    return Spec;
  }

  /// FNV-1a over the output surface bytes.
  uint64_t outputHash() {
    uint64_t H = 1469598103934665603ull;
    for (unsigned K = 0; K < N * 4; ++K) {
      H ^= Platform.load<uint8_t>(C.Base + K);
      H *= 1099511628211ull;
    }
    return H;
  }

  exo::ExoPlatform Platform;
  chi::Runtime RT;
  exo::SharedBuffer A, B, C;
  uint32_t ADesc = 0, BDesc = 0, CDesc = 0;
};

struct Result {
  unsigned Devices = 1;
  bool Steal = true;
  double SimMs = 0;       ///< simulated time for the whole stream
  double JobsPerSimSec = 0;
  uint64_t StolenShreds = 0;
  uint64_t HostShreds = 0;
  uint64_t Hash = 0;
  double SpeedupVs1Dev = 0; ///< jobs/sim-sec over 1 device with stealing

  static constexpr auto jsonFields() {
    using S = Result;
    return json::fields(
        "devices", &S::Devices, "steal", &S::Steal, "sim_ms", &S::SimMs,
        "jobs_per_sim_sec", &S::JobsPerSimSec,
        "stolen_shreds", &S::StolenShreds, "host_shreds", &S::HostShreds,
        "speedup_vs_1dev", &S::SpeedupVs1Dev);
  }
};

} // namespace

int main() {
  double Scale = benchScale();
  const unsigned Jobs = static_cast<unsigned>(64 * Scale);

  std::vector<Result> Results;
  for (unsigned Devices : {1u, 2u, 4u, 8u}) {
    for (bool Steal : {true, false}) {
      Rig R(Devices);
      cluster::ClusterConfig CC;
      CC.Steal = Steal;
      if (const char *E = std::getenv("EXOCHI_CLUSTER_CHUNK"))
        CC.ChunkShreds = static_cast<uint32_t>(std::atoi(E));
      R.RT.setClusterConfig(CC);
      serve::ServerConfig SC;
      SC.Queue.PerClientCap = SC.Queue.Capacity; // single greedy client
      serve::Server Srv(R.RT, SC);

      unsigned Submitted = 0;
      while (Submitted < Jobs) {
        while (Submitted < Jobs && Srv.queue().size() < SC.Queue.Capacity) {
          serve::JobSpec JS;
          JS.Region = R.region();
          Srv.submit(std::move(JS));
          ++Submitted;
        }
        while (Srv.runNext())
          ;
      }

      Result Res;
      Res.Devices = Devices;
      Res.Steal = Steal;
      Res.SimMs = R.RT.now() * 1e-6;
      Res.JobsPerSimSec = Jobs / (R.RT.now() * 1e-9);
      for (const chi::ShardStat &Row : Srv.stats().Shards) {
        Res.StolenShreds += Row.Stolen;
        if (Row.HostLane)
          Res.HostShreds += Row.Shreds;
      }
      Res.Hash = R.outputHash();
      Results.push_back(Res);
      if (Srv.stats().Completed != Jobs) {
        std::fprintf(stderr, "bench_cluster: %llu/%u jobs completed\n",
                     static_cast<unsigned long long>(Srv.stats().Completed),
                     Jobs);
        return 1;
      }
    }
  }

  // Determinism: every configuration must produce the same bytes.
  for (const Result &R : Results)
    if (R.Hash != Results.front().Hash) {
      std::fprintf(stderr,
                   "bench_cluster: output hash diverged at %u devices "
                   "steal=%d\n",
                   R.Devices, R.Steal);
      return 1;
    }

  double Base = 0;
  for (const Result &R : Results)
    if (R.Devices == 1 && R.Steal)
      Base = R.JobsPerSimSec;
  for (Result &R : Results)
    R.SpeedupVs1Dev = R.JobsPerSimSec / Base;

  std::printf("=== ExoCluster scaling (strip vecadd, %u shreds/job, %u jobs, "
              "simulated time) ===\n",
              Shreds, Jobs);
  std::printf("%-8s %-6s %12s %14s %10s %10s %8s\n", "devices", "steal",
              "sim ms", "jobs/sim-sec", "stolen", "host", "speedup");
  for (const Result &R : Results)
    std::printf("%-8u %-6s %12.3f %14.0f %10llu %10llu %7.2fx\n", R.Devices,
                R.Steal ? "on" : "off", R.SimMs, R.JobsPerSimSec,
                static_cast<unsigned long long>(R.StolenShreds),
                static_cast<unsigned long long>(R.HostShreds),
                R.SpeedupVs1Dev);
  std::printf("output hash: %016llx (bit-identical across all configs)\n",
              static_cast<unsigned long long>(Results.front().Hash));

  bool Wrote = writeBenchJson("cluster", [&](json::Writer &W) {
    W.member("scale", Scale)
        .member("jobs", Jobs)
        .member("shreds_per_job", Shreds)
        .member("output_hash",
                formatString("%016llx", static_cast<unsigned long long>(
                                            Results.front().Hash)))
        .member("configs", Results);
  });
  return Wrote ? 0 : 1;
}
