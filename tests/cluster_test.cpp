//===- tests/cluster_test.cpp - ExoCluster multi-device sharding -------------===//
//
// Tests for ExoCluster (DESIGN.md §16): the device-global kernel table
// shared across GmaDevice instances, shred-range sharding with
// cooperative work stealing (including the IA32 host lane), per-shard
// serving statistics, shard drain, deadline preemption across shards,
// and the determinism contract — bit-identical surface outputs for
// every device count, steal setting, and steal seed (the 8-seed soak).
//
//===----------------------------------------------------------------------===//

#include "cluster/Cluster.h"

#include "chi/ProgramBuilder.h"
#include "chi/Runtime.h"
#include "exo/ExoPlatform.h"
#include "serve/Server.h"

#include <gtest/gtest.h>

using namespace exochi;

namespace {

constexpr const char *VecAddAsm = R"(
  shl.1.dw vr1 = i, 3
  ld.8.dw  [vr2..vr9]   = (A, vr1, 0)
  ld.8.dw  [vr10..vr17] = (B, vr1, 0)
  add.8.dw [vr18..vr25] = [vr2..vr9], [vr10..vr17]
  st.8.dw  (C, vr1, 0)  = [vr18..vr25]
  halt
)";

/// splitmix64 — seeds the per-run input surfaces.
uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

/// Platform with \p Devices GMA devices + runtime + vecadd + seeded
/// input surfaces; Shreds shreds of 8 elements each.
struct ClusterRig {
  static exo::PlatformConfig configFor(unsigned Devices) {
    exo::PlatformConfig C;
    C.NumDevices = Devices;
    return C;
  }

  ClusterRig(unsigned Devices, uint64_t Seed = 1, unsigned Shreds = 32)
      : Platform(configFor(Devices)), RT(Platform), Shreds(Shreds),
        N(Shreds * 8) {
    chi::ProgramBuilder PB;
    cantFail(PB.addXgmaKernel("vecadd", VecAddAsm, {"i"}, {"A", "B", "C"})
                 .takeError());
    cantFail(RT.loadBinary(PB.take()));
    A = Platform.allocateShared(N * 4, "A");
    B = Platform.allocateShared(N * 4, "B");
    C = Platform.allocateShared(N * 4, "C");
    for (unsigned K = 0; K < N; ++K) {
      Platform.store<int32_t>(A.Base + K * 4,
                              static_cast<int32_t>(mix64(Seed * N + K)));
      Platform.store<int32_t>(B.Base + K * 4,
                              static_cast<int32_t>(mix64(Seed * N + K + N)));
      Platform.store<int32_t>(C.Base + K * 4, 0);
    }
    ADesc = cantFail(RT.allocDesc(chi::TargetIsa::X3000, A.Base,
                                  chi::SurfaceMode::Input, N, 1));
    BDesc = cantFail(RT.allocDesc(chi::TargetIsa::X3000, B.Base,
                                  chi::SurfaceMode::Input, N, 1));
    CDesc = cantFail(RT.allocDesc(chi::TargetIsa::X3000, C.Base,
                                  chi::SurfaceMode::Output, N, 1));
  }

  chi::RegionSpec makeRegion() const {
    chi::RegionSpec Spec;
    Spec.KernelName = "vecadd";
    Spec.NumThreads = Shreds;
    Spec.SharedDescs = {{"A", ADesc}, {"B", BDesc}, {"C", CDesc}};
    Spec.Private["i"] = [](unsigned T) { return static_cast<int32_t>(T); };
    return Spec;
  }

  std::vector<int32_t> readC() {
    std::vector<int32_t> Out(N);
    for (unsigned K = 0; K < N; ++K)
      Out[K] = Platform.load<int32_t>(C.Base + K * 4);
    return Out;
  }

  void verifyResult() {
    std::vector<int32_t> Out = readC();
    // add.dw wraps mod 2^32; the reference adds unsigned so it wraps
    // too instead of overflowing a signed int.
    for (unsigned K = 0; K < N; ++K)
      ASSERT_EQ(Out[K], static_cast<int32_t>(
                            Platform.load<uint32_t>(A.Base + K * 4) +
                            Platform.load<uint32_t>(B.Base + K * 4)))
          << "element " << K;
  }

  exo::ExoPlatform Platform;
  chi::Runtime RT;
  unsigned Shreds, N;
  exo::SharedBuffer A, B, C;
  uint32_t ADesc = 0, BDesc = 0, CDesc = 0;
};

} // namespace

//===----------------------------------------------------------------------===//
// Device-global kernel table
//===----------------------------------------------------------------------===//

TEST(ClusterTest, KernelTableIsSharedAcrossDevices) {
  ClusterRig R(/*Devices=*/3);
  ASSERT_EQ(R.Platform.numDevices(), 3u);
  // One table object, every device sees every registered kernel (and
  // its decode cache) without per-device re-registration.
  EXPECT_EQ(R.Platform.device(0).kernelTable().get(),
            R.Platform.device(1).kernelTable().get());
  EXPECT_EQ(R.Platform.device(0).kernelTable().get(),
            R.Platform.device(2).kernelTable().get());
  for (unsigned D = 0; D < 3; ++D) {
    const gma::KernelImage *K = R.Platform.device(D).kernel(1);
    ASSERT_NE(K, nullptr) << "device " << D;
    EXPECT_EQ(K->Name, "vecadd");
  }
}

//===----------------------------------------------------------------------===//
// Sharding & stealing
//===----------------------------------------------------------------------===//

TEST(ClusterTest, ShardRowsCoverEveryShredExactlyOnce) {
  ClusterRig R(/*Devices=*/4);
  auto H = R.RT.dispatch(R.makeRegion());
  ASSERT_TRUE(static_cast<bool>(H)) << H.message();
  const chi::RegionStats *S = R.RT.regionStats(*H);
  ASSERT_FALSE(S->DeadlinePreempted);
  R.verifyResult();

  ASSERT_GE(S->Shards.size(), 2u) << "a 4-device dispatch must shard";
  uint64_t Sum = 0;
  unsigned PrevLane = 0;
  bool First = true;
  for (const chi::ShardStat &Row : S->Shards) {
    EXPECT_GT(Row.Shreds, 0u) << "lane " << Row.Lane;
    if (!First) {
      EXPECT_GT(Row.Lane, PrevLane) << "rows must be sorted by lane";
    }
    First = false;
    PrevLane = Row.Lane;
    if (Row.HostLane) {
      EXPECT_EQ(Row.Lane, R.Platform.numDevices());
    } else {
      EXPECT_LT(Row.Lane, R.Platform.numDevices());
    }
    Sum += Row.Shreds;
  }
  EXPECT_EQ(Sum, R.Shreds) << "every shred executed on exactly one lane";
  EXPECT_EQ(S->Device.ShredsExecuted, R.Shreds);
}

TEST(ClusterTest, HostLaneStealsFromBusyDevices) {
  ClusterRig R(/*Devices=*/2);
  cluster::ClusterConfig CC;
  CC.ChunkShreds = 4; // small chunks leave plenty to steal
  R.RT.setClusterConfig(CC);
  auto H = R.RT.dispatch(R.makeRegion());
  ASSERT_TRUE(static_cast<bool>(H)) << H.message();
  const chi::RegionStats *S = R.RT.regionStats(*H);
  R.verifyResult();

  const chi::ShardStat *Host = nullptr;
  for (const chi::ShardStat &Row : S->Shards)
    if (Row.HostLane)
      Host = &Row;
  ASSERT_NE(Host, nullptr) << "the IA32 lane never executed a shred";
  EXPECT_GT(Host->Stolen, 0u)
      << "the host lane only acquires work by stealing";
  EXPECT_EQ(Host->Shreds, Host->Stolen);
}

TEST(ClusterTest, StealSeedVariesScheduleNeverResults) {
  std::vector<int32_t> Baseline;
  for (uint64_t StealSeed : {0ull, 1ull, 99ull}) {
    ClusterRig R(/*Devices=*/4, /*Seed=*/7);
    cluster::ClusterConfig CC;
    CC.StealSeed = StealSeed;
    CC.ChunkShreds = 4;
    R.RT.setClusterConfig(CC);
    auto H = R.RT.dispatch(R.makeRegion());
    ASSERT_TRUE(static_cast<bool>(H)) << H.message();
    if (Baseline.empty()) {
      Baseline = R.readC();
    } else {
      EXPECT_EQ(R.readC(), Baseline)
          << "surfaces diverged at steal seed " << StealSeed;
    }
    // Same seed twice: the steal trace itself is deterministic.
    ClusterRig R2(/*Devices=*/4, /*Seed=*/7);
    R2.RT.setClusterConfig(CC);
    auto H2 = R2.RT.dispatch(R2.makeRegion());
    ASSERT_TRUE(static_cast<bool>(H2)) << H2.message();
    EXPECT_EQ(R2.RT.regionStats(*H2)->Shards, R.RT.regionStats(*H)->Shards)
        << "steal trace not reproducible at seed " << StealSeed;
  }
}

//===----------------------------------------------------------------------===//
// Deadlines across shards
//===----------------------------------------------------------------------===//

TEST(ClusterTest, DeadlinePreemptsFleetWideAndAccountsEveryShred) {
  ClusterRig R(/*Devices=*/2);
  chi::RegionSpec Spec = R.makeRegion();
  Spec.DeadlineNs = 1.0; // expires before the first epoch completes
  auto H = R.RT.dispatch(Spec);
  ASSERT_TRUE(static_cast<bool>(H)) << H.message();
  const chi::RegionStats *S = R.RT.regionStats(*H);
  EXPECT_TRUE(S->DeadlinePreempted);
  EXPECT_GT(S->Device.ShredsPreempted, 0u);
  EXPECT_EQ(S->Device.ShredsExecuted + S->Device.ShredsPreempted, R.Shreds)
      << "every shred either executed or was preempted, exactly once";
}

//===----------------------------------------------------------------------===//
// Serving across shards
//===----------------------------------------------------------------------===//

TEST(ClusterTest, BreakerSpansTheFleet) {
  ClusterRig R(/*Devices=*/3);
  serve::Server S(R.RT);
  EXPECT_EQ(S.breaker().numEus(),
            R.Platform.config().Gma.NumEus * R.Platform.numDevices())
      << "one breaker unit per EU across every device";
}

TEST(ClusterTest, ShardDrainRoutesJobsAroundTheDevice) {
  ClusterRig R(/*Devices=*/2);
  serve::Server S(R.RT);
  S.setShardDrain(0, true);
  EXPECT_TRUE(S.shardDrained(0));

  serve::JobSpec J;
  J.Region = R.makeRegion();
  ASSERT_TRUE(S.submit(J).Admitted);
  ASSERT_TRUE(S.runNext().has_value());
  ASSERT_EQ(S.jobs().front().State, serve::JobState::Completed);
  R.verifyResult();
  for (const chi::ShardStat &Row : S.stats().Shards)
    EXPECT_NE(Row.Lane, 0u) << "a drained shard must receive no work";

  // Lifting the drain readmits the device on the next dispatch.
  S.setShardDrain(0, false);
  serve::JobSpec J2;
  J2.Region = R.makeRegion();
  ASSERT_TRUE(S.submit(J2).Admitted);
  ASSERT_TRUE(S.runNext().has_value());
  bool Lane0 = false;
  for (const chi::ShardStat &Row : S.stats().Shards)
    Lane0 |= Row.Lane == 0;
  EXPECT_TRUE(Lane0) << "the readmitted device never rejoined";
}

//===----------------------------------------------------------------------===//
// The determinism soak: 8 seeds x devices {1,2,4} x steal on/off —
// bit-identical surface outputs.
//===----------------------------------------------------------------------===//

TEST(ClusterSoakTest, SurfacesBitIdenticalAcrossDevicesThreadsAndStealing) {
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    std::vector<int32_t> Baseline;
    for (unsigned Devices : {1u, 2u, 4u}) {
      for (bool Steal : {true, false}) {
        ClusterRig R(Devices, Seed);
        cluster::ClusterConfig CC;
        CC.Steal = Steal;
        CC.StealSeed = Seed;
        R.RT.setClusterConfig(CC);
        auto H = R.RT.dispatch(R.makeRegion());
        ASSERT_TRUE(static_cast<bool>(H)) << H.message();
        ASSERT_EQ(R.RT.regionStats(*H)->Device.ShredsExecuted, R.Shreds);
        if (Baseline.empty()) {
          Baseline = R.readC();
          R.verifyResult();
        } else {
          ASSERT_EQ(R.readC(), Baseline)
              << "devices=" << Devices << " steal=" << Steal;
        }
      }
    }
  }
}
