//===- tests/serve_test.cpp - ExoServe scheduling & protection ---------------===//
//
// Tests for the ExoServe job layer (DESIGN.md §12): bounded admission
// with quotas/priorities/shedding, cycle-based deadline budgets enforced
// at epoch boundaries, the per-EU circuit breaker fed by FaultLab
// signals, graceful drain, and the liveness + determinism contracts —
// every submitted job reaches a terminal state, bit-identically in
// every replay of a seed (the chaos soak).
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "chi/ProgramBuilder.h"
#include "chi/Runtime.h"
#include "chi/TaskQueue.h"
#include "exo/ExoPlatform.h"
#include "fault/FaultInjector.h"
#include "gma/Gma.h"
#include "net/NetClient.h"
#include "net/NetServer.h"
#include "support/Format.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>

using namespace exochi;
using namespace exochi::serve;

namespace {

//===----------------------------------------------------------------------===//
// JobQueue units
//===----------------------------------------------------------------------===//

TEST(JobQueueTest, StrictPriorityFifoWithinClass) {
  JobQueue Q;
  ASSERT_TRUE(Q.tryAdmit(1, Priority::Low, 0).Admitted);
  ASSERT_TRUE(Q.tryAdmit(2, Priority::High, 0).Admitted);
  ASSERT_TRUE(Q.tryAdmit(3, Priority::Normal, 0).Admitted);
  ASSERT_TRUE(Q.tryAdmit(4, Priority::High, 0).Admitted);
  EXPECT_EQ(Q.size(), 4u);
  EXPECT_EQ(Q.pop(), std::optional<JobId>(2)); // high, oldest first
  EXPECT_EQ(Q.pop(), std::optional<JobId>(4));
  EXPECT_EQ(Q.pop(), std::optional<JobId>(3));
  EXPECT_EQ(Q.pop(), std::optional<JobId>(1));
  EXPECT_EQ(Q.pop(), std::nullopt);
  EXPECT_TRUE(Q.empty());
}

TEST(JobQueueTest, PerClientQuota) {
  JobQueueConfig C;
  C.PerClientCap = 2;
  JobQueue Q(C);
  ASSERT_TRUE(Q.tryAdmit(1, Priority::Normal, 7).Admitted);
  ASSERT_TRUE(Q.tryAdmit(2, Priority::Normal, 7).Admitted);
  JobQueue::Admission A = Q.tryAdmit(3, Priority::High, 7);
  EXPECT_FALSE(A.Admitted);
  EXPECT_EQ(A.Reason, RejectReason::ClientQuota);
  // Another client is unaffected, and popping frees the quota.
  EXPECT_TRUE(Q.tryAdmit(4, Priority::Normal, 8).Admitted);
  EXPECT_EQ(Q.clientLoad(7), 2u);
  ASSERT_TRUE(Q.pop().has_value());
  EXPECT_TRUE(Q.tryAdmit(5, Priority::Normal, 7).Admitted);
}

TEST(JobQueueTest, ShedsYoungestLowestBelowArrival) {
  JobQueueConfig C;
  C.Capacity = 3;
  JobQueue Q(C);
  ASSERT_TRUE(Q.tryAdmit(1, Priority::Low, 0).Admitted);
  ASSERT_TRUE(Q.tryAdmit(2, Priority::Low, 0).Admitted);
  ASSERT_TRUE(Q.tryAdmit(3, Priority::Normal, 0).Admitted);

  // A Low arrival has no victim strictly below it: queue-full.
  JobQueue::Admission Low = Q.tryAdmit(4, Priority::Low, 0);
  EXPECT_FALSE(Low.Admitted);
  EXPECT_EQ(Low.Reason, RejectReason::QueueFull);

  // A High arrival evicts the *youngest* Low entry (id 2, not 1).
  JobQueue::Admission High = Q.tryAdmit(5, Priority::High, 0);
  EXPECT_TRUE(High.Admitted);
  EXPECT_EQ(High.Shed, 2u);
  EXPECT_EQ(Q.size(), 3u);

  // Normal evicts the remaining Low; the next Normal finds only
  // Normal/High below-nothing and is rejected.
  JobQueue::Admission Norm = Q.tryAdmit(6, Priority::Normal, 0);
  EXPECT_TRUE(Norm.Admitted);
  EXPECT_EQ(Norm.Shed, 1u);
  JobQueue::Admission Norm2 = Q.tryAdmit(7, Priority::Normal, 0);
  EXPECT_FALSE(Norm2.Admitted);
  EXPECT_EQ(Norm2.Reason, RejectReason::QueueFull);

  // Pop order after the shedding: 5 (high), then 3, 6 (normal FIFO).
  EXPECT_EQ(Q.pop(), std::optional<JobId>(5));
  EXPECT_EQ(Q.pop(), std::optional<JobId>(3));
  EXPECT_EQ(Q.pop(), std::optional<JobId>(6));
}

TEST(JobQueueTest, DrainAllReturnsPopOrderAndEmpties) {
  JobQueue Q;
  ASSERT_TRUE(Q.tryAdmit(1, Priority::Low, 1).Admitted);
  ASSERT_TRUE(Q.tryAdmit(2, Priority::High, 2).Admitted);
  ASSERT_TRUE(Q.tryAdmit(3, Priority::Normal, 1).Admitted);
  std::vector<JobId> Ids = Q.drainAll();
  EXPECT_EQ(Ids, (std::vector<JobId>{2, 3, 1}));
  EXPECT_TRUE(Q.empty());
  EXPECT_EQ(Q.clientLoad(1), 0u);
  EXPECT_EQ(Q.clientLoad(2), 0u);
}

//===----------------------------------------------------------------------===//
// Breaker units
//===----------------------------------------------------------------------===//

namespace {
/// One finished job in which \p Eus failed (device casualty list).
void failJob(Breaker &B, std::vector<unsigned> Eus) { B.onJobEnd(Eus); }
void cleanJob(Breaker &B) { B.onJobEnd({}); }
} // namespace

TEST(BreakerTest, TripsAfterConsecutiveFailingJobs) {
  Breaker B(2, BreakerConfig{/*TripThreshold=*/2, /*CooldownJobs=*/4,
                             /*MaxCooldownJobs=*/64});
  failJob(B, {0});
  EXPECT_EQ(B.state(0), Breaker::State::Closed);
  EXPECT_FALSE(B.quarantined(0));
  failJob(B, {0});
  EXPECT_EQ(B.state(0), Breaker::State::Open);
  EXPECT_TRUE(B.quarantined(0));
  EXPECT_EQ(B.state(1), Breaker::State::Closed);
  EXPECT_EQ(B.stats().Trips, 1u);
}

TEST(BreakerTest, CleanJobResetsConsecutiveCount) {
  Breaker B(1, BreakerConfig{2, 4, 64});
  failJob(B, {0});
  cleanJob(B);
  failJob(B, {0});
  EXPECT_EQ(B.state(0), Breaker::State::Closed) << "clean job must reset";
}

TEST(BreakerTest, CooldownProbeThenReadmit) {
  Breaker B(1, BreakerConfig{/*TripThreshold=*/1, /*CooldownJobs=*/3, 64});
  failJob(B, {0});
  ASSERT_EQ(B.state(0), Breaker::State::Open);
  // Quarantined EUs see no work, so cooldown jobs are clean by
  // construction; after CooldownJobs the breaker probes.
  cleanJob(B);
  cleanJob(B);
  EXPECT_EQ(B.state(0), Breaker::State::Open);
  cleanJob(B);
  EXPECT_EQ(B.state(0), Breaker::State::HalfOpen);
  EXPECT_FALSE(B.quarantined(0)) << "a probe readmits the EU";
  EXPECT_EQ(B.stats().Probes, 1u);
  cleanJob(B); // the probe job passes
  EXPECT_EQ(B.state(0), Breaker::State::Closed);
  EXPECT_EQ(B.stats().Readmits, 1u);
}

TEST(BreakerTest, FailedProbeReopensWithDoubledCooldown) {
  Breaker B(1, BreakerConfig{/*TripThreshold=*/1, /*CooldownJobs=*/2,
                             /*MaxCooldownJobs=*/64});
  failJob(B, {0});                      // trip #1, cooldown 2
  cleanJob(B);
  cleanJob(B);                          // -> HalfOpen
  ASSERT_EQ(B.state(0), Breaker::State::HalfOpen);
  failJob(B, {0});                      // probe fails: trip #2, cooldown 4
  EXPECT_EQ(B.state(0), Breaker::State::Open);
  EXPECT_EQ(B.stats().Trips, 2u);
  unsigned JobsToProbe = 0;
  while (B.state(0) == Breaker::State::Open) {
    cleanJob(B);
    ++JobsToProbe;
    ASSERT_LE(JobsToProbe, 16u);
  }
  EXPECT_EQ(JobsToProbe, 4u) << "cooldown must double after a failed probe";
}

TEST(BreakerTest, OnlyEuHardFailSignalsCount) {
  Breaker B(2, BreakerConfig{/*TripThreshold=*/1, 4, 64});
  fault::FaultSite S;
  S.Kind = fault::FaultKind::AtrTransient;
  S.Key = 0;
  B.noteFault(S);
  cleanJob(B);
  EXPECT_EQ(B.state(0), Breaker::State::Closed)
      << "non-EU-health faults must not trip the breaker";

  S.Kind = fault::FaultKind::EuHardFail;
  S.Key = 1;
  B.noteFault(S);
  cleanJob(B);
  EXPECT_EQ(B.state(1), Breaker::State::Open)
      << "live EuHardFail signals count as failures for the job in flight";
  EXPECT_EQ(B.state(0), Breaker::State::Closed);
}

//===----------------------------------------------------------------------===//
// Full-stack rig
//===----------------------------------------------------------------------===//

constexpr const char *VecAddAsm = R"(
  shl.1.dw vr1 = i, 3
  ld.8.dw  [vr2..vr9]   = (A, vr1, 0)
  ld.8.dw  [vr10..vr17] = (B, vr1, 0)
  add.8.dw [vr18..vr25] = [vr2..vr9], [vr10..vr17]
  st.8.dw  (C, vr1, 0)  = [vr18..vr25]
  halt
)";

/// Platform + runtime + vecadd binary + surfaces, ready to mint JobSpecs.
struct ServeRig {
  explicit ServeRig(unsigned N = 64) : RT(Platform), N(N) {
    chi::ProgramBuilder PB;
    cantFail(
        PB.addXgmaKernel("vecadd", VecAddAsm, {"i"}, {"A", "B", "C"})
            .takeError());
    cantFail(RT.loadBinary(PB.take()));
    A = Platform.allocateShared(N * 4, "A");
    B = Platform.allocateShared(N * 4, "B");
    C = Platform.allocateShared(N * 4, "C");
    for (unsigned K = 0; K < N; ++K) {
      Platform.store<int32_t>(A.Base + K * 4, static_cast<int32_t>(K));
      Platform.store<int32_t>(B.Base + K * 4, static_cast<int32_t>(K * 10));
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
    Spec.NumThreads = N / 8;
    Spec.SharedDescs = {{"A", ADesc}, {"B", BDesc}, {"C", CDesc}};
    Spec.Private["i"] = [](unsigned T) { return static_cast<int32_t>(T); };
    return Spec;
  }

  JobSpec makeJob(uint32_t Client = 0, Priority Pri = Priority::Normal,
                  int64_t DeadlineCycles = -1) const {
    JobSpec J;
    J.ClientId = Client;
    J.Pri = Pri;
    J.Region = makeRegion();
    J.DeadlineCycles = DeadlineCycles;
    return J;
  }

  void verifyResult() {
    for (unsigned K = 0; K < N; ++K)
      ASSERT_EQ(Platform.load<int32_t>(C.Base + K * 4),
                static_cast<int32_t>(K * 11))
          << "element " << K;
  }

  exo::ExoPlatform Platform;
  chi::Runtime RT;
  unsigned N;
  exo::SharedBuffer A, B, C;
  uint32_t ADesc = 0, BDesc = 0, CDesc = 0;
};

} // namespace

//===----------------------------------------------------------------------===//
// Deadline edge cases (satellite: exact finish, zero budget, racing EXIT)
//===----------------------------------------------------------------------===//

// A job whose budget equals its natural duration *completes*: the device
// preempts only when the next event would land strictly beyond the
// deadline, so finishing exactly at the budget is within budget. A hair
// less and the watchdog wins the race at the final epoch boundary.
TEST(ServeDeadlineTest, FinishExactlyAtBudgetCompletes) {
  // Probe the natural duration on a pristine rig.
  chi::TimeNs Natural = 0;
  {
    ServeRig R;
    auto H = R.RT.dispatch(R.makeRegion());
    ASSERT_TRUE(static_cast<bool>(H)) << H.message();
    const chi::RegionStats *S = R.RT.regionStats(*H);
    ASSERT_FALSE(S->DeadlinePreempted);
    Natural = S->DeviceFinishNs - S->DeviceStartNs;
    ASSERT_GT(Natural, 0);
  }

  // Deadline == natural duration: the run's last event lands exactly
  // on the deadline and must NOT be preempted (the simulation is
  // deterministic, so the probe transfers exactly).
  {
    ServeRig R;
    chi::RegionSpec Spec = R.makeRegion();
    Spec.DeadlineNs = Natural;
    auto H = R.RT.dispatch(Spec);
    ASSERT_TRUE(static_cast<bool>(H)) << H.message();
    const chi::RegionStats *S = R.RT.regionStats(*H);
    EXPECT_FALSE(S->DeadlinePreempted)
        << "finishing exactly at the budget is within budget";
    EXPECT_EQ(S->Device.ShredsPreempted, 0u);
    R.verifyResult();
  }

  // A hair under the natural duration: the final event would land
  // past the deadline, so the watchdog preempts at that boundary.
  {
    ServeRig R;
    chi::RegionSpec Spec = R.makeRegion();
    Spec.DeadlineNs = Natural * 0.999;
    auto H = R.RT.dispatch(Spec);
    ASSERT_TRUE(static_cast<bool>(H)) << H.message();
    const chi::RegionStats *S = R.RT.regionStats(*H);
    EXPECT_TRUE(S->DeadlinePreempted);
    EXPECT_GE(S->Device.ShredsPreempted, 1u);
    // Preemption lands at the epoch boundary before the deadline;
    // ops already in flight still retire, so finish sits between the
    // deadline and the natural duration.
    EXPECT_LT(S->Device.FinishNs - S->Device.StartNs, Natural);
  }
}

// Deadline preemption is bit-identical when a run is replayed.
TEST(ServeDeadlineTest, PreemptionReplaysBitIdentically) {
  gma::GmaRunStats First;
  for (unsigned Run = 0; Run < 2; ++Run) {
    ServeRig R;
    chi::RegionSpec Spec = R.makeRegion();
    Spec.DeadlineNs = 40.0; // cuts the run mid-flight
    auto H = R.RT.dispatch(Spec);
    ASSERT_TRUE(static_cast<bool>(H)) << H.message();
    const chi::RegionStats *S = R.RT.regionStats(*H);
    ASSERT_TRUE(S->DeadlinePreempted);
    if (Run == 0) {
      First = S->Device;
      continue;
    }
    EXPECT_TRUE(S->Device == First)
        << "preempted-run stats diverge: preempted "
        << S->Device.ShredsPreempted << " vs " << First.ShredsPreempted;
  }
}

// Zero budget is rejected at admission — it never reaches the device.
TEST(ServeDeadlineTest, ZeroBudgetRejectedAtAdmission) {
  ServeRig R;
  Server Srv(R.RT);
  Server::SubmitResult Res = Srv.submit(R.makeJob(0, Priority::High, 0));
  EXPECT_FALSE(Res.Admitted);
  EXPECT_EQ(Res.Reason, RejectReason::ZeroBudget);
  const JobRecord *J = Srv.job(Res.Id);
  ASSERT_NE(J, nullptr);
  EXPECT_EQ(J->State, JobState::Rejected);
  EXPECT_TRUE(J->terminal());
  EXPECT_EQ(Srv.stats().RejectedZeroBudget, 1u);
  EXPECT_EQ(Srv.runNext(), std::nullopt);
}

//===----------------------------------------------------------------------===//
// Quarantine plumbing (device level)
//===----------------------------------------------------------------------===//

// Quarantine is policy state: it survives resetStats (which heals
// Offline), and with every EU quarantined the queue still drains through
// the IA32 host lane — quarantine degrades, never wedges.
TEST(ServeQuarantineTest, SurvivesResetAndFallsBackToHost) {
  ServeRig R;
  gma::GmaDevice &D = R.Platform.device();
  for (unsigned K = 0; K < R.Platform.config().Gma.NumEus; ++K)
    D.setEuQuarantine(K, true);
  D.resetStats();
  for (unsigned K = 0; K < R.Platform.config().Gma.NumEus; ++K)
    EXPECT_TRUE(D.euQuarantined(K)) << "EU " << K;

  auto H = R.RT.dispatch(R.makeRegion());
  ASSERT_TRUE(static_cast<bool>(H)) << H.message();
  R.verifyResult();
  EXPECT_GT(R.RT.regionStats(*H)->Device.HostRedispatches, 0u);

  // Lift the quarantine: the next dispatch runs on the EUs again.
  for (unsigned K = 0; K < R.Platform.config().Gma.NumEus; ++K)
    D.setEuQuarantine(K, false);
  auto H2 = R.RT.dispatch(R.makeRegion());
  ASSERT_TRUE(static_cast<bool>(H2)) << H2.message();
  EXPECT_EQ(R.RT.regionStats(*H2)->Device.HostRedispatches, 0u);
  R.verifyResult();
}

//===----------------------------------------------------------------------===//
// Injector reset wiring (satellite: back-to-back runs replay)
//===----------------------------------------------------------------------===//

// FaultInjector::reset rewinds the per-site occurrence counters and the
// fired log while keeping seed/rates/observer: the same decisions replay.
TEST(ServeInjectorTest, ResetReplaysDecisions) {
  fault::FaultInjector Inj(/*Seed=*/5);
  Inj.setRate(fault::FaultKind::AtrTransient, 0.5);
  std::vector<bool> First;
  for (unsigned K = 0; K < 32; ++K)
    First.push_back(Inj.shouldInject(fault::FaultKind::AtrTransient, K % 4));
  size_t FiredBefore = Inj.fired().size();
  EXPECT_GT(FiredBefore, 0u);

  Inj.reset();
  EXPECT_TRUE(Inj.fired().empty());
  for (unsigned K = 0; K < 32; ++K)
    EXPECT_EQ(Inj.shouldInject(fault::FaultKind::AtrTransient, K % 4),
              First[K])
        << "probe " << K;
  EXPECT_EQ(Inj.fired().size(), FiredBefore);
}

// Run setup (GmaDevice::resetStats) now rewinds the injector, so two
// identical dispatches see the identical fault schedule. A single-shred
// region is used deliberately: its per-EU probe/occurrence sequence is
// program order, independent of the device TLB/cache state that warms
// across runs (which only shifts timings, not the probe sequence) —
// only eu-hard-fail is armed, whose probes fire per memory op, not per
// translation miss.
TEST(ServeInjectorTest, BackToBackDispatchesReplayFaultSchedule) {
  ServeRig R;
  fault::FaultInjector Inj(/*Seed=*/11);
  Inj.setRate(fault::FaultKind::EuHardFail, 0.2);
  R.Platform.armFaultInjection(&Inj);

  chi::RegionSpec Spec = R.makeRegion();
  Spec.NumThreads = 1;

  auto H1 = R.RT.dispatch(Spec);
  ASSERT_TRUE(static_cast<bool>(H1)) << H1.message();
  std::vector<fault::FaultSite> FirstRun = Inj.fired();
  ASSERT_GT(FirstRun.size(), 0u) << "rate too low to exercise the probes";

  auto H2 = R.RT.dispatch(Spec);
  ASSERT_TRUE(static_cast<bool>(H2)) << H2.message();
  ASSERT_EQ(Inj.fired().size(), FirstRun.size())
      << "second run must replay, not continue, the fault schedule";
  for (size_t K = 0; K < FirstRun.size(); ++K)
    EXPECT_TRUE(Inj.fired()[K] == FirstRun[K])
        << "site " << K << ": " << Inj.fired()[K].str() << " vs "
        << FirstRun[K].str();
  EXPECT_EQ(R.RT.regionStats(*H1)->Device.FaultsInjected,
            R.RT.regionStats(*H2)->Device.FaultsInjected);
  EXPECT_EQ(R.RT.regionStats(*H1)->Device.EusOfflined,
            R.RT.regionStats(*H2)->Device.EusOfflined);
}

//===----------------------------------------------------------------------===//
// Server end-to-end
//===----------------------------------------------------------------------===//

TEST(ServerTest, RunsSubmittedJobsToCompletion) {
  ServeRig R;
  Server Srv(R.RT);
  std::vector<JobId> Ids;
  for (int K = 0; K < 5; ++K) {
    Server::SubmitResult Res = Srv.submit(R.makeJob(K % 2));
    ASSERT_TRUE(Res.Admitted);
    Ids.push_back(Res.Id);
  }
  Srv.runAll();
  for (JobId Id : Ids) {
    const JobRecord *J = Srv.job(Id);
    ASSERT_NE(J, nullptr);
    EXPECT_EQ(J->State, JobState::Completed) << "job " << Id;
    EXPECT_GE(J->EndNs, J->StartNs);
    EXPECT_GE(J->StartNs, J->SubmitNs);
  }
  EXPECT_EQ(Srv.stats().Completed, 5u);
  EXPECT_EQ(Srv.stats().Admitted, 5u);
  R.verifyResult();
}

TEST(ServerTest, HighPriorityRunsFirst) {
  ServeRig R;
  Server Srv(R.RT);
  JobId Low = Srv.submit(R.makeJob(0, Priority::Low)).Id;
  JobId High = Srv.submit(R.makeJob(0, Priority::High)).Id;
  EXPECT_EQ(Srv.runNext(), std::optional<JobId>(High));
  EXPECT_EQ(Srv.runNext(), std::optional<JobId>(Low));
}

TEST(ServerTest, DrainClosesAdmissionAndRunsQueuedJobs) {
  ServeRig R;
  Server Srv(R.RT);
  for (int K = 0; K < 4; ++K)
    ASSERT_TRUE(Srv.submit(R.makeJob()).Admitted);

  DrainSummary D = Srv.drain();
  EXPECT_EQ(D.QueuedAtDrain, 4u);
  EXPECT_EQ(D.RanToCompletion, 4u);
  EXPECT_EQ(D.Cancelled, 0u);
  EXPECT_GE(D.DrainEndNs, D.DrainStartNs);
  EXPECT_TRUE(Srv.draining());

  // Admission is closed: post-drain submissions are answered, not run.
  Server::SubmitResult Late = Srv.submit(R.makeJob());
  EXPECT_FALSE(Late.Admitted);
  EXPECT_EQ(Late.Reason, RejectReason::Draining);
  EXPECT_EQ(Srv.stats().RejectedDraining, 1u);

  // Idempotent on an empty queue.
  DrainSummary D2 = Srv.drain();
  EXPECT_EQ(D2.QueuedAtDrain, 0u);

  // The summary is machine-readable.
  EXPECT_NE(D.toJson().find("\"ran_to_completion\": 4"), std::string::npos)
      << D.toJson();
  R.verifyResult();
}

TEST(ServerTest, CancellingDrainMarksJobsDrained) {
  ServeRig R;
  Server Srv(R.RT);
  std::vector<JobId> Ids;
  for (int K = 0; K < 3; ++K)
    Ids.push_back(Srv.submit(R.makeJob()).Id);
  DrainSummary D = Srv.drain(/*CancelQueued=*/true);
  EXPECT_EQ(D.Cancelled, 3u);
  EXPECT_EQ(D.RanToCompletion, 0u);
  for (JobId Id : Ids) {
    EXPECT_EQ(Srv.job(Id)->State, JobState::Drained);
    EXPECT_TRUE(Srv.job(Id)->terminal());
  }
  EXPECT_EQ(Srv.stats().Drained, 3u);
}

TEST(ServerTest, UnknownKernelFailsJobWithoutPoisoningServer) {
  ServeRig R;
  Server Srv(R.RT);
  JobSpec Bad = R.makeJob();
  Bad.Region.KernelName = "no-such-kernel";
  JobId BadId = Srv.submit(std::move(Bad)).Id;
  JobId GoodId = Srv.submit(R.makeJob()).Id;
  Srv.runAll();
  EXPECT_EQ(Srv.job(BadId)->State, JobState::Failed);
  EXPECT_FALSE(Srv.job(BadId)->Error.empty());
  EXPECT_EQ(Srv.job(GoodId)->State, JobState::Completed);
  EXPECT_EQ(Srv.stats().Failed, 1u);
  R.verifyResult();
}

// Each dispatch of a kernel with scalar params takes fresh shred-record
// pages, and addresses are never reused. With one page left below 4 GiB
// the first job runs; the next fails with the reason instead of wrapping
// onto live page-table entries, and the server keeps answering.
TEST(ServerTest, AddressSpaceExhaustionFailsJobWithReason) {
  ServeRig R;
  mem::VirtAddr Next =
      R.Platform.allocateShared(1, "probe").Base + mem::PageSize;
  R.Platform.allocateShared(
      mem::VirtualAllocator::Limit - Next - mem::PageSize, "filler");
  ASSERT_TRUE(R.Platform.canAllocateShared(mem::PageSize));
  ASSERT_FALSE(R.Platform.canAllocateShared(mem::PageSize + 1));

  Server Srv(R.RT);
  JobId First = Srv.submit(R.makeJob()).Id;
  JobId Second = Srv.submit(R.makeJob()).Id;
  Srv.runAll();
  EXPECT_EQ(Srv.job(First)->State, JobState::Completed);
  R.verifyResult();
  const JobRecord *J = Srv.job(Second);
  EXPECT_EQ(J->State, JobState::Failed);
  EXPECT_NE(J->Error.find("4 GiB"), std::string::npos) << J->Error;

  JobId Third = Srv.submit(R.makeJob()).Id;
  Srv.runAll();
  EXPECT_EQ(Srv.job(Third)->State, JobState::Failed);
  EXPECT_EQ(Srv.stats().Completed, 1u);
  EXPECT_EQ(Srv.stats().Failed, 2u);
}

TEST(ServerTest, DeadlinePreemptedJobIsTerminalAndCounted) {
  ServeRig R;
  Server Srv(R.RT);
  JobId Id = Srv.submit(R.makeJob(0, Priority::Normal,
                                  /*DeadlineCycles=*/4)).Id;
  Srv.runAll();
  const JobRecord *J = Srv.job(Id);
  EXPECT_EQ(J->State, JobState::DeadlinePreempted);
  EXPECT_TRUE(J->terminal());
  EXPECT_GE(J->ShredsPreempted, 1u);
  EXPECT_EQ(Srv.stats().DeadlinePreempted, 1u);
  EXPECT_EQ(Srv.stats().Completed, 0u);
}

// With XCost admission on, the same doomed job never reaches the device:
// the static lower bound on the vecadd dispatch (8 shreds over 8 EUs at
// 8.5 issue cycles each) already exceeds a 4-cycle budget, so admission
// answers with a machine-readable cost-over-deadline rejection instead
// of dispatching and preempting.
TEST(ServerTest, CostAdmissionRejectsProvablyOverDeadlineJob) {
  ServeRig R;
  ServerConfig SC;
  SC.CostAdmission = true;
  Server Srv(R.RT, SC);
  Server::SubmitResult Res =
      Srv.submit(R.makeJob(0, Priority::Normal, /*DeadlineCycles=*/4));
  EXPECT_FALSE(Res.Admitted);
  EXPECT_EQ(Res.Reason, RejectReason::CostOverDeadline);
  const JobRecord *J = Srv.job(Res.Id);
  ASSERT_NE(J, nullptr);
  EXPECT_EQ(J->State, JobState::Rejected);
  EXPECT_TRUE(J->terminal());
  EXPECT_EQ(J->ShredsPreempted, 0u); // never dispatched
  EXPECT_EQ(Srv.stats().RejectedCostOverDeadline, 1u);
  EXPECT_EQ(Srv.stats().DeadlinePreempted, 0u);
  EXPECT_NE(Srv.statsJson().find("\"rejected_cost_over_deadline\": 1"),
            std::string::npos)
      << Srv.statsJson();
  EXPECT_STREQ(rejectReasonName(RejectReason::CostOverDeadline),
               "cost-over-deadline");
}

// A feasible budget sails through the same gate and completes: the
// admission check only fires on *provable* overruns, so it can never
// reject a job the watchdog would have let finish.
TEST(ServerTest, CostAdmissionPassesFeasibleBudgets) {
  ServeRig R;
  ServerConfig SC;
  SC.CostAdmission = true;
  Server Srv(R.RT, SC);
  Server::SubmitResult Res =
      Srv.submit(R.makeJob(0, Priority::Normal, /*DeadlineCycles=*/100000));
  ASSERT_TRUE(Res.Admitted);
  Srv.runAll();
  EXPECT_EQ(Srv.job(Res.Id)->State, JobState::Completed);
  EXPECT_EQ(Srv.stats().RejectedCostOverDeadline, 0u);
  R.verifyResult();

  // Unlimited budgets (server default) are never cost-gated.
  Server::SubmitResult Free = Srv.submit(R.makeJob());
  EXPECT_TRUE(Free.Admitted);
  Srv.runAll();
  EXPECT_EQ(Srv.job(Free.Id)->State, JobState::Completed);
}

// Under sustained EuHardFail injection the breaker trips, quarantines
// the failing EUs for subsequent jobs, and the server still answers
// every job (host lane underneath if every EU is out).
TEST(ServerTest, BreakerTripsAndJobsStillComplete) {
  ServeRig R;
  fault::FaultInjector Inj(/*Seed=*/42);
  Inj.setRate(fault::FaultKind::EuHardFail, 1.0);
  R.Platform.armFaultInjection(&Inj);

  ServerConfig SC;
  SC.Breaker.TripThreshold = 1;
  SC.Breaker.CooldownJobs = 64; // keep tripped EUs out for this test
  Server Srv(R.RT, SC, &Inj);

  for (int K = 0; K < 4; ++K)
    ASSERT_TRUE(Srv.submit(R.makeJob()).Admitted);
  Srv.runAll();

  EXPECT_EQ(Srv.stats().Completed, 4u);
  EXPECT_EQ(Srv.stats().Failed, 0u);
  EXPECT_GT(Srv.stats().BreakerTrips, 0u);
  EXPECT_GT(Srv.stats().FaultSignals[static_cast<unsigned>(
                fault::FaultKind::EuHardFail)],
            0u);
  unsigned Quarantined = 0;
  for (unsigned K = 0; K < Srv.breaker().numEus(); ++K)
    Quarantined += Srv.breaker().quarantined(K);
  EXPECT_GT(Quarantined, 0u);
  R.verifyResult();
}

// After the cooldown the breaker probes (HalfOpen) and, with injection
// disarmed, readmits the EU: the healing half of the state machine,
// end to end.
TEST(ServerTest, BreakerProbesAndReadmitsAfterCooldown) {
  ServeRig R;
  fault::FaultInjector Inj(/*Seed=*/42);
  Inj.setRate(fault::FaultKind::EuHardFail, 1.0);
  R.Platform.armFaultInjection(&Inj);

  ServerConfig SC;
  SC.Breaker.TripThreshold = 1;
  SC.Breaker.CooldownJobs = 2;
  Server Srv(R.RT, SC, &Inj);

  ASSERT_TRUE(Srv.submit(R.makeJob()).Admitted);
  Srv.runAll();
  ASSERT_GT(Srv.stats().BreakerTrips, 0u);

  // The fault clears (rate to zero): cooldown elapses, probe passes.
  Inj.setRate(fault::FaultKind::EuHardFail, 0.0);
  for (int K = 0; K < 6; ++K) {
    ASSERT_TRUE(Srv.submit(R.makeJob()).Admitted);
    Srv.runAll();
  }
  EXPECT_GT(Srv.stats().BreakerProbes, 0u);
  EXPECT_GT(Srv.stats().BreakerReadmits, 0u);
  for (unsigned K = 0; K < Srv.breaker().numEus(); ++K)
    EXPECT_EQ(Srv.breaker().state(K), Breaker::State::Closed) << "EU " << K;
  EXPECT_EQ(Srv.stats().Failed, 0u);
  R.verifyResult();
}

//===----------------------------------------------------------------------===//
// TaskQueue drain budgets
//===----------------------------------------------------------------------===//

// A taskq drain under a whole-queue budget stops once the budget is
// spent: a wave is preempted (or the remainder is dropped between
// waves), DeadlinePreempted is set, and the remaining tasks are
// discarded rather than run over budget.
TEST(ServeTaskQueueTest, DrainBudgetStopsWavefront) {
  // Chained tasks force one wave per task: plenty of boundaries for the
  // budget to land between.
  auto buildQueue = [](chi::TaskQueue &Q) {
    std::vector<chi::TaskQueue::TaskId> Ids;
    for (int K = 0; K < 6; ++K)
      Ids.push_back(Q.task({{"i", K}},
                           Ids.empty()
                               ? std::vector<chi::TaskQueue::TaskId>{}
                               : std::vector<chi::TaskQueue::TaskId>{
                                     Ids.back()}));
  };

  // An unbudgeted probe on a pristine rig gives the natural drain time
  // (a fresh rig again below: device caches warm across runs, so a
  // second drain on the same rig would be faster than the probe).
  chi::TimeNs Natural = 0;
  {
    ServeRig R;
    chi::TaskQueue Q(R.RT, "vecadd");
    Q.shared("A", R.ADesc).shared("B", R.BDesc).shared("C", R.CDesc);
    buildQueue(Q);
    auto S = Q.finish();
    ASSERT_TRUE(static_cast<bool>(S)) << S.message();
    EXPECT_FALSE(S->DeadlinePreempted);
    EXPECT_EQ(S->TasksCompleted, 6u);
    Natural = S->totalNs();
    ASSERT_GT(Natural, 0);
  }

  ServeRig R;
  chi::TaskQueue Q(R.RT, "vecadd");
  Q.shared("A", R.ADesc).shared("B", R.BDesc).shared("C", R.CDesc);
  buildQueue(Q);
  Q.deadlineNs(Natural / 2);
  auto S = Q.finish();
  ASSERT_TRUE(static_cast<bool>(S)) << S.message();
  EXPECT_TRUE(S->DeadlinePreempted);
  EXPECT_LT(S->TasksCompleted, 6u);
}

//===----------------------------------------------------------------------===//
// Chaos soak: liveness + determinism under overload, faults, deadlines
//===----------------------------------------------------------------------===//

namespace {

/// Everything observable about one served workload, for bit-exact
/// comparison between two runs of the same seed.
struct SoakOutcome {
  ServeStats Stats;
  DrainSummary Drain;
  // Per job: state, reason, preempted shreds, and the simulated clocks.
  std::vector<std::tuple<JobState, RejectReason, uint64_t, chi::TimeNs,
                         chi::TimeNs>>
      Jobs;

  bool operator==(const SoakOutcome &) const = default;
};

/// Submits 64 mixed-priority jobs from 4 clients against a 24-deep
/// queue under `all:` injection, runs 24, then drains gracefully.
SoakOutcome runSoak(uint64_t Seed) {
  ServeRig R;
  fault::FaultInjector Inj =
      cantFail(fault::FaultInjector::parse("all:0.1", Seed));
  R.Platform.armFaultInjection(&Inj);

  ServerConfig SC;
  SC.Queue.Capacity = 24;      // forces queue-full + shedding
  SC.Queue.PerClientCap = 10;  // forces client-quota rejections
  SC.Breaker.TripThreshold = 1;
  SC.Watchdog.DefaultBudgetCycles = 100000; // generous default
  Server Srv(R.RT, SC, &Inj);

  constexpr unsigned NumJobs = 64;
  for (unsigned J = 0; J < NumJobs; ++J) {
    // Mixed priorities and budgets: every 8th job has a zero budget
    // (rejected), every 5th a tight one (preempted or squeaks by).
    int64_t Cycles = -1;
    if (J % 8 == 7)
      Cycles = 0;
    else if (J % 5 == 0)
      Cycles = 40;
    Srv.submit(R.makeJob(/*Client=*/J % 4,
                         static_cast<Priority>(J % NumPriorities), Cycles));
  }

  unsigned Ran = 0;
  while (Ran < 24 && Srv.runNext())
    ++Ran;

  SoakOutcome Out;
  Out.Drain = Srv.drain();
  Out.Stats = Srv.stats();
  for (const JobRecord &J : Srv.jobs())
    Out.Jobs.push_back(
        {J.State, J.Reason, J.ShredsPreempted, J.StartNs, J.EndNs});
  return Out;
}

} // namespace

TEST(ServeSoakTest, EveryJobTerminalAndBitIdenticalOnReplay) {
  for (uint64_t Seed : {1u, 2u, 3u, 5u, 7u, 11u, 13u, 42u}) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    SoakOutcome First = runSoak(Seed);

    // Liveness: all 64 jobs reached a terminal state; the server never
    // hung, errored, or lost a job.
    ASSERT_EQ(First.Jobs.size(), 64u);
    for (size_t K = 0; K < First.Jobs.size(); ++K) {
      JobState St = std::get<0>(First.Jobs[K]);
      EXPECT_NE(St, JobState::Queued) << "job " << K + 1;
      EXPECT_NE(St, JobState::Running) << "job " << K + 1;
      EXPECT_NE(St, JobState::Failed) << "job " << K + 1
                                      << ": injected faults must degrade, "
                                         "not fail";
    }
    // The mix did exercise the protection machinery.
    EXPECT_EQ(First.Stats.RejectedZeroBudget, 8u);
    EXPECT_GT(First.Stats.RejectedQueueFull + First.Stats.Shed +
                  First.Stats.RejectedClientQuota,
              0u)
        << "overload path never engaged";
    EXPECT_EQ(First.Stats.Submitted, 64u);
    EXPECT_EQ(First.Stats.Completed + First.Stats.DeadlinePreempted +
                  First.Stats.Drained + First.Stats.Failed +
                  First.Stats.Shed + First.Stats.RejectedQueueFull +
                  First.Stats.RejectedClientQuota +
                  First.Stats.RejectedZeroBudget +
                  First.Stats.RejectedDraining,
              64u)
        << "every job accounted for exactly once";

    // Determinism: the whole served workload replays bit-identically.
    SoakOutcome Replay = runSoak(Seed);
    EXPECT_TRUE(Replay == First)
        << "served workload diverges on replay (completed "
        << Replay.Stats.Completed << " vs " << First.Stats.Completed
        << ", preempted " << Replay.Stats.DeadlinePreempted << " vs "
        << First.Stats.DeadlinePreempted << ")";
  }
}

//===----------------------------------------------------------------------===//
// Name tables
//===----------------------------------------------------------------------===//

TEST(ServeNamesTest, EnumsRenderStably) {
  EXPECT_STREQ(priorityName(Priority::High), "high");
  EXPECT_STREQ(rejectReasonName(RejectReason::QueueFull), "queue-full");
  EXPECT_STREQ(rejectReasonName(RejectReason::LoadShed), "load-shed");
  EXPECT_STREQ(jobStateName(JobState::DeadlinePreempted),
               "deadline-preempted");
  EXPECT_STREQ(jobStateName(JobState::Drained), "drained");
}

//===----------------------------------------------------------------------===//
// Mixed-deadline coalescing (PR regression: merge key vs budget)
//===----------------------------------------------------------------------===//

// Jobs with *different finite* budgets may merge; the batch must run
// under the tightest member budget, not the head's. A loose head job
// merged with a 10-cycle member must see the whole batch preempted —
// inheriting the head's billion-cycle budget instead would let the
// tight member silently overrun its deadline.
TEST(ServeCoalesceTest, MergedBatchInheritsTightestDeadline) {
  ServeRig R;
  Server Srv(R.RT);
  ASSERT_TRUE(
      Srv.submit(R.makeJob(0, Priority::Normal, 1'000'000'000)).Admitted);
  ASSERT_TRUE(Srv.submit(R.makeJob(0, Priority::Normal, 10)).Admitted);
  std::vector<JobId> Ran = Srv.runNextBatch(2);
  ASSERT_EQ(Ran.size(), 2u) << "same budget class: the jobs must merge";
  for (JobId Id : Ran) {
    const JobRecord *J = Srv.job(Id);
    ASSERT_NE(J, nullptr);
    EXPECT_EQ(J->BatchSize, 2u);
    EXPECT_EQ(J->State, JobState::DeadlinePreempted)
        << "job " << Id << ": the batch must run under the 10-cycle "
        << "member budget, not the loose head budget";
  }
}

// Sanity for the other direction: a loose budget alone is genuinely
// loose (the preemption above came from inheritance, not the head).
TEST(ServeCoalesceTest, LooseBudgetAloneCompletes) {
  ServeRig R;
  Server Srv(R.RT);
  ASSERT_TRUE(
      Srv.submit(R.makeJob(0, Priority::Normal, 1'000'000'000)).Admitted);
  ASSERT_TRUE(Srv.runNext().has_value());
  EXPECT_EQ(Srv.jobs().front().State, JobState::Completed);
  R.verifyResult();
}

// Budget *class* is the merge key: a bounded job must never drag a
// deadline onto an unbounded one (and vice versa), so the two run as
// separate singleton batches.
TEST(ServeCoalesceTest, BoundedAndUnboundedJobsDoNotMerge) {
  ServeRig R;
  Server Srv(R.RT);
  ASSERT_TRUE(Srv.submit(R.makeJob(0, Priority::Normal, 100)).Admitted);
  ASSERT_TRUE(Srv.submit(R.makeJob(0, Priority::Normal, -1)).Admitted);
  std::vector<JobId> First = Srv.runNextBatch(2);
  EXPECT_EQ(First.size(), 1u) << "budget classes differ: no merge";
  std::vector<JobId> Second = Srv.runNextBatch(2);
  EXPECT_EQ(Second.size(), 1u);
  for (const JobRecord &J : Srv.jobs()) {
    EXPECT_EQ(J.BatchSize, 1u);
    EXPECT_TRUE(J.terminal());
  }
}

//===----------------------------------------------------------------------===//
// Breaker reset symmetry with the fault injector
//===----------------------------------------------------------------------===//

// Server::reset() + FaultInjector::reset() must restore *both* halves
// of the protection state (breaker windows and fault schedule), so a
// second identical run replays the exact per-job trip/probe/readmit
// trace — the property operators rely on when bisecting a production
// trip sequence offline.
TEST(ServerTest, ResetReplaysIdenticalBreakerTrips) {
  ServeRig R;
  fault::FaultInjector Inj =
      cantFail(fault::FaultInjector::parse("eu-hard-fail:0.5", /*Seed=*/7));
  R.Platform.armFaultInjection(&Inj);

  ServerConfig SC;
  SC.Breaker.TripThreshold = 1;
  SC.Breaker.CooldownJobs = 2;
  Server Srv(R.RT, SC, &Inj);

  struct Snapshot {
    uint64_t Trips, Probes, Readmits;
    unsigned Quarantined;
    bool operator==(const Snapshot &) const = default;
  };
  auto Pass = [&](std::vector<Snapshot> &Trace) {
    for (int K = 0; K < 12; ++K) {
      EXPECT_TRUE(Srv.submit(R.makeJob()).Admitted);
      Srv.runAll();
      unsigned Q = 0;
      for (unsigned E = 0; E < Srv.breaker().numEus(); ++E)
        Q += Srv.breaker().quarantined(E);
      Trace.push_back({Srv.stats().BreakerTrips, Srv.stats().BreakerProbes,
                       Srv.stats().BreakerReadmits, Q});
    }
  };

  std::vector<Snapshot> First;
  Pass(First);
  ASSERT_GT(First.back().Trips, 0u) << "the scenario never tripped";

  Srv.reset();
  Inj.reset();
  std::vector<Snapshot> Second;
  Pass(Second);

  ASSERT_EQ(First.size(), Second.size());
  for (size_t K = 0; K < First.size(); ++K)
    EXPECT_TRUE(First[K] == Second[K])
        << "job " << K << ": trips " << First[K].Trips << " vs "
        << Second[K].Trips << ", probes " << First[K].Probes << " vs "
        << Second[K].Probes << ", readmits " << First[K].Readmits << " vs "
        << Second[K].Readmits << ", quarantined " << First[K].Quarantined
        << " vs " << Second[K].Quarantined;
}

//===----------------------------------------------------------------------===//
// Stats goldens: a 2-device job mix (host lane and stealing on), served
// over ExoNet with the hold/run/drain discipline so the whole workload is
// simulated and deterministic (DESIGN.md §13).
//===----------------------------------------------------------------------===//

namespace {

constexpr unsigned GoldenElems = 1024;

/// Little-endian i32 words: element K = K * Scale.
std::vector<uint8_t> goldenWords(int32_t Scale) {
  std::vector<uint8_t> Out;
  for (unsigned K = 0; K < GoldenElems; ++K) {
    uint32_t V = static_cast<uint32_t>(static_cast<int32_t>(K) * Scale);
    for (int B = 0; B < 4; ++B)
      Out.push_back(static_cast<uint8_t>(V >> (B * 8)));
  }
  return Out;
}

std::string hexBytes(const std::vector<uint8_t> &Bytes) {
  std::string Out;
  for (uint8_t B : Bytes)
    Out += formatString("%02x", B);
  return Out;
}

/// The keys of a JSON object text, in order of appearance.
std::vector<std::string> jsonKeys(const std::string &Json) {
  std::vector<std::string> Keys;
  for (size_t Pos = 0; (Pos = Json.find('"', Pos)) != std::string::npos;) {
    size_t End = Json.find('"', Pos + 1);
    if (End == std::string::npos)
      break;
    if (Json.compare(End + 1, 1, ":") == 0)
      Keys.push_back(Json.substr(Pos + 1, End - Pos - 1));
    Pos = End + 1;
  }
  return Keys;
}

struct GoldenRun {
  std::string ServeJson, NetJson, DrainJson, RunJson;
  std::vector<std::string> ResultHex;
};

} // namespace

TEST(StatsGoldenTest, TwoDeviceMixThroughServerAndExoNet) {
  exo::PlatformConfig PC;
  PC.NumDevices = 2;
  exo::ExoPlatform Platform(PC);
  chi::Runtime RT(Platform);
  chi::ProgramBuilder PB;
  cantFail(PB.addXgmaKernel("vecadd", R"(
    shl.1.dw vr1 = i, 3
    ld.8.dw  [vr2..vr9]   = (A, vr1, 0)
    ld.8.dw  [vr10..vr17] = (B, vr1, 0)
    add.8.dw [vr18..vr25] = [vr2..vr9], [vr10..vr17]
    st.8.dw  (C, vr1, 0)  = [vr18..vr25]
    halt
  )",
                            {"i"}, {"A", "B", "C"})
               .takeError());
  cantFail(RT.loadBinary(PB.take()));
  ASSERT_TRUE(RT.clusterConfig().HostLane);
  ASSERT_TRUE(RT.clusterConfig().Steal);

  net::NetServer Net(RT);
  uint16_t Port = cantFail(Net.listenTcp(0));
  std::thread Loop([&] { Net.run(); });

  GoldenRun G;
  std::vector<net::wire::ResultMsg> Results;
  {
    auto C = net::NetClient::connectTcp("127.0.0.1", Port, 60.0, "golden");
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();
    net::wire::SurfaceMsg A;
    A.Name = "A";
    A.Width = GoldenElems;
    A.Mode = 0;
    A.Fill = net::wire::SurfaceFill::Data;
    A.Data = goldenWords(1);
    ASSERT_FALSE(static_cast<bool>(C->surface(A)));
    net::wire::SurfaceMsg B = A;
    B.Name = "B";
    B.Data = goldenWords(10);
    ASSERT_FALSE(static_cast<bool>(C->surface(B)));
    net::wire::SurfaceMsg Out;
    Out.Name = "C";
    Out.Width = GoldenElems;
    Out.Mode = 1;
    Out.Fill = net::wire::SurfaceFill::Zero;
    ASSERT_FALSE(static_cast<bool>(C->surface(Out)));

    // Shred counts, priorities and budgets: a mix of one-wave, stealing
    // and deadline-preempted dispatches.
    struct Job {
      uint32_t Shreds;
      uint8_t Pri;
      int64_t Cycles;
    };
    const Job Mix[] = {{8, 1, -1},  {128, 1, -1}, {64, 2, -1},
                       {96, 0, -1}, {128, 1, 40}, {32, 1, -1}};
    auto Submit = [&](uint64_t Tag, const Job &J) {
      net::wire::SubmitMsg M;
      M.Tag = Tag;
      M.Flags = net::wire::SubmitHold;
      M.Pri = J.Pri;
      M.DeadlineCycles = J.Cycles;
      M.Shreds = J.Shreds;
      M.Kernel = "vecadd";
      M.Params = {{"i", net::wire::ParamKind::Shred, 0}};
      M.Bind = {"A", "B", "C"};
      ASSERT_FALSE(static_cast<bool>(C->submit(M)));
    };
    for (uint64_t Tag = 0; Tag < 4; ++Tag)
      Submit(Tag, Mix[Tag]);
    ASSERT_FALSE(static_cast<bool>(C->runJobs()));
    for (unsigned K = 0; K < 4; ++K) {
      auto R = C->readResult();
      ASSERT_TRUE(static_cast<bool>(R)) << R.message();
      Results.push_back(*R);
    }
    // Two more held jobs: the drain runs them.
    Submit(4, Mix[4]);
    Submit(5, Mix[5]);
    auto D = C->drain();
    ASSERT_TRUE(static_cast<bool>(D)) << D.message();
    G.DrainJson = *D;
    for (unsigned K = 0; K < 2; ++K) {
      auto R = C->readResult();
      ASSERT_TRUE(static_cast<bool>(R)) << R.message();
      Results.push_back(*R);
    }
    auto S = C->stats();
    ASSERT_TRUE(static_cast<bool>(S)) << S.message();
    G.NetJson = *S;
    EXPECT_FALSE(static_cast<bool>(C->bye()));
  }
  Net.stop();
  Loop.join();

  const serve::Server &Srv = Net.server();
  G.ServeJson = Srv.statsJson();
  EXPECT_EQ(G.NetJson.find("{\"serve\": " + G.ServeJson + ", "), 0u)
      << "the net stats embed the serve stats";
  for (const net::wire::ResultMsg &R : Results)
    G.ResultHex.push_back(hexBytes(net::wire::encode(R)));

  // Result rows are the rows of the dispatch that ran the job, on the
  // wire fields.
  std::set<chi::RegionHandle> Regions;
  for (const net::wire::ResultMsg &R : Results) {
    const JobRecord *J = Srv.job(R.JobId);
    ASSERT_NE(J, nullptr);
    ASSERT_NE(J->Region, 0u) << "job " << R.JobId << " never dispatched";
    Regions.insert(J->Region);
    const chi::RegionStats *RS = RT.regionStats(J->Region);
    ASSERT_NE(RS, nullptr);
    std::vector<chi::ShardStat> Rows;
    for (const chi::ShardStat &S : RS->Shards)
      if (S.Shreds > 0)
        Rows.push_back(S);
    ASSERT_EQ(R.Shards.size(), Rows.size()) << "job " << R.JobId;
    for (size_t K = 0; K < Rows.size(); ++K) {
      EXPECT_EQ(R.Shards[K].Lane, Rows[K].Lane);
      EXPECT_EQ(R.Shards[K].HostLane, Rows[K].HostLane);
      EXPECT_EQ(R.Shards[K].Shreds, Rows[K].Shreds);
      EXPECT_EQ(R.Shards[K].Stolen, Rows[K].Stolen);
    }
  }

  // The serve totals are the lane-wise sums of the dispatches' rows:
  // counts add, the finish clock is the latest.
  std::map<unsigned, chi::ShardStat> Sums;
  for (chi::RegionHandle H : Regions)
    for (const chi::ShardStat &S : RT.regionStats(H)->Shards) {
      if (S.Shreds == 0)
        continue;
      EXPECT_EQ(S.Jobs, 1u) << "a region's row covers one job";
      chi::ShardStat &Sum =
          Sums.try_emplace(S.Lane, chi::ShardStat{.Lane = S.Lane,
                                                  .HostLane = S.HostLane,
                                                  .Jobs = 0})
              .first->second;
      Sum.Shreds += S.Shreds;
      Sum.Stolen += S.Stolen;
      Sum.Steals += S.Steals;
      Sum.Jobs += S.Jobs;
      Sum.FinishNs = std::max(Sum.FinishNs, S.FinishNs);
      Sum.IssueCycles += S.IssueCycles;
    }
  ASSERT_EQ(Srv.stats().Shards.size(), Sums.size());
  bool Stole = false, HostRan = false;
  for (const chi::ShardStat &Row : Srv.stats().Shards) {
    ASSERT_TRUE(Sums.count(Row.Lane)) << "lane " << Row.Lane;
    EXPECT_EQ(json::render(Row), json::render(Sums[Row.Lane]));
    Stole |= Row.Stolen > 0;
    HostRan |= Row.HostLane && Row.Shreds > 0;
  }
  EXPECT_TRUE(Stole) << "the mix never stole";
  EXPECT_TRUE(HostRan) << "the host lane never ran a shred";

  // Device stats of the first 128-shred dispatch (tag 1).
  for (const net::wire::ResultMsg &R : Results)
    if (R.Tag == 1)
      G.RunJson = gma::runStatsJson(
          RT.regionStats(Srv.job(R.JobId)->Region)->Device);

  const char *PinnedServe =
      "{\"backend\": \"cycle\", \"fast_lane_jobs\": 0, \"submitted\": 6, "
      "\"admitted\": 6, \"completed\": 5, \"deadline_preempted\": 1, "
      "\"drained\": 0, \"failed\": 0, \"shed\": 0, \"rejected_queue_full\": "
      "0, \"rejected_client_quota\": 0, \"rejected_zero_budget\": 0, "
      "\"rejected_draining\": 0, \"rejected_cost_over_deadline\": 0, "
      "\"rejected_deadline_expired\": 0, \"breaker_trips\": 0, "
      "\"breaker_probes\": 0, \"breaker_readmits\": 0, "
      "\"coalesced_batches\": 0, \"coalesced_jobs\": 0, "
      "\"cancelled_disconnect\": 0, \"shards\": [{\"lane\": 0, \"host\": "
      "false, \"jobs\": 5, \"shreds\": 163, \"stolen\": 0, \"steals\": 0, "
      "\"finish_ns\": 4346.671664167918, \"issue_cycles\": 1385.5}, "
      "{\"lane\": 1, \"host\": false, \"jobs\": 5, \"shreds\": 161, "
      "\"stolen\": 0, \"steals\": 0, \"finish_ns\": 4476.419790104949, "
      "\"issue_cycles\": 1368.5}, {\"lane\": 2, \"host\": true, \"jobs\": 2, "
      "\"shreds\": 4, \"stolen\": 4, \"steals\": 4, \"finish_ns\": "
      "3362.2278860569722, \"issue_cycles\": 0}], \"fault_signals\": 0}";
  const char *PinnedDrain =
      "{\"queued_at_drain\": 2, \"ran_to_completion\": 1, \"preempted\": 1, "
      "\"failed\": 0, \"cancelled\": 0, \"drain_start_ns\": "
      "3733.9580209895066, \"drain_end_ns\": 4476.419790104949}";
  const char *PinnedRun =
      "{\"backend\": \"cycle\", \"start_ns\": 1809.235382308846, "
      "\"finish_ns\": 3022.2278860569722, \"shreds\": 128, \"instructions\": "
      "768, \"memory_ops\": 500, \"bytes_loaded\": 8500, \"bytes_stored\": "
      "4000, \"tlb_misses\": 2, \"proxy_calls\": 2, \"exceptions_handled\": "
      "0, \"cache_hits\": 351, \"cache_misses\": 102, \"sampler_ops\": 0, "
      "\"issue_cycles\": 1062.5, \"proxy_stall_ns\": 860, "
      "\"faults_injected\": 0, \"eus_offlined\": 0, \"shreds_redispatched\": "
      "0, \"host_redispatches\": 0, \"mailbox_dropped\": 0, "
      "\"mailbox_duplicated\": 0, \"shreds_preempted\": 0, \"offlined_eus\": "
      "[]}";
  const std::vector<std::string> PinnedNetKeys = {
      "serve", "backend", "fast_lane_jobs", "submitted", "admitted",
      "completed", "deadline_preempted", "drained", "failed", "shed",
      "rejected_queue_full", "rejected_client_quota", "rejected_zero_budget",
      "rejected_draining", "rejected_cost_over_deadline",
      "rejected_deadline_expired", "breaker_trips", "breaker_probes",
      "breaker_readmits", "coalesced_batches", "coalesced_jobs",
      "cancelled_disconnect", "shards", "lane", "host", "jobs", "shreds",
      "stolen", "steals", "finish_ns", "issue_cycles", "lane", "host", "jobs",
      "shreds", "stolen", "steals", "finish_ns", "issue_cycles", "lane",
      "host", "jobs", "shreds", "stolen", "steals", "finish_ns",
      "issue_cycles", "fault_signals", "net", "accepted", "closed",
      "frames_in", "frames_out", "bytes_in", "bytes_out", "malformed",
      "backpressure_stalls", "results_dropped", "retry_submits",
      "dedup_replays", "dedup_evictions", "inflight_rebinds",
      "sessions_resumed", "sessions_evicted", "results_cached_detached",
      "faults_injected"};
  const std::vector<std::string> PinnedResults = {
      "584e45540300410065000000020000000000000003000000020000010000000000000"
      "000000000000000000000000000000000000000006ccbaa79f91a9240000000000200"
      "000000000000002000000000000000000000000000000001000000002000000000000"
      "0000000000000000000",
      "584e45540300410065000000000000000000000001000000020000010000000000000"
      "00000000000000000000000006ccbaa79f91a9240345a0f08f1449c40000000000200"
      "000000000000000400000000000000000000000000000001000000000400000000000"
      "0000000000000000000",
      "584e4554030041007a000000010000000000000002000000020000010000000000000"
      "0000000000000000000000000345a0f08f1449c40d2337bad749ca740000000000300"
      "000000000000003f00000000000000000000000000000001000000003e00000000000"
      "0000000000000000000020000000103000000000000000300000000000000",
      "584e4554030041007a000000030000000000000004000000020000010000000000000"
      "0000000000000000000000000d2337bad749ca740a025ba81ea2bad40000000000300"
      "000000000000003000000000000000000000000000000001000000002f00000000000"
      "0000000000000000000020000000101000000000000000100000000000000",
      "584e4554030041003b000000040000000000000005000000040000010000008000000"
      "000000000a025ba81ea2bad40a025ba81ea2bad407e408827dba3ad40000000000000"
      "0000",
      "584e45540300410065000000050000000000000006000000020000010000000000000"
      "000000000a025ba81ea2bad407e408827dba3ad40f1435d776b7cb140000000000200"
      "000000000000001000000000000000000000000000000001000000001000000000000"
      "0000000000000000000"};
  EXPECT_EQ(G.ServeJson, PinnedServe);
  EXPECT_EQ(G.DrainJson, PinnedDrain);
  EXPECT_EQ(G.RunJson, PinnedRun);
  EXPECT_EQ(jsonKeys(G.NetJson), PinnedNetKeys) << G.NetJson;
  EXPECT_EQ(G.ResultHex, PinnedResults);
  if (HasFailure()) {
    std::string Keys, Hex;
    for (const std::string &K : jsonKeys(G.NetJson))
      Keys += "\"" + K + "\", ";
    for (const std::string &H : G.ResultHex)
      Hex += "\"" + H + "\",\n";
    ADD_FAILURE() << "actual:\nserve: " << G.ServeJson
                  << "\ndrain: " << G.DrainJson << "\nrun: " << G.RunJson
                  << "\nnet keys: " << Keys << "\nresults:\n"
                  << Hex;
  }
}
