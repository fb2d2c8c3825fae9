//===- serve/Server.cpp --------------------------------------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "isa/Encoding.h"
#include "xopt/Cost.h"

#include <algorithm>
#include <chrono>

using namespace exochi;
using namespace exochi::serve;

Server::Server(chi::Runtime &RT, ServerConfig Config,
               fault::FaultInjector *Inj)
    : RT(RT), Config(Config), Inj(Inj), Queue(Config.Queue),
      Dog(RT.platform().config().Gma, Config.Watchdog),
      // One breaker unit per EU across the whole fleet: unit
      // device × NumEus + EU, matching the device-qualified EuHardFail
      // site keys, so each shard trips and heals independently.
      Brk(RT.platform().config().Gma.NumEus * RT.platform().numDevices(),
          Config.Breaker),
      ShardDrained(RT.platform().numDevices(), false) {
  if (Inj)
    Inj->setObserver([this](const fault::FaultSite &Site) {
      ++Stats.FaultSignals[static_cast<unsigned>(Site.Kind)];
      Brk.noteFault(Site);
    });
}

Server::~Server() {
  if (Inj)
    Inj->setObserver(nullptr);
}

const JobRecord *Server::job(JobId Id) const {
  if (Id == 0 || Id > Jobs.size())
    return nullptr;
  return &Jobs[Id - 1];
}

void Server::reject(JobRecord &R, RejectReason Reason) {
  R.State = JobState::Rejected;
  R.Reason = Reason;
  switch (Reason) {
  case RejectReason::QueueFull:
    ++Stats.RejectedQueueFull;
    break;
  case RejectReason::ClientQuota:
    ++Stats.RejectedClientQuota;
    break;
  case RejectReason::ZeroBudget:
    ++Stats.RejectedZeroBudget;
    break;
  case RejectReason::Draining:
    ++Stats.RejectedDraining;
    break;
  case RejectReason::LoadShed:
    ++Stats.Shed;
    break;
  case RejectReason::CostOverDeadline:
    ++Stats.RejectedCostOverDeadline;
    break;
  case RejectReason::DeadlineExpired:
    ++Stats.RejectedDeadlineExpired;
    break;
  case RejectReason::None:
    break;
  }
}

int64_t Server::wallNow() const {
  if (Config.WallClock)
    return Config.WallClock();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

Server::SubmitResult Server::submit(JobSpec Spec) {
  ++Stats.Submitted;
  JobRecord R;
  R.Id = static_cast<JobId>(Jobs.size() + 1);
  R.ClientId = Spec.ClientId;
  R.Pri = Spec.Pri;
  R.SubmitNs = RT.now();

  SubmitResult Res;
  Res.Id = R.Id;

  if (Spec.ExpiresAtUnixNs > 0 && wallNow() >= Spec.ExpiresAtUnixNs) {
    // The caller's absolute deadline has already passed: whatever we
    // computed now could not be delivered in time. Stale retries land
    // here instead of re-dispatching (NetChaos exactly-once semantics).
    reject(R, RejectReason::DeadlineExpired);
  } else if (Draining) {
    reject(R, RejectReason::Draining);
  } else if (Dog.effectiveBudgetCycles(Spec) == 0) {
    // A zero-cycle budget cannot run even one epoch: answer now instead
    // of queueing work guaranteed to die at its first boundary.
    reject(R, RejectReason::ZeroBudget);
  } else if (Config.CostAdmission && costExceedsBudget(Spec)) {
    // XCost admission: the static lower bound already blows the budget,
    // so the only possible outcome is a deadline preemption. Answer at
    // admission instead of dispatching doomed work.
    reject(R, RejectReason::CostOverDeadline);
  } else {
    JobQueue::Admission A = Queue.tryAdmit(R.Id, R.Pri, R.ClientId);
    if (A.Admitted) {
      R.State = JobState::Queued;
      ++Stats.Admitted;
      if (A.Shed)
        reject(record(A.Shed), RejectReason::LoadShed);
      Res.Shed = A.Shed;
    } else {
      reject(R, A.Reason);
    }
  }

  Res.Admitted = (R.State == JobState::Queued);
  Res.Reason = R.Reason;
  Jobs.push_back(R);
  Specs.push_back(std::move(Spec));
  return Res;
}

bool Server::costExceedsBudget(const JobSpec &Spec) {
  int64_t Budget = Dog.effectiveBudgetCycles(Spec);
  if (Budget <= 0)
    return false; // no deadline (zero budgets were rejected earlier)
  return pigeonholeExceeds(Spec.Region.NumThreads, minPerShredCycles(Spec),
                           Budget);
}

double Server::minPerShredCycles(const JobSpec &Spec) {
  const chi::RegionSpec &Region = Spec.Region;
  if (Region.NumThreads == 0)
    return 0.0;
  const fatbin::CodeSection *Sec = RT.loadedSection(Region.KernelName);
  if (!Sec)
    return 0.0; // unknown kernel: let the dispatch fail with its error

  // Build the dispatch-sharpened spec the analyzer sees: parameter
  // ranges from the clause bindings, surface geometry from the live
  // descriptors — the same facts exochi-run --lint hands XVerify.
  xopt::VerifySpec VS;
  VS.NumScalarParams = static_cast<unsigned>(Sec->ScalarParams.size());
  VS.NumSurfaceSlots = static_cast<int32_t>(Sec->SurfaceParams.size());
  std::vector<int64_t> Key;
  Key.push_back(static_cast<int64_t>(Region.NumThreads));
  for (unsigned P = 0; P < VS.NumScalarParams; ++P) {
    const std::string &Name = Sec->ScalarParams[P];
    if (auto It = Region.Firstprivate.find(Name);
        It != Region.Firstprivate.end()) {
      VS.ParamRanges[P] = xopt::Range::point(It->second);
    } else if (auto It = Region.Private.find(Name);
               It != Region.Private.end()) {
      int32_t Lo = INT32_MAX, Hi = INT32_MIN;
      for (unsigned T = 0; T < Region.NumThreads; ++T) {
        int32_t V = It->second(T);
        Lo = std::min(Lo, V);
        Hi = std::max(Hi, V);
      }
      VS.ParamRanges[P] = xopt::Range::of(Lo, Hi);
    }
    if (auto It = VS.ParamRanges.find(P); It != VS.ParamRanges.end()) {
      Key.push_back(It->second.Lo);
      Key.push_back(It->second.Hi);
    } else {
      Key.push_back(xopt::Range::NegInf);
      Key.push_back(xopt::Range::PosInf);
    }
  }
  for (size_t Slot = 0; Slot < Sec->SurfaceParams.size(); ++Slot) {
    if (auto It = Region.SharedDescs.find(Sec->SurfaceParams[Slot]);
        It != Region.SharedDescs.end())
      if (const chi::Descriptor *D = RT.descriptor(It->second)) {
        VS.Surfaces[static_cast<int32_t>(Slot)] = {
            static_cast<int64_t>(D->Width), static_cast<int64_t>(D->Height)};
        Key.push_back(D->Width);
        Key.push_back(D->Height);
        continue;
      }
    Key.push_back(-1);
    Key.push_back(-1);
  }

  double MinPerShred;
  auto CacheKey = std::make_pair(Region.KernelName, std::move(Key));
  if (auto It = CostCache.find(CacheKey); It != CostCache.end()) {
    MinPerShred = It->second;
  } else {
    auto Prog = isa::decodeProgram(Sec->Code);
    if (!Prog)
      return 0.0; // undecodable: the dispatch path owns that error
    xopt::CostReport CR =
        xopt::analyzeCost(*Prog, VS, Region.KernelName);
    MinPerShred = CR.minCycles();
    CostCache.emplace(std::move(CacheKey), MinPerShred);
  }
  return MinPerShred;
}

bool Server::pigeonholeExceeds(uint64_t Threads, double MinPerShred,
                               int64_t BudgetCycles) const {
  if (Threads == 0 || MinPerShred <= 0.0 || BudgetCycles <= 0)
    return false;
  // Pigeonhole lower bound on elapsed device cycles: issue slots
  // serialize per EU, so some EU issues >= ceil(N/EUs) shreds' minimum.
  // EUs are counted fleet-wide — with ExoCluster sharding the work may
  // spread across every device, so the single-device bound would not be
  // a lower bound any more; the fleet bound stays sound (merely looser
  // for kernels that cannot shard).
  uint64_t Eus = std::max(RT.platform().config().Gma.NumEus, 1u) *
                 std::max(RT.platform().numDevices(), 1u);
  uint64_t PerEu = (Threads + Eus - 1) / Eus;
  return static_cast<double>(PerEu) * MinPerShred >
         static_cast<double>(BudgetCycles);
}

void Server::applyQuarantine() {
  // Breaker units map to (device, EU) across the fleet; a shard drain
  // quarantines the whole device on top of whatever the breaker says.
  unsigned NumEus = RT.platform().config().Gma.NumEus;
  for (unsigned K = 0; K < Brk.numEus(); ++K) {
    unsigned Dev = K / NumEus;
    RT.platform().device(Dev).setEuQuarantine(
        K % NumEus, Brk.quarantined(K) || shardDrained(Dev));
  }
}

void Server::setShardDrain(unsigned Device, bool On) {
  if (Device < ShardDrained.size())
    ShardDrained[Device] = On;
}

unsigned Server::cancelClient(uint32_t Client) {
  unsigned N = 0;
  for (JobId Id : Queue.removeClient(Client)) {
    JobRecord &R = record(Id);
    R.State = JobState::Drained;
    R.EndNs = RT.now();
    ++Stats.CancelledDisconnect;
    ++N;
  }
  return N;
}

void Server::reset() {
  // Cancel whatever is still queued (the records stay inspectable, but
  // the counters below start from zero, as after construction).
  for (JobId Id : Queue.drainAll())
    record(Id).State = JobState::Drained;
  Stats = ServeStats();
  Brk.reset();
  Draining = false;
  // Lift the breaker's quarantine on every device; shard drains are
  // operator policy and survive a reset.
  applyQuarantine();
}

void Server::accumulateShards(const chi::RegionStats &RS) {
  for (const chi::ShardStat &S : RS.Shards) {
    if (S.Shreds == 0)
      continue;
    auto It = std::lower_bound(
        Stats.Shards.begin(), Stats.Shards.end(), S.Lane,
        [](const chi::ShardStat &R, unsigned Lane) { return R.Lane < Lane; });
    if (It != Stats.Shards.end() && It->Lane == S.Lane)
      *It += S;
    else
      Stats.Shards.insert(It, S);
  }
}

void Server::runJob(JobRecord &R) { runBatch({R.Id}); }

bool Server::coalescable(JobId A, JobId B) const {
  const JobSpec &SA = Specs[A - 1], &SB = Specs[B - 1];
  if (SA.Pri != SB.Pri)
    return false;
  // Budget *class* must match (both bounded or both unbounded): a merged
  // batch runs under the tightest member budget, so mixing a bounded job
  // into an unbounded batch would silently impose a deadline on jobs
  // that never asked for one. Different finite budgets may merge — the
  // batch inherits the minimum (see runBatch).
  if ((Dog.effectiveBudgetCycles(SA) > 0) !=
      (Dog.effectiveBudgetCycles(SB) > 0))
    return false;
  const chi::RegionSpec &RA = SA.Region, &RB = SB.Region;
  if (RA.KernelName != RB.KernelName || RA.MasterNowait || RB.MasterNowait)
    return false;
  if (RA.NumThreads == 0 || RB.NumThreads == 0)
    return false;
  // Members must bind the same surfaces and broadcast constants; private
  // per-shred variables only need matching *names* — each member's own
  // generator runs over its local index range after the remap.
  if (RA.SharedDescs != RB.SharedDescs || RA.Firstprivate != RB.Firstprivate)
    return false;
  if (RA.Private.size() != RB.Private.size())
    return false;
  auto ItA = RA.Private.begin();
  auto ItB = RB.Private.begin();
  for (; ItA != RA.Private.end(); ++ItA, ++ItB)
    if (ItA->first != ItB->first)
      return false;
  return true;
}

void Server::runBatch(const std::vector<JobId> &Members) {
  const JobSpec &HeadSpec = Specs[Members.front() - 1];

  for (JobId Id : Members) {
    JobRecord &R = record(Id);
    R.State = JobState::Running;
    R.StartNs = RT.now();
    R.BatchSize = static_cast<uint32_t>(Members.size());
  }

  // Quarantine first so this dispatch never lands on a tripped EU; the
  // device falls back to its host lane if the breaker opened every EU.
  applyQuarantine();

  chi::RegionSpec Region = HeadSpec.Region;
  if (Members.size() > 1) {
    // Concatenate the members' shred ranges into one dispatch and remap
    // every private per-shred variable so member k sees local indices
    // 0..N_k-1 at its base offset.
    struct Part {
      unsigned Base, Count;
      std::function<int32_t(unsigned)> Fn;
    };
    unsigned Total = 0;
    std::vector<std::pair<unsigned, const chi::RegionSpec *>> Layout;
    for (JobId Id : Members) {
      Layout.emplace_back(Total, &Specs[Id - 1].Region);
      Total += Specs[Id - 1].Region.NumThreads;
    }
    Region.NumThreads = Total;
    for (const auto &[Name, Fn] : HeadSpec.Region.Private) {
      (void)Fn;
      std::vector<Part> Parts;
      Parts.reserve(Layout.size());
      for (const auto &[Base, Spec] : Layout)
        Parts.push_back({Base, Spec->NumThreads, Spec->Private.at(Name)});
      Region.Private[Name] = [Parts](unsigned T) -> int32_t {
        for (const Part &P : Parts)
          if (T >= P.Base && T < P.Base + P.Count)
            return P.Fn(T - P.Base);
        return 0;
      };
    }
    ++Stats.CoalescedBatches;
    Stats.CoalescedJobs += Members.size() - 1;
  }

  // A merged batch runs as ONE dispatch, so it must finish under the
  // *tightest* member budget — arming with the head's budget would let a
  // loose head carry a tight member past its own deadline. (PR 8 bug:
  // the merge key compared raw DeadlineCycles, hiding this; with
  // server-default budgets in play the head was not necessarily the
  // tightest member.)
  int64_t Budget = Dog.effectiveBudgetCycles(HeadSpec);
  for (JobId Id : Members) {
    int64_t B = Dog.effectiveBudgetCycles(Specs[Id - 1]);
    if (B > 0 && (Budget <= 0 || B < Budget))
      Budget = B;
  }
  Dog.armRegion(Region, Budget);

  auto H = RT.dispatch(Region);
  if (!H) {
    // Safety valve: a malformed job (unknown kernel, freed descriptor,
    // unserviceable fault outside injection) terminates as Failed — an
    // answer, never a hang — and does not poison the server.
    for (JobId Id : Members) {
      JobRecord &R = record(Id);
      R.State = JobState::Failed;
      R.Error = H.message();
      R.EndNs = RT.now();
      ++Stats.Failed;
    }
    Brk.onJobEnd({});
  } else {
    const chi::RegionStats *RS = RT.regionStats(*H);
    JobState St = Dog.classify(*RS);
    if (RS->Device.Backend == gma::BackendKind::Fast)
      Stats.FastLaneJobs += Members.size();
    for (JobId Id : Members) {
      JobRecord &R = record(Id);
      R.Region = *H;
      R.State = St;
      R.ShredsPreempted = RS->Device.ShredsPreempted;
      if (St == JobState::DeadlinePreempted)
        ++Stats.DeadlinePreempted;
      else
        ++Stats.Completed;
      R.EndNs = RT.now();
    }
    accumulateShards(*RS);
    Brk.onJobEnd(RS->Device.OfflinedEus);
  }

  // Mirror breaker counters into the served stats surface.
  Stats.BreakerTrips = Brk.stats().Trips;
  Stats.BreakerProbes = Brk.stats().Probes;
  Stats.BreakerReadmits = Brk.stats().Readmits;
}

std::optional<JobId> Server::runNext() {
  auto Id = Queue.pop();
  if (!Id)
    return std::nullopt;
  runJob(record(*Id));
  return Id;
}

std::vector<JobId> Server::runNextBatch(unsigned MaxBatch,
                                        const JobQueue::JobPred &Eligible) {
  auto HeadId = Queue.popEligible(Eligible);
  if (!HeadId)
    return {};
  std::vector<JobId> Members{*HeadId};
  if (MaxBatch > 1) {
    JobId Head = *HeadId;
    // Cost-merge guard (CostAdmission): every member passed the XCost
    // gate *alone*, but the merged batch runs the concatenated shred
    // count under the tightest member budget. Refuse a candidate when
    // the merged pigeonhole bound would provably blow that budget —
    // otherwise coalescing turns individually-admitted jobs into a
    // guaranteed batch-wide deadline preemption.
    uint64_t MergedThreads = Specs[Head - 1].Region.NumThreads;
    int64_t Tightest = Dog.effectiveBudgetCycles(Specs[Head - 1]);
    double MergedMin =
        Config.CostAdmission ? minPerShredCycles(Specs[Head - 1]) : 0.0;
    auto Match = [&](JobId Id) {
      if ((Eligible && !Eligible(Id)) || !coalescable(Head, Id))
        return false;
      if (Config.CostAdmission) {
        const JobSpec &S = Specs[Id - 1];
        int64_t B = Dog.effectiveBudgetCycles(S);
        int64_t NewTightest =
            (B > 0 && (Tightest <= 0 || B < Tightest)) ? B : Tightest;
        double NewMin = std::max(MergedMin, minPerShredCycles(S));
        uint64_t NewThreads = MergedThreads + S.Region.NumThreads;
        if (pigeonholeExceeds(NewThreads, NewMin, NewTightest))
          return false;
        MergedThreads = NewThreads;
        Tightest = NewTightest;
        MergedMin = NewMin;
      }
      return true;
    };
    for (JobId Id :
         Queue.collectBatch(record(Head).Pri, MaxBatch - 1, Match))
      Members.push_back(Id);
  }
  runBatch(Members);
  return Members;
}

void Server::runAll() {
  while (runNext())
    ;
}

DrainSummary Server::drain(bool CancelQueued) {
  Draining = true;
  DrainSummary Summary;
  Summary.QueuedAtDrain = Queue.size();
  Summary.DrainStartNs = RT.now();

  if (CancelQueued) {
    for (JobId Id : Queue.drainAll()) {
      JobRecord &R = record(Id);
      R.State = JobState::Drained;
      ++Stats.Drained;
      ++Summary.Cancelled;
    }
  } else {
    while (auto Id = Queue.pop()) {
      JobRecord &R = record(*Id);
      runJob(R);
      switch (R.State) {
      case JobState::Completed:
        ++Summary.RanToCompletion;
        break;
      case JobState::DeadlinePreempted:
        ++Summary.Preempted;
        break;
      default:
        ++Summary.Failed;
        break;
      }
    }
  }

  Summary.DrainEndNs = RT.now();
  return Summary;
}

std::string Server::statsJson() const {
  json::Writer W;
  W.beginObject().member(
      "backend", gma::backendName(RT.feature(chi::Feature::Backend) != 0
                                      ? gma::BackendKind::Fast
                                      : gma::BackendKind::Cycle));
  return W.fields(Stats).endObject().take();
}
