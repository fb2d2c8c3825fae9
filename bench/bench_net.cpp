//===- bench/bench_net.cpp - ExoNet socket front-end load generator -----------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Open-loop load generator for the ExoNet socket path:
//
//   calibration - closed-loop (send as fast as the socket takes) on one
//                 connection: the saturation jobs/sec of the full
//                 client -> wire -> admission -> dispatch -> result loop;
//   rate sweep  - Poisson arrivals (open loop: the submission schedule
//                 never waits for results) across several connections at
//                 0.5x / 1x / 2x the calibrated rate, reporting achieved
//                 jobs/sec, p50/p95/p99 latency from each job's due time
//                 to its result, and how late the sender ran (lag p99);
//   coalescing  - the overload point rerun with --coalesce-window 1 vs 8:
//                 merging compatible same-client vecadd jobs into one
//                 multi-shred dispatch raises saturation throughput.
//
//   bench_net [--connections N] [--rate JOBS_PER_SEC]
//
// --rate replaces the multiplier sweep with one open-loop point. Writes
// BENCH_net.json (override with EXOCHI_BENCH_JSON).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "net/NetClient.h"
#include "net/NetServer.h"
#include "support/Format.h"
#include "support/Random.h"
#include "support/StringUtils.h"

#include <chrono>
#include <cmath>
#include <thread>

using namespace exochi;
using namespace exochi::bench;
namespace wire = exochi::net::wire;

namespace {

using Clock = std::chrono::steady_clock;

/// A NetServer on an ephemeral TCP port with the vecadd kernel loaded,
/// its event loop running on a background thread.
struct ServerRig {
  exo::ExoPlatform Platform;
  chi::Runtime RT;
  std::unique_ptr<net::NetServer> Server;
  std::thread Loop;
  uint16_t Port = 0;

  explicit ServerRig(unsigned Window, net::NetFault *Fault = nullptr)
      : RT(Platform) {
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
    net::NetServerConfig NC;
    NC.CoalesceWindow = Window;
    NC.Fault = Fault;
    // Let the per-client quotas bind before global capacity so overload
    // is absorbed by backpressure (deferred reads), not rejections.
    NC.Serve.Queue.Capacity = 64;
    Server = std::make_unique<net::NetServer>(RT, NC);
    Port = cantFail(Server->listenTcp(0));
    Loop = std::thread([this] { Server->run(); });
  }

  /// Stops the event loop; stats accessors are valid afterwards.
  void shutdown() {
    if (!Loop.joinable())
      return;
    Server->stop();
    Loop.join();
  }

  ~ServerRig() { shutdown(); }
};

/// What one connection observed.
struct ConnOut {
  std::vector<double> LatencyMs; ///< due-to-result, completed jobs
  std::vector<double> LagMs;     ///< send time minus due time, every job
  Clock::time_point FirstSend, LastDone;
  uint64_t Completed = 0, Other = 0;
};

/// Drives one connection: a sender thread paces Jobs submissions with
/// exponential (Poisson) inter-arrival gaps at \p Rate jobs/sec (0 =
/// closed loop: back-to-back), while a reader thread collects Results.
/// The two directions of a NetClient share no mutable state, so the
/// sender/reader split needs no locking.
void runConn(uint16_t Port, unsigned Jobs, double Rate, uint64_t Seed,
             ConnOut *Out) {
  net::NetClient C = cantFail(
      net::NetClient::connectTcp("127.0.0.1", Port, 120.0, "bench_net"));
  for (const char *Name : {"A", "B", "C"}) {
    wire::SurfaceMsg S;
    S.Name = Name;
    S.Width = 64;
    S.Height = 1;
    S.Fill = Name[0] == 'C' ? wire::SurfaceFill::Zero : wire::SurfaceFill::Seq;
    cantFail(C.surface(S));
  }

  std::vector<Clock::time_point> DueAt(Jobs), DoneAt(Jobs);
  std::thread Reader([&] {
    for (unsigned J = 0; J < Jobs; ++J) {
      auto R = C.readResult();
      if (!R) {
        std::fprintf(stderr, "bench_net: %s\n", R.message().c_str());
        std::abort();
      }
      DoneAt[R->Tag] = Clock::now();
      if (static_cast<serve::JobState>(R->State) == serve::JobState::Completed)
        ++Out->Completed;
      else
        ++Out->Other;
    }
  });

  Rng Rand(Seed);
  wire::SubmitMsg M;
  M.Shreds = 8;
  M.Kernel = "vecadd";
  M.Params = {{"i", wire::ParamKind::Shred, 0}};
  M.Bind = {"A", "B", "C"};
  auto Due = Clock::now();
  Out->FirstSend = Due;
  for (unsigned J = 0; J < Jobs; ++J) {
    if (Rate > 0) {
      double Gap = -std::log(1.0 - Rand.nextDouble()) / Rate;
      Due += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(Gap));
      std::this_thread::sleep_until(Due);
    } else {
      Due = Clock::now(); // closed loop: a job is due when it can be sent
    }
    // Latency runs from the due time, so a sender that wakes late charges
    // its lag to the jobs it delayed instead of hiding it.
    M.Tag = J;
    DueAt[J] = Due;
    Out->LagMs.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - Due).count());
    cantFail(C.submit(M));
  }
  Reader.join();
  (void)C.bye();

  Out->LastDone = Out->FirstSend;
  for (unsigned J = 0; J < Jobs; ++J) {
    Out->LatencyMs.push_back(
        std::chrono::duration<double, std::milli>(DoneAt[J] - DueAt[J])
            .count());
    Out->LastDone = std::max(Out->LastDone, DoneAt[J]);
  }
}

struct TrialResult {
  double JobsPerSec = 0;
  Percentiles LatMs, LagMs;
  uint64_t Completed = 0, Other = 0;
  uint64_t CoalescedBatches = 0, CoalescedJobs = 0;

  static constexpr auto jsonFields() {
    using S = TrialResult;
    return json::fields(
        "jobs_per_sec", &S::JobsPerSec, "completed", &S::Completed,
        "other", &S::Other, "coalesced_batches", &S::CoalescedBatches,
        "coalesced_jobs", &S::CoalescedJobs, "latency_ms", &S::LatMs,
        "lag_ms", &S::LagMs);
  }
};

/// One measurement: \p Conns connections of \p Jobs jobs each against a
/// fresh server with coalesce window \p Window, at \p TotalRate jobs/sec
/// across all connections (0 = closed loop).
TrialResult runTrial(unsigned Window, unsigned Conns, unsigned Jobs,
                     double TotalRate) {
  ServerRig S(Window);
  std::vector<ConnOut> Outs(Conns);
  std::vector<std::thread> Threads;
  for (unsigned K = 0; K < Conns; ++K)
    Threads.emplace_back(runConn, S.Port, Jobs,
                         TotalRate > 0 ? TotalRate / Conns : 0.0,
                         0x517u + K, &Outs[K]);
  for (std::thread &T : Threads)
    T.join();
  S.shutdown();

  TrialResult R;
  R.CoalescedBatches = S.Server->server().stats().CoalescedBatches;
  R.CoalescedJobs = S.Server->server().stats().CoalescedJobs;
  std::vector<double> Pool, LagPool;
  Clock::time_point First = Outs[0].FirstSend, Last = Outs[0].LastDone;
  for (const ConnOut &O : Outs) {
    First = std::min(First, O.FirstSend);
    Last = std::max(Last, O.LastDone);
    Pool.insert(Pool.end(), O.LatencyMs.begin(), O.LatencyMs.end());
    LagPool.insert(LagPool.end(), O.LagMs.begin(), O.LagMs.end());
    R.Completed += O.Completed;
    R.Other += O.Other;
  }
  double Sec = std::chrono::duration<double>(Last - First).count();
  R.JobsPerSec = Sec > 0 ? static_cast<double>(Conns) * Jobs / Sec : 0;
  R.LatMs = latencyPercentiles(std::move(Pool));
  R.LagMs = latencyPercentiles(std::move(LagPool));
  return R;
}

/// One connection of the NetChaos fault sweep: closed loop with retries
/// armed. Retries > 0 makes the client exclusive to one thread, so
/// submit/readResult alternate instead of the sender/reader split.
void runChaosConn(uint16_t Port, unsigned Jobs, uint64_t Session,
                  ConnOut *Out, uint64_t *Resubmits) {
  net::NetClientConfig CC;
  CC.CallTimeoutSec = 0.25;
  CC.Retries = 10;
  CC.BackoffBaseMs = 1;
  CC.BackoffCapMs = 16;
  CC.SessionId = Session;
  CC.Name = "bench_net";
  net::NetClient C =
      cantFail(net::NetClient::connectTcp("127.0.0.1", Port, CC));
  for (const char *Name : {"A", "B", "C"}) {
    wire::SurfaceMsg S;
    S.Name = Name;
    S.Width = 64;
    S.Height = 1;
    S.Fill = Name[0] == 'C' ? wire::SurfaceFill::Zero : wire::SurfaceFill::Seq;
    cantFail(C.surface(S));
  }
  wire::SubmitMsg M;
  M.Shreds = 8;
  M.Kernel = "vecadd";
  M.Params = {{"i", wire::ParamKind::Shred, 0}};
  M.Bind = {"A", "B", "C"};
  Out->FirstSend = Clock::now();
  Out->LastDone = Out->FirstSend;
  for (unsigned J = 0; J < Jobs; ++J) {
    M.Tag = J;
    auto T0 = Clock::now();
    cantFail(C.submit(M));
    auto R = C.readResult();
    if (!R) {
      std::fprintf(stderr, "bench_net: %s\n", R.message().c_str());
      std::abort();
    }
    auto T1 = Clock::now();
    Out->LatencyMs.push_back(
        std::chrono::duration<double, std::milli>(T1 - T0).count());
    Out->LastDone = T1;
    if (static_cast<serve::JobState>(R->State) == serve::JobState::Completed)
      ++Out->Completed;
    else
      ++Out->Other;
  }
  *Resubmits = C.clientStats().Resubmits;
  (void)C.bye();
}

struct FaultTrial {
  double GoodputPerSec = 0; ///< completed jobs/sec wall clock
  Percentiles LatMs;
  uint64_t Completed = 0, Other = 0;
  uint64_t Resubmits = 0, DedupReplays = 0, FaultsInjected = 0;
  double RetryAmplification = 1.0; ///< submits sent / jobs asked

  static constexpr auto jsonFields() {
    using S = FaultTrial;
    return json::fields(
        "goodput_per_sec", &S::GoodputPerSec, "completed", &S::Completed,
        "other", &S::Other, "retry_amplification", &S::RetryAmplification,
        "resubmits", &S::Resubmits, "dedup_replays", &S::DedupReplays,
        "faults_injected", &S::FaultsInjected, "latency_ms", &S::LatMs);
  }
};

/// One fault-sweep point: every NetChaos kind armed at \p Rate against
/// Result frames (stall shortened to 2 ms so the schedule, not the
/// stall constant, dominates). Rate < 0 runs with no injector attached
/// (the clean baseline); Rate == 0 attaches a disarmed injector, which
/// must cost one branch per frame — the overhead row.
FaultTrial runFaultTrial(double Rate, unsigned Conns, unsigned Jobs,
                         uint64_t Seed) {
  net::NetFault F(Seed);
  if (Rate > 0)
    for (unsigned K = 0; K < net::NumNetFaultKinds; ++K) {
      F.setRate(static_cast<net::NetFaultKind>(K), Rate);
      F.setOnly(static_cast<net::NetFaultKind>(K), wire::MsgType::Result);
    }
  F.setStallMs(2.0);
  ServerRig S(1, Rate < 0 ? nullptr : &F);
  std::vector<ConnOut> Outs(Conns);
  std::vector<uint64_t> Resub(Conns, 0);
  std::vector<std::thread> Threads;
  for (unsigned K = 0; K < Conns; ++K)
    Threads.emplace_back(runChaosConn, S.Port, Jobs, 100 + K, &Outs[K],
                         &Resub[K]);
  for (std::thread &T : Threads)
    T.join();
  S.shutdown();

  FaultTrial T;
  std::vector<double> Pool;
  Clock::time_point First = Outs[0].FirstSend, Last = Outs[0].LastDone;
  for (unsigned K = 0; K < Conns; ++K) {
    First = std::min(First, Outs[K].FirstSend);
    Last = std::max(Last, Outs[K].LastDone);
    Pool.insert(Pool.end(), Outs[K].LatencyMs.begin(),
                Outs[K].LatencyMs.end());
    T.Completed += Outs[K].Completed;
    T.Other += Outs[K].Other;
    T.Resubmits += Resub[K];
  }
  double Sec = std::chrono::duration<double>(Last - First).count();
  T.GoodputPerSec = Sec > 0 ? static_cast<double>(T.Completed) / Sec : 0;
  T.LatMs = latencyPercentiles(std::move(Pool));
  uint64_t Asked = static_cast<uint64_t>(Conns) * Jobs;
  T.RetryAmplification =
      Asked ? 1.0 + static_cast<double>(T.Resubmits) / Asked : 1.0;
  T.DedupReplays = S.Server->netStats().DedupReplays;
  T.FaultsInjected = S.Server->netStats().FaultsInjected;
  return T;
}

/// P999 printed with \p Fmt, or \p Absent when too few samples lie
/// beyond it to estimate it.
void printFaultRow(const char *Label, double Rate, const FaultTrial &T) {
  std::printf("%-14s %8.3f %10.0f %9llu %9.3f %8.2f %8.2f %8s\n", Label,
              Rate < 0 ? 0.0 : Rate, T.GoodputPerSec,
              static_cast<unsigned long long>(T.Completed),
              T.RetryAmplification, T.LatMs.P50, T.LatMs.P99,
              T.LatMs.P999 ? formatString("%.2f", *T.LatMs.P999).c_str()
                           : "n/a");
}

void printRow(const char *Label, double RateTarget, const TrialResult &R) {
  std::printf("%-14s %10.0f %10.0f %9llu %8llu %8.2f %8.2f %8.2f %8.3f\n",
              Label, RateTarget, R.JobsPerSec,
              static_cast<unsigned long long>(R.Completed),
              static_cast<unsigned long long>(R.Other), R.LatMs.P50,
              R.LatMs.P95, R.LatMs.P99, R.LagMs.P99);
}

} // namespace

int main(int Argc, char **Argv) {
  int64_t Connections = 4;
  double FixedRate = 0; ///< 0 = sweep multipliers of the calibrated rate
  for (int K = 1; K < Argc; ++K) {
    std::string A = Argv[K];
    auto Next = [&]() -> const char * {
      if (K + 1 >= Argc) {
        std::fprintf(stderr, "bench_net: missing value for %s\n", A.c_str());
        std::exit(2);
      }
      return Argv[++K];
    };
    auto matchValueOpt = [&](const char *Name, std::string &Val) -> bool {
      std::string Prefix = std::string(Name) + "=";
      if (A == Name) {
        Val = Next();
        return true;
      }
      if (A.rfind(Prefix, 0) == 0) {
        Val = A.substr(Prefix.size());
        return true;
      }
      return false;
    };
    std::string Val;
    // Numeric values are validated, never silently defaulted.
    if (matchValueOpt("--connections", Val)) {
      auto N = parseInt(Val);
      if (!N || *N < 1 || *N > 64) {
        std::fprintf(stderr, "bench_net: bad --connections value '%s'\n",
                     Val.c_str());
        return 2;
      }
      Connections = *N;
    } else if (matchValueOpt("--rate", Val)) {
      char *End = nullptr;
      FixedRate = std::strtod(Val.c_str(), &End);
      if (End == Val.c_str() || *End != '\0' || FixedRate <= 0) {
        std::fprintf(stderr, "bench_net: bad --rate value '%s'\n",
                     Val.c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr, "usage: bench_net [--connections N] "
                           "[--rate JOBS_PER_SEC]\n");
      return A == "--help" || A == "-h" ? 0 : 2;
    }
  }

  double Scale = benchScale();
  const unsigned Conns = static_cast<unsigned>(Connections);
  const unsigned Jobs = std::max(32u, static_cast<unsigned>(256 * Scale));

  // --- Calibration: closed-loop saturation, one connection. -----------
  TrialResult Cal = runTrial(1, 1, 2 * Jobs, 0);
  std::printf("=== ExoNet calibration (closed loop, 1 conn, %u jobs) ===\n",
              2 * Jobs);
  std::printf("saturation: %.0f jobs/sec (p50 %.2f ms, p99 %.2f ms)\n",
              Cal.JobsPerSec, Cal.LatMs.P50, Cal.LatMs.P99);

  // --- Open-loop rate sweep. ------------------------------------------
  struct SweepPoint {
    std::string Label;
    double RateTarget = 0;
    TrialResult R;
  };
  std::vector<SweepPoint> Sweep;
  if (FixedRate > 0) {
    Sweep.push_back({"fixed", FixedRate, {}});
  } else {
    for (double Mult : {0.5, 1.0, 2.0})
      Sweep.push_back({formatString("%.1fx-cal", Mult),
                       Mult * Cal.JobsPerSec, {}});
  }
  std::printf("\n=== ExoNet open-loop sweep (%u conns, %u jobs/conn, "
              "Poisson) ===\n",
              Conns, Jobs);
  std::printf("%-14s %10s %10s %9s %8s %8s %8s %8s %8s\n", "rate",
              "target/s", "achieved/s", "completed", "other", "p50ms",
              "p95ms", "p99ms", "lag99ms");
  for (SweepPoint &P : Sweep) {
    P.R = runTrial(1, Conns, Jobs, P.RateTarget);
    printRow(P.Label.c_str(), P.RateTarget, P.R);
  }

  // --- Coalescing at the overload point: window 1 vs 8. ---------------
  double Overload = FixedRate > 0 ? FixedRate : 2.0 * Cal.JobsPerSec;
  TrialResult W1 = runTrial(1, Conns, Jobs, Overload);
  TrialResult W8 = runTrial(8, Conns, Jobs, Overload);
  double Gain = W1.JobsPerSec > 0 ? W8.JobsPerSec / W1.JobsPerSec : 0;
  std::printf("\n=== Request coalescing at overload (%.0f jobs/sec "
              "offered) ===\n",
              Overload);
  std::printf("%-14s %10s %10s %9s %8s %8s %8s %8s %8s\n", "window",
              "target/s", "achieved/s", "completed", "other", "p50ms",
              "p95ms", "p99ms", "lag99ms");
  printRow("window-1", Overload, W1);
  printRow("window-8", Overload, W8);
  std::printf("coalescing speedup: %.2fx (window-8 merged %llu jobs into "
              "%llu batches)\n",
              Gain, static_cast<unsigned long long>(W8.CoalescedJobs),
              static_cast<unsigned long long>(W8.CoalescedBatches));

  // --- NetChaos fault schedule: goodput + tails under wire faults. ----
  // Closed loop with retries armed; every fault kind at the given rate
  // against Result frames. "clean" has no injector; "disarmed" attaches
  // a zero-rate injector, whose cost must be one branch per frame.
  std::printf("\n=== NetChaos fault sweep (closed loop, %u conns, "
              "%u jobs/conn, retries on) ===\n",
              Conns, Jobs);
  std::printf("%-14s %8s %10s %9s %9s %8s %8s %8s\n", "config", "rate",
              "goodput/s", "completed", "retry-amp", "p50ms", "p99ms",
              "p999ms");
  struct FaultPoint {
    const char *Label;
    double Rate;
    FaultTrial T;
  };
  FaultPoint FaultSweep[] = {
      {"clean", -1.0, {}},
      {"disarmed", 0.0, {}},
      {"fault-1pct", 0.01, {}},
      {"fault-5pct", 0.05, {}},
  };
  for (FaultPoint &P : FaultSweep) {
    P.T = runFaultTrial(P.Rate, Conns, Jobs, 0x9e37);
    printFaultRow(P.Label, P.Rate, P.T);
  }
  double DisarmedOverheadPct =
      FaultSweep[0].T.GoodputPerSec > 0
          ? (1.0 - FaultSweep[1].T.GoodputPerSec /
                       FaultSweep[0].T.GoodputPerSec) *
                100.0
          : 0.0;
  std::printf("disarmed injector overhead: %.2f%% of clean goodput "
              "(guarantee: < 1%%)\n",
              DisarmedOverheadPct);
  if (DisarmedOverheadPct >= 1.0)
    std::fprintf(stderr,
                 "bench_net: WARNING: disarmed NetFault overhead %.2f%% "
                 "exceeds the 1%% guarantee\n",
                 DisarmedOverheadPct);

  auto Row = [](json::Writer &W, const char *Label, const char *RateKey,
                double Rate, const auto &R) {
    W.beginObject().member("config", Label).member(RateKey, Rate);
    W.fields(R).endObject();
  };
  bool Wrote = writeBenchJson("net", [&](json::Writer &W) {
    W.member("scale", Scale)
        .member("connections", Conns)
        .member("jobs_per_conn", Jobs)
        .member("calibration_jobs_per_sec", Cal.JobsPerSec);
    W.key("sweep").beginArray();
    for (const SweepPoint &P : Sweep)
      Row(W, P.Label.c_str(), "rate_target", P.RateTarget, P.R);
    W.endArray().key("coalesce").beginArray();
    Row(W, "window-1", "rate_target", Overload, W1);
    Row(W, "window-8", "rate_target", Overload, W8);
    W.endArray().key("faults").beginArray();
    for (const FaultPoint &P : FaultSweep)
      Row(W, P.Label, "fault_rate", P.Rate < 0 ? 0.0 : P.Rate, P.T);
    W.endArray()
        .member("disarmed_overhead_pct", DisarmedOverheadPct)
        .member("coalesce_speedup", Gain);
  });
  return Wrote ? 0 : 1;
}
