//===- bench/exobench/exobench.cpp - The repository's benchmark -------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
//
// One binary, four workloads, every metric by name and unit:
//
//   exobench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//            [--scratch DIR]
//
//   net-small            ExoNet over TCP loopback: 8-shred vecadd jobs on
//                        declared surfaces; per window, a fixed-rate
//                        Poisson open loop, then a closed loop of 2
//                        connections x 8 outstanding.
//   net-payload          ExoNet over a unix socket: each job uploads 2x16
//                        KB inline, runs a 64-shred strip vecadd, fetches
//                        its 16 KB output; closed loop, 4 x 1 outstanding.
//   table2-fast          the ten Table 2 kernels at scale 0.5 through
//                        chi::Runtime::dispatch on the XJIT fast lane.
//   table2-cluster-cycle the same kernels at scale 0.25 on the cycle model,
//                        two devices plus the IA32 host lane, stealing on.
//
// Without --trace the run reports the end-to-end metrics; with --trace 1
// it records spans around every layer call the benchmark makes (written
// to DIR/trace-NAME.json), runs the unloaded layer ladder, and reports
// the per-layer metrics. Every workload checks its outputs and exits 1
// on a wrong answer, a silent backend fallback, or simulated counts that
// differ between passes. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//===----------------------------------------------------------------------===//

#include "Ladder.h"
#include "Serving.h"
#include "Table2.h"

#include "support/Random.h"

#include <algorithm>
#include <cstdlib>
#include <sys/prctl.h>
#include <unistd.h>

using namespace exobench;
using namespace exochi;

namespace {

/// net-small's open-loop arrival rate, jobs/s. Fixed, never recalibrated;
/// it kept a fresh server's loop thread about 15% busy on the commit that
/// introduced this benchmark.
constexpr double NetSmallRate = 5000;
/// Table 2 set-ups per run: at least MinSetupReps, more while they total
/// under MinSetupSeconds; setup_s is their median.
constexpr unsigned MinSetupReps = 3, MaxSetupReps = 10;
constexpr double MinSetupSeconds = 2.0;
/// The work of one serving window (see runServing): net-small's open
/// loop runs OpenLoopS, then its closed loop answers SmallClosedJobs;
/// net-payload's closed loop answers PayloadJobs. No phase may take
/// longer than PhaseLimitS.
constexpr double OpenLoopS = 0.3;
constexpr uint64_t SmallClosedJobs = 10000, PayloadJobs = 2500;
constexpr double PhaseLimitS = 60;
/// A generator later than this at its p99 did not deliver its schedule.
constexpr double MaxLagMs = 1.0;
/// A Table 2 frame's latency limit: its dispatch finishes within three
/// frame periods at 30 frames/s. (Serving jobs have SloMs.) The slowest
/// frame took about 30 ms on the commit that introduced this benchmark.
constexpr double FrameSloMs = 100;

const char *const WorkloadNames[] = {"net-small", "net-payload", "table2-fast",
                                     "table2-cluster-cycle"};

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 20;
  bool Traced = false;
  std::string Scratch = ".";
};

/// What a run prints.
struct Report {
  Metrics M;
  uint64_t Attempted = 0, Failed = 0;
};

/// Builds the workload's stack from nothing several times, keeps the last
/// one, and returns the median set-up wall time in \p SetupS.
template <typename T, typename F>
std::unique_ptr<T> setUp(F &&Make, double &SetupS) {
  Samples S;
  std::unique_ptr<T> Keep;
  while (S.size() < MinSetupReps ||
         (S.size() < MaxSetupReps && S.sum() < MinSetupSeconds)) {
    Keep.reset();
    auto T0 = Clock::now();
    Keep = Make();
    S.add(msBetween(T0, Clock::now()) / 1e3);
  }
  SetupS = S.median();
  return Keep;
}

/// Per-window latency quantiles.
struct WindowLatency {
  Samples P50, P90, P99;
  size_t MinSamples = ~size_t(0); ///< the smallest window's sample count

  void add(const Samples &Ms) {
    P50.add(Ms.median());
    P90.add(Ms.quantile(0.9));
    P99.add(Ms.quantile(0.99));
    MinSamples = std::min(MinSamples, Ms.size());
  }
};

/// The good quartile of the windows' latency quantiles: p50 is an
/// end-to-end metric; p90 and p99, too much at the mercy of the host to
/// hold a bound, are per-layer ones, from a traced run's untraced windows.
void reportLatency(Report &R, const WindowLatency &L, bool Traced) {
  if (Traced) {
    R.M.set("latency_p90_ms", goodQuartile(L.P90, false), "ms");
    R.M.set("latency_p99_ms", goodQuartile(L.P99, false), "ms");
    return;
  }
  R.M.set("latency_p50_ms", goodQuartile(L.P50, false), "ms");
  std::fprintf(stderr,
               "exobench: latency over %zu windows, the smallest with %zu "
               "samples (%zu beyond its p90)%s\n",
               L.P50.size(), L.MinSamples, L.MinSamples / 10,
               L.MinSamples < 100 ? ": its p90 is thin" : "");
}

/// The share of attempted jobs that completed, and the share of the \p
/// Timed jobs latency is measured on that were answered within the
/// workload's latency limit (\p Met). A failed or refused job misses the
/// limit. Both read 1 on a healthy run, never 0.
void reportOutcomes(Report &R, uint64_t Timed, uint64_t Met) {
  R.M.set("completed_frac",
          static_cast<double>(R.Attempted - R.Failed) / R.Attempted, "ratio");
  R.M.set("slo_met_frac", static_cast<double>(Met) / Timed, "ratio");
}

//===----------------------------------------------------------------------===//
// Per-layer metrics
//===----------------------------------------------------------------------===//

/// One Table 2 configuration's per-kernel host times and exact counts.
struct KernelSide {
  std::vector<std::string> Names;
  std::vector<double> Ms; ///< per kernel, per pass (median over passes)
  double PassMs = 0;      ///< median pass
  KernelCounts Total;     ///< summed over the kernels of one pass
  double FirstDispatchMs = 0;
};

/// Host times are medians over \p Passes; counts are those of \p Counted,
/// the first pass after the warm-up (the one pass whose timing-dependent
/// counts repeat exactly from run to run).
KernelSide summarize(const Table2Rig &Rig,
                     const std::vector<PassResult> &Passes,
                     const PassResult &Counted) {
  KernelSide K;
  Samples Pass;
  for (const PassResult &P : Passes)
    Pass.add(P.Ms);
  K.PassMs = Pass.median();
  for (size_t I = 0; I < Rig.size(); ++I) {
    K.Names.push_back(Rig.name(I));
    Samples S;
    for (const PassResult &P : Passes)
      S.add(P.KernelMs[I]);
    K.Ms.push_back(S.median());
    const KernelCounts &C = Counted.Counts[I];
    K.Total.Instructions += C.Instructions;
    K.Total.MemoryOps += C.MemoryOps;
    K.Total.CacheMisses += C.CacheMisses;
    K.Total.TlbMisses += C.TlbMisses;
    K.Total.ProxyCalls += C.ProxyCalls;
    K.Total.HostShreds += C.HostShreds;
    K.Total.StolenShreds += C.StolenShreds;
    K.Total.IssueCycles += C.IssueCycles;
    K.Total.SimNs += C.SimNs;
    K.Total.FinishSpreadNs += C.FinishSpreadNs;
  }
  K.FirstDispatchMs = Rig.firstDispatchMs();
  return K;
}

/// A configuration the workload does not run itself: set up (with its
/// warm-up pass), then one measured pass.
KernelSide probeKernels(const Table2Config &C) {
  Table2Rig Rig(C);
  std::vector<unsigned> Order(Rig.size());
  for (unsigned K = 0; K < Order.size(); ++K)
    Order[K] = K;
  PassResult P = Rig.pass(Order, nullptr, 0);
  return summarize(Rig, {P}, P);
}

void reportKernels(Metrics &M, const KernelSide &Fast,
                   const KernelSide &Cycle) {
  for (size_t K = 0; K < Fast.Names.size(); ++K)
    M.set("xjit.ms." + Fast.Names[K], Fast.Ms[K], "ms");
  M.set("xjit.sim_mips", Fast.Total.Instructions / (Fast.PassMs * 1e3),
        "MIPS");
  M.set("xjit.first_dispatch_ms", Fast.FirstDispatchMs, "ms");
  M.set("xjit.sim_device_ms", Fast.Total.SimNs / 1e6, "sim_ms");

  for (size_t K = 0; K < Cycle.Names.size(); ++K)
    M.set("gma.ms." + Cycle.Names[K], Cycle.Ms[K], "ms");
  M.set("gma.sim_mips", Cycle.Total.Instructions / (Cycle.PassMs * 1e3),
        "MIPS");
  M.set("gma.sim_device_ms", Cycle.Total.SimNs / 1e6, "sim_ms");
  M.set("gma.instructions", Cycle.Total.Instructions, "count");
  M.set("gma.issue_cycles", Cycle.Total.IssueCycles, "cycles");
  M.set("gma.memory_ops", Cycle.Total.MemoryOps, "count");
  M.set("gma.cache_misses", Cycle.Total.CacheMisses, "count");
  M.set("gma.tlb_misses", Cycle.Total.TlbMisses, "count");
  M.set("gma.proxy_calls", Cycle.Total.ProxyCalls, "count");
  M.set("cluster.host_shreds", Cycle.Total.HostShreds, "count");
  M.set("cluster.stolen_shreds", Cycle.Total.StolenShreds, "count");
  M.set("cluster.lane_finish_spread", Cycle.Total.FinishSpreadNs, "sim_ns");
}

/// The serving-path layers: the wire codec, the server that served the
/// jobs, the ladder's self times, and the generator's own schedule.
struct ServingSide {
  const CodecSamples *Codec = nullptr;
  const LadderResult *Ladder = nullptr;
  net::NetStats Net;
  serve::ServeStats Serve;
  const PhaseStats *Load = nullptr; ///< the generator's lag comes from here
  const PhaseStats *Busy = nullptr; ///< the loop's CPU use comes from here
  double QueueWaitMs = 0;
};

void reportServing(Metrics &M, const ServingSide &S) {
  const CodecSamples &C = *S.Codec;
  M.set("net.encode_submit_us", C.EncodeSubmit.median(), "us");
  M.set("net.decode_submit_us", C.DecodeSubmit.median(), "us");
  M.set("net.encode_result_us", C.EncodeResult.median(), "us");
  M.set("net.decode_result_us", C.DecodeResult.median(), "us");
  M.set("net.parse_us_per_kb", C.ParseUs / (C.ParseBytes / 1024.0), "us/KB");
  M.set("net.self_us", S.Ladder->NetSelfUs, "us");
  double Jobs = static_cast<double>(S.Serve.Submitted);
  M.set("net.bytes_per_job", (S.Net.BytesIn + S.Net.BytesOut) / Jobs, "B");
  M.set("net.frames_per_job", (S.Net.FramesIn + S.Net.FramesOut) / Jobs,
        "count");
  M.set("net.backpressure_stalls_per_kjob",
        S.Net.BackpressureStalls * 1e3 / Jobs, "count");

  M.set("serve.submit_us", S.Ladder->SubmitUs, "us");
  M.set("serve.run_self_us", S.Ladder->RunSelfUs, "us");
  M.set("serve.queue_wait_p50_ms", S.QueueWaitMs, "ms");
  double Dispatches =
      static_cast<double>(S.Serve.Completed - S.Serve.CoalescedJobs);
  M.set("serve.batch_size_mean", S.Serve.Completed / Dispatches, "jobs");
  uint64_t Rejected = S.Serve.RejectedQueueFull + S.Serve.RejectedClientQuota +
                      S.Serve.RejectedZeroBudget + S.Serve.RejectedDraining +
                      S.Serve.RejectedCostOverDeadline +
                      S.Serve.RejectedDeadlineExpired + S.Serve.Shed;
  M.set("serve.rejected_frac", Rejected / Jobs, "ratio");
  M.set("serve.fast_lane_frac",
        static_cast<double>(S.Serve.FastLaneJobs) / S.Serve.Completed,
        "ratio");

  M.set("chi.dispatch_null_us", S.Ladder->DispatchNullUs, "us");
  M.set("chi.dispatch_small_us", S.Ladder->DispatchSmallUs, "us");
  M.set("chi.dispatch_payload_us", S.Ladder->DispatchPayloadUs, "us");

  M.set("loadgen.lag_p99_ms", S.Load->LagMs.quantile(0.99), "ms");
  M.set("serve.loop_cpu_util", S.Busy->LoopCpuS / S.Busy->Seconds, "ratio");
}

/// FATAL unless every job the server completed ran on the fast lane.
void checkFastLane(const serve::ServeStats &S) {
  if (S.FastLaneJobs != S.Completed)
    fatal("%llu of %llu served jobs fell back from the fast lane",
          static_cast<unsigned long long>(S.Completed - S.FastLaneJobs),
          static_cast<unsigned long long>(S.Completed));
}

void checkLag(const Samples &LagMs) {
  double Lag = LagMs.quantile(0.99);
  if (Lag > MaxLagMs)
    std::fprintf(stderr,
                 "exobench: WARNING: INVALID RUN: generator lag p99 %.3f ms "
                 "exceeds %.1f ms; the open-loop schedule was not kept\n",
                 Lag, MaxLagMs);
}

//===----------------------------------------------------------------------===//
// Serving workloads
//===----------------------------------------------------------------------===//

/// An ExoNet server plus a connected, warmed-up generator.
struct NetStack {
  NetStack(const std::string &UnixPath, JobShape Shape, unsigned Conns,
           uint64_t Seed)
      : Rig(UnixPath), Gen(Rig, Shape, Conns, Seed, nullptr, nullptr) {}
  ServerRig Rig;
  Generator Gen;
};

/// Adds the counters reportServing reads from one server to \p S.
void addServed(ServingSide &S, const net::NetServer &Srv) {
  const net::NetStats &N = Srv.netStats();
  const serve::ServeStats &V = Srv.server().stats();
  S.Net.BytesIn += N.BytesIn;
  S.Net.BytesOut += N.BytesOut;
  S.Net.FramesIn += N.FramesIn;
  S.Net.FramesOut += N.FramesOut;
  S.Net.BackpressureStalls += N.BackpressureStalls;
  S.Serve.Submitted += V.Submitted;
  S.Serve.Completed += V.Completed;
  S.Serve.CoalescedJobs += V.CoalescedJobs;
  S.Serve.FastLaneJobs += V.FastLaneJobs;
  S.Serve.Shed += V.Shed;
  S.Serve.RejectedQueueFull += V.RejectedQueueFull;
  S.Serve.RejectedClientQuota += V.RejectedClientQuota;
  S.Serve.RejectedZeroBudget += V.RejectedZeroBudget;
  S.Serve.RejectedDraining += V.RejectedDraining;
  S.Serve.RejectedCostOverDeadline += V.RejectedCostOverDeadline;
  S.Serve.RejectedDeadlineExpired += V.RejectedDeadlineExpired;
}

/// The serving workloads run in windows, each on a fresh server stack (set
/// up, loaded, checked, torn down) and each doing the same work. The server
/// keeps state per dispatch that slows every later dispatch and grows its
/// memory, so one long-lived server would make every number a function of
/// how many jobs came before it; fresh stacks doing fixed work make the
/// windows alike, and the end-to-end numbers are the good quartile over
/// them. setup_s is the median set-up of the windows' stacks. Windows run
/// until --seconds have passed.
///
/// A traced run spends the first half of its time in untraced windows and
/// the second half in traced ones (the throughput difference is the
/// tracing overhead), then runs the ladder and the kernel probes for the
/// per-layer metrics.
void runServing(const Options &O, Report &R, Trace &T, JobShape Shape) {
  bool Small = Shape == JobShape::Small;
  std::string UnixPath =
      Small ? "" : O.Scratch + "/xb-" + std::to_string(::getpid()) + ".sock";
  const unsigned Conns = 4;

  Samples SetupS, Rates, TracedRates, Lag;
  WindowLatency Lat;
  PhaseStats TracedLat, TracedClosed; ///< every traced window, merged
  CodecSamples Codec;
  ServingSide S;
  uint64_t Timed = 0, TimedMet = 0; ///< untraced jobs latency is taken on
  double FirstWindowRssMb = 0;
  unsigned K = 0;
  auto Window = [&](bool Traced) {
    uint64_t WindowSeed = O.Seed * 1000003 + K++;
    auto T0 = Clock::now();
    NetStack Stack(UnixPath, Shape, Conns, WindowSeed);
    SetupS.add(msBetween(T0, Clock::now()) / 1e3);
    if (Traced)
      Stack.Gen.setTracing(&T, &Codec);
    PhaseStats Latency, Closed;
    if (Small) {
      Latency = Stack.Gen.openLoop(NetSmallRate, OpenLoopS, WindowSeed);
      Closed = Stack.Gen.closedLoop(2, 8, PhaseLimitS, SmallClosedJobs);
    } else {
      Closed = Stack.Gen.closedLoop(Conns, 1, PhaseLimitS, PayloadJobs);
      Latency = Closed;
    }
    Stack.Gen.setTracing(nullptr, nullptr);
    Stack.Gen.verifyOutputs();
    Stack.Gen.bye();
    Stack.Rig.shutdown();
    checkFastLane(Stack.Rig.server().server().stats());
    Lag.append(Latency.LagMs);
    addServed(S, Stack.Rig.server());
    R.Attempted += Latency.Attempted + (Small ? Closed.Attempted : 0);
    R.Failed += Latency.Failed + (Small ? Closed.Failed : 0);
    if (K == 1)
      FirstWindowRssMb = peakRssMb();
    if (!Traced) {
      Rates.add(Closed.jobsPerSec());
      Lat.add(Latency.LatencyMs);
      Timed += Latency.Attempted;
      TimedMet += Latency.Attempted - Latency.SloMiss;
      return;
    }
    TracedRates.add(Closed.jobsPerSec());
    TracedLat.add(Latency);
    TracedClosed.add(Closed);
  };
  auto Start = Clock::now();
  auto Elapsed = [&] { return msBetween(Start, Clock::now()) / 1e3; };
  double Untraced = O.Traced ? O.Seconds / 2 : O.Seconds;
  do
    Window(false);
  while (Elapsed() < Untraced);
  if (O.Traced)
    do
      Window(true);
    while (Elapsed() < O.Seconds);
  checkLag(Lag);

  if (!O.Traced) {
    R.M.set("setup_s", SetupS.median(), "s");
    R.M.set("throughput_jobs_s", goodQuartile(Rates, true), "jobs/s");
    reportLatency(R, Lat, false);
    reportOutcomes(R, Timed, TimedMet);
    R.M.set("peak_rss_mb", FirstWindowRssMb, "MB");
    return;
  }
  reportLatency(R, Lat, true);

  LadderResult L = runLadder(Shape, UnixPath, O.Seed, T);
  S.Codec = &Codec;
  S.Ladder = &L;
  S.Load = &TracedLat;
  S.Busy = &TracedClosed;
  S.QueueWaitMs = TracedLat.LatencyMs.median() - L.UnloadedP50Ms;
  reportServing(R.M, S);
  R.M.set("loadgen.latency_samples", TracedLat.LatencyMs.size(), "count");
  R.M.set("trace_overhead_pct",
          (Rates.median() / TracedRates.median() - 1) * 100, "%");
  reportKernels(R.M, probeKernels(fastConfig()),
                probeKernels(clusterCycleConfig()));
}

//===----------------------------------------------------------------------===//
// Table 2 workloads
//===----------------------------------------------------------------------===//

/// FATAL unless pass \p P did the same work as \p First.
void checkSameWork(const Table2Rig &Rig, const PassResult &First,
                   const PassResult &P) {
  for (size_t K = 0; K < Rig.size(); ++K) {
    const KernelCounts &A = First.Counts[K], &B = P.Counts[K];
    if (!A.sameWork(B))
      fatal("%s: simulated counts differ between passes (instructions "
            "%llu vs %llu, memory ops %llu vs %llu, issue cycles %.1f vs "
            "%.1f)",
            Rig.name(K).c_str(),
            static_cast<unsigned long long>(A.Instructions),
            static_cast<unsigned long long>(B.Instructions),
            static_cast<unsigned long long>(A.MemoryOps),
            static_cast<unsigned long long>(B.MemoryOps), A.IssueCycles,
            B.IssueCycles);
  }
}

void runTable2(const Options &O, Report &R, Trace &T, bool Fast) {
  Table2Config C = Fast ? fastConfig() : clusterCycleConfig();
  double SetupS = 0;
  auto Rig = setUp<Table2Rig>([&] { return std::make_unique<Table2Rig>(C); },
                              SetupS);
  Rig->computeReferences();

  // The seed picks the round-robin order of the kernels.
  std::vector<unsigned> Order(Rig->size());
  for (unsigned K = 0; K < Order.size(); ++K)
    Order[K] = K;
  Rng Rand(O.Seed);
  for (size_t K = Order.size(); K > 1; --K)
    std::swap(Order[K - 1], Order[Rand.nextBelow(K)]);

  uint64_t NextId = 0;
  PassResult First;
  double FirstWindowRssMb = 0;
  // Passes until Secs of pass time have run. The first pass of the run
  // starts from cleared outputs and is checked against the references.
  auto Run = [&](double Secs, Trace *PT) {
    std::vector<PassResult> Passes;
    double Ms = 0;
    bool Check = First.Counts.empty();
    while (Ms < Secs * 1e3) {
      if (Check)
        Rig->clearOutputs();
      Passes.push_back(Rig->pass(Order, PT, NextId));
      NextId += Rig->jobsPerPass();
      if (Check) {
        FirstWindowRssMb = peakRssMb();
        Rig->checkOutputs();
        First = Passes.back();
        Check = false;
      }
      checkSameWork(*Rig, First, Passes.back());
      Ms += Passes.back().Ms;
      R.Attempted += Rig->jobsPerPass();
    }
    return Passes;
  };
  // Each pass is a window: its throughput and latency quantiles.
  double JobsPerPass = static_cast<double>(Rig->jobsPerPass());
  auto Rates = [&](const std::vector<PassResult> &Passes) {
    Samples S;
    for (const PassResult &P : Passes)
      S.add(JobsPerPass / (P.Ms / 1e3));
    return S;
  };

  std::vector<PassResult> Main = Run(O.Traced ? O.Seconds / 2 : O.Seconds,
                                     nullptr);
  std::vector<PassResult> Traced;
  if (O.Traced)
    Traced = Run(O.Seconds / 2, &T);
  // The last pass, outside the timed window: cleared outputs again, the
  // references again, the counts again.
  Rig->clearOutputs();
  PassResult Last = Rig->pass(Order, nullptr, NextId);
  Rig->checkOutputs();
  checkSameWork(*Rig, First, Last);

  WindowLatency Lat;
  uint64_t Frames = 0, Late = 0;
  for (const PassResult &P : Main) {
    Lat.add(P.JobMs);
    Frames += P.JobMs.size();
    Late += P.JobMs.countAbove(FrameSloMs);
  }
  reportLatency(R, Lat, O.Traced);
  if (!O.Traced) {
    R.M.set("setup_s", SetupS, "s");
    R.M.set("throughput_jobs_s", goodQuartile(Rates(Main), true), "jobs/s");
    reportOutcomes(R, Frames, Frames - Late);
    R.M.set("peak_rss_mb", FirstWindowRssMb, "MB");
    return;
  }

  KernelSide Own = summarize(*Rig, Traced, First);
  Rig.reset();
  KernelSide Other = probeKernels(Fast ? clusterCycleConfig() : fastConfig());
  reportKernels(R.M, Fast ? Own : Other, Fast ? Other : Own);

  // The serving layers are not on this workload's path: their numbers
  // come from the ladder (Small job, TCP), whose ExoNet rung also serves
  // the 16-deep burst that queue wait is measured on.
  LadderResult L = runLadder(JobShape::Small, "", O.Seed, T);
  ServingSide S;
  S.Codec = &L.Codec;
  S.Ladder = &L;
  S.Net = L.Net;
  S.Serve = L.Serve;
  S.Load = &L.Load;
  S.Busy = &L.Load;
  S.QueueWaitMs = L.BurstP50Ms - L.UnloadedP50Ms;
  reportServing(R.M, S);
  uint64_t Samples = 0;
  for (const PassResult &P : Traced)
    Samples += P.JobMs.size();
  R.M.set("loadgen.latency_samples", Samples, "count");
  R.M.set("trace_overhead_pct",
          (Rates(Main).median() / Rates(Traced).median() - 1) * 100, "%");
}

//===----------------------------------------------------------------------===//
// Command line
//===----------------------------------------------------------------------===//

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "exobench: %s\nusage: exobench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--scratch DIR]\nworkloads:",
               Why);
  for (const char *W : WorkloadNames)
    std::fprintf(stderr, " %s", W);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int K = 1; K < Argc; ++K) {
    std::string A = Argv[K];
    if (K + 1 >= Argc)
      usage(("missing value for " + A).c_str());
    std::string V = Argv[++K];
    char *End = nullptr;
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V.c_str(), &End, 10);
      if (V.empty() || *End || V[0] == '-')
        usage(("bad --seed '" + V + "'").c_str());
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V.c_str(), &End);
      if (V.empty() || *End || !(O.Seconds >= 0.5 && O.Seconds <= 600))
        usage(("bad --seconds '" + V + "' (0.5 to 600)").c_str());
    } else if (A == "--trace") {
      if (V != "0" && V != "1")
        usage(("bad --trace '" + V + "' (0 or 1)").c_str());
      O.Traced = V == "1";
    } else if (A == "--scratch") {
      O.Scratch = V;
    } else {
      usage(("unknown option " + A).c_str());
    }
  }
  if (std::find_if(std::begin(WorkloadNames), std::end(WorkloadNames),
                   [&](const char *W) { return O.Workload == W; }) ==
      std::end(WorkloadNames))
    usage(O.Workload.empty() ? "--workload is required"
                             : ("unknown workload " + O.Workload).c_str());
  return O;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseArgs(Argc, Argv);
  // Wake the generator's ppoll on time, not up to 50 us late.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  pinThread(pthread_self(), GeneratorCpu);
  Trace T;
  Report R;
  if (O.Workload == "net-small")
    runServing(O, R, T, JobShape::Small);
  else if (O.Workload == "net-payload")
    runServing(O, R, T, JobShape::Payload);
  else
    runTable2(O, R, T, O.Workload == "table2-fast");

  if (O.Traced) {
    std::string Path = O.Scratch + "/trace-" + O.Workload + ".json";
    if (!T.write(Path))
      fatal("cannot write %s", Path.c_str());
    std::fprintf(stderr, "exobench: wrote %zu spans (%llu dropped) to %s\n",
                 T.size(), static_cast<unsigned long long>(T.dropped()),
                 Path.c_str());
  }
  R.M.print(stdout, true, R.Attempted, R.Failed);
  return 0;
}
