//===- bench/bench_serve.cpp - ExoServe admission overhead + throughput -------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Measures the cost of the ExoServe job layer:
//
//   overhead   - a minimal (halt-only, 1-shred) job dispatched directly
//                through chi::Runtime vs submitted/run/accounted through
//                serve::Server: the per-job admission + watchdog +
//                breaker bookkeeping, in wall-clock us/job;
//   saturation - sustained jobs/sec with the admission queue kept full
//                (submit a batch to capacity, drain it, repeat), on the
//                vecadd workload, with and without a deadline budget.
//
// Writes a human-readable table to stdout and machine-readable results to
// BENCH_serve.json (override the path with EXOCHI_BENCH_JSON).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "serve/Server.h"

#include <chrono>
#include <vector>

using namespace exochi;
using namespace exochi::bench;

namespace {

struct Rig {
  Rig() : RT(Platform) {
    chi::ProgramBuilder PB;
    cantFail(PB.addXgmaKernel("empty", "  halt\n", {}, {}).takeError());
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
    A = Platform.allocateShared(N * 4, "A");
    B = Platform.allocateShared(N * 4, "B");
    C = Platform.allocateShared(N * 4, "C");
    ADesc = cantFail(RT.allocDesc(chi::TargetIsa::X3000, A.Base,
                                  chi::SurfaceMode::Input, N, 1));
    BDesc = cantFail(RT.allocDesc(chi::TargetIsa::X3000, B.Base,
                                  chi::SurfaceMode::Input, N, 1));
    CDesc = cantFail(RT.allocDesc(chi::TargetIsa::X3000, C.Base,
                                  chi::SurfaceMode::Output, N, 1));
  }

  chi::RegionSpec emptyRegion() const {
    chi::RegionSpec Spec;
    Spec.KernelName = "empty";
    Spec.NumThreads = 1;
    return Spec;
  }

  chi::RegionSpec vecaddRegion() const {
    chi::RegionSpec Spec;
    Spec.KernelName = "vecadd";
    Spec.NumThreads = N / 8;
    Spec.SharedDescs = {{"A", ADesc}, {"B", BDesc}, {"C", CDesc}};
    Spec.Private["i"] = [](unsigned T) { return static_cast<int32_t>(T); };
    return Spec;
  }

  exo::ExoPlatform Platform;
  chi::Runtime RT;
  static constexpr unsigned N = 64;
  exo::SharedBuffer A, B, C;
  uint32_t ADesc = 0, BDesc = 0, CDesc = 0;
};

double wallSec(const std::function<void()> &Fn) {
  auto T0 = std::chrono::steady_clock::now();
  Fn();
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(T1 - T0).count();
}

/// One saturation configuration's best-of-trials result.
struct SatResult {
  std::string Config;
  double JobsPerSec = 0;
  Percentiles LatUs; ///< per-job pop-to-terminal wall latency
  uint64_t Completed = 0, Preempted = 0;

  static constexpr auto jsonFields() {
    using S = SatResult;
    return json::fields(
        "config", &S::Config, "jobs_per_sec", &S::JobsPerSec,
        "completed", &S::Completed, "deadline_preempted", &S::Preempted,
        "latency_us", &S::LatUs);
  }
};

} // namespace

int main() {
  double Scale = benchScale();
  const unsigned Jobs = static_cast<unsigned>(2000 * Scale);
  constexpr int Trials = 3;

  // --- Overhead: direct dispatch vs the server path, empty job. -------
  double DirectSec = 1e99, ServedSec = 1e99;
  for (int T = 0; T < Trials; ++T) {
    {
      Rig R;
      chi::RegionSpec Spec = R.emptyRegion();
      DirectSec = std::min(DirectSec, wallSec([&] {
                             for (unsigned J = 0; J < Jobs; ++J)
                               cantFail(R.RT.dispatch(Spec).takeError());
                           }));
    }
    {
      Rig R;
      serve::Server Srv(R.RT);
      serve::JobSpec JS;
      JS.Region = R.emptyRegion();
      ServedSec = std::min(ServedSec, wallSec([&] {
                             for (unsigned J = 0; J < Jobs; ++J) {
                               serve::JobSpec Copy = JS;
                               Srv.submit(std::move(Copy));
                               Srv.runNext();
                             }
                           }));
    }
  }
  double DirectUs = DirectSec / Jobs * 1e6, ServedUs = ServedSec / Jobs * 1e6;
  double OverheadPct = (ServedSec - DirectSec) / DirectSec * 100.0;

  std::printf("=== ExoServe admission overhead (scale %.2f, %u jobs) ===\n",
              Scale, Jobs);
  std::printf("%-12s %12s %12s\n", "path", "us/job", "overhead");
  std::printf("%-12s %12.3f %12s\n", "direct", DirectUs, "-");
  std::printf("%-12s %12.3f %11.2f%%\n", "served", ServedUs, OverheadPct);

  // --- Saturation: queue kept full, vecadd jobs. ----------------------
  std::vector<SatResult> Sat;
  for (int64_t Deadline : {-1L, 600L}) {
    SatResult SR;
    SR.Config = Deadline < 0 ? "no-deadline" : "deadline-600cy";
    double Best = 1e99;
    for (int T = 0; T < Trials; ++T) {
      Rig R;
      serve::ServerConfig SC;
      SC.Queue.PerClientCap = SC.Queue.Capacity; // single greedy client
      serve::Server Srv(R.RT, SC);
      unsigned Submitted = 0;
      std::vector<double> LatUs;
      LatUs.reserve(Jobs);
      double Sec = wallSec([&] {
        while (Submitted < Jobs) {
          while (Submitted < Jobs && Srv.queue().size() <
                                         SC.Queue.Capacity) {
            serve::JobSpec JS;
            JS.Region = R.vecaddRegion();
            JS.DeadlineCycles = Deadline;
            Srv.submit(std::move(JS));
            ++Submitted;
          }
          for (;;) {
            auto T0 = std::chrono::steady_clock::now();
            if (!Srv.runNext())
              break;
            auto T1 = std::chrono::steady_clock::now();
            LatUs.push_back(
                std::chrono::duration<double, std::micro>(T1 - T0).count());
          }
        }
      });
      if (Sec < Best) {
        Best = Sec;
        SR.LatUs = latencyPercentiles(LatUs);
      }
      SR.Completed = Srv.stats().Completed;
      SR.Preempted = Srv.stats().DeadlinePreempted;
    }
    SR.JobsPerSec = Jobs / Best;
    Sat.push_back(SR);
  }

  std::printf("\n=== ExoServe saturation throughput (vecadd, %u jobs) ===\n",
              Jobs);
  std::printf("%-16s %12s %10s %10s %9s %9s %9s\n", "config", "jobs/sec",
              "completed", "preempted", "p50us", "p95us", "p99us");
  for (const SatResult &SR : Sat)
    std::printf("%-16s %12.0f %10llu %10llu %9.1f %9.1f %9.1f\n",
                SR.Config.c_str(), SR.JobsPerSec,
                static_cast<unsigned long long>(SR.Completed),
                static_cast<unsigned long long>(SR.Preempted), SR.LatUs.P50,
                SR.LatUs.P95, SR.LatUs.P99);

  bool Wrote = writeBenchJson("serve", [&](json::Writer &W) {
    W.member("scale", Scale).member("trials", Trials).member("jobs", Jobs);
    W.key("overhead")
        .beginObject()
        .member("direct_us_per_job", DirectUs)
        .member("served_us_per_job", ServedUs)
        .member("overhead_pct", OverheadPct)
        .endObject();
    W.member("saturation", Sat);
  });
  return Wrote ? 0 : 1;
}
