//===- bench/bench_faultlab.cpp - FaultLab overhead + resilience bench --------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Measures the cost of the FaultLab probe sites in three configurations on
// a Table 2 media kernel:
//
//   baseline  - no injector installed (the pre-FaultLab fast path);
//   disarmed  - injector installed with every rate at 0 (each probe site
//               must cost ~one branch: the acceptance bar is <1% overhead);
//   armed     - `all` kinds at a small rate, demonstrating that the
//               degradation ladder completes the workload and reporting
//               the resilience counters.
//
// Writes a human-readable table to stdout and machine-readable results to
// BENCH_faultlab.json (override the path with EXOCHI_BENCH_JSON).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "fault/FaultInjector.h"

#include <chrono>
#include <vector>

using namespace exochi;
using namespace exochi::bench;

namespace {

struct Result {
  std::string Config;
  double WallSec = 0;
  double OverheadPct = 0; ///< vs baseline
  uint64_t SimInstructions = 0;
  uint64_t FaultsInjected = 0;
  uint64_t Retried = 0;
  uint64_t Redispatched = 0;
  uint64_t Offlined = 0;

  static constexpr auto jsonFields() {
    using S = Result;
    return json::fields(
        "config", &S::Config, "wall_seconds", &S::WallSec,
        "overhead_pct", &S::OverheadPct,
        "sim_instructions", &S::SimInstructions,
        "faults_injected", &S::FaultsInjected, "retried", &S::Retried,
        "redispatched", &S::Redispatched, "eus_offlined", &S::Offlined);
  }
};

/// Best-of-trials wall clock of one configuration; a fresh platform per
/// trial so cache, TLB, and bus state never carry over.
Result runConfig(const std::string &Config, const kernels::Table2Kernel &K,
                 double Scale, const std::string &InjectSpec, int Trials) {
  Result R;
  R.Config = Config;
  R.WallSec = 1e99;
  for (int Trial = 0; Trial < Trials; ++Trial) {
    WorkloadInstance W = instantiate(K.create(Scale));
    fault::FaultInjector Inj(42);
    if (Config != "baseline") {
      if (!InjectSpec.empty())
        Inj = cantFail(fault::FaultInjector::parse(InjectSpec, 42));
      W.Platform->armFaultInjection(&Inj);
    }
    auto T0 = std::chrono::steady_clock::now();
    chi::RegionStats S = deviceRun(W);
    auto T1 = std::chrono::steady_clock::now();
    R.WallSec =
        std::min(R.WallSec, std::chrono::duration<double>(T1 - T0).count());
    R.SimInstructions = S.Device.Instructions;
    const chi::ChiStats &FS = W.RT->faultStats();
    R.FaultsInjected = FS.FaultsInjected;
    R.Retried = FS.Retried;
    R.Redispatched = FS.Redispatched;
    R.Offlined = FS.Offlined;
  }
  return R;
}

} // namespace

int main() {
  double Scale = benchScale();
  constexpr int Trials = 3;

  const kernels::Table2Kernel &Sepia = kernels::table2Kernels()[1];

  std::printf("=== FaultLab probe overhead + resilience (scale %.2f) ===\n",
              Scale);
  std::printf("%-10s %10s %10s %12s %8s %8s %8s %8s\n", "config", "wall ms",
              "overhead", "sim instrs", "faults", "retried", "redisp",
              "offline");

  std::vector<Result> Results;
  Results.push_back(runConfig("baseline", Sepia, Scale, "", Trials));
  Results.push_back(runConfig("disarmed", Sepia, Scale, "", Trials));
  Results.push_back(runConfig("armed", Sepia, Scale, "all:0.002", Trials));

  double BaselineWall = Results[0].WallSec;
  for (Result &R : Results) {
    R.OverheadPct = (R.WallSec - BaselineWall) / BaselineWall * 100.0;
    std::printf("%-10s %10.2f %9.2f%% %12llu %8llu %8llu %8llu %8llu\n",
                R.Config.c_str(), R.WallSec * 1e3, R.OverheadPct,
                static_cast<unsigned long long>(R.SimInstructions),
                static_cast<unsigned long long>(R.FaultsInjected),
                static_cast<unsigned long long>(R.Retried),
                static_cast<unsigned long long>(R.Redispatched),
                static_cast<unsigned long long>(R.Offlined));
  }

  bool Wrote = writeBenchJson("faultlab", [&](json::Writer &W) {
    W.member("scale", Scale)
        .member("trials", Trials)
        .member("kernel", Sepia.Name)
        .member("results", Results);
  });
  return Wrote ? 0 : 1;
}
