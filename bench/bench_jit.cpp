//===- bench/bench_jit.cpp - XJIT fast lane vs cycle interpreter --------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Measures host wall-clock dispatch throughput (jobs/sec, one job = one
// full-workload device dispatch) of the XJIT host-native fast lane against
// the cycle-level interpreter, for every Table 2 kernel.
// Also runs the fast lane in forced-checked mode (Feature::Backend=2) to
// isolate the gain from XVerify-proven bounds-check elision.
//
// The bench cross-checks every fast run against the cycle run's functional
// counters (shreds, instructions, memory ops) — the backends must agree on
// what the kernel did, only on how fast the host simulated it may they
// differ.
//
// Writes a human-readable table to stdout and machine-readable results to
// BENCH_jit.json (override the path with EXOCHI_BENCH_JSON).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "isa/Encoding.h"
#include "xopt/Cost.h"

#include <chrono>
#include <vector>

using namespace exochi;
using namespace exochi::bench;

namespace {

struct Result {
  std::string Kernel;
  double CycleSec = 0;       ///< cycle backend
  double FastSec = 0;        ///< XJIT, verified checks elided
  double FastCheckedSec = 0; ///< XJIT, bounds checks forced on
  uint64_t SimInstructions = 0;
  double speedup() const { return CycleSec / FastSec; }
  double elisionGain() const { return FastCheckedSec / FastSec; }

  static constexpr auto jsonFields() {
    using S = Result;
    return json::fields(
        "kernel", &S::Kernel, "sim_instructions", &S::SimInstructions,
        "cycle_seconds", &S::CycleSec, "fast_seconds", &S::FastSec,
        "fast_checked_seconds", &S::FastCheckedSec,
        "cycle_jobs_per_sec", [](const S &R) { return 1.0 / R.CycleSec; },
        "fast_jobs_per_sec", [](const S &R) { return 1.0 / R.FastSec; },
        "speedup_fast_vs_cycle", &S::speedup, "elision_gain", &S::elisionGain);
  }
};

/// Best-of-\p Trials steady-state wall seconds for one dispatch under
/// the given backend selector; returns the last timed run's stats
/// through \p Out. A fresh platform per trial so cache/TLB state never
/// carries over between trials; within a trial one untimed warmup
/// dispatch precedes the measurement, so one-time costs (XJIT trace
/// compilation, the XVerify elision verdict, cold host caches) amortize
/// out — jobs/sec here is the serving-throughput number, not the
/// first-dispatch latency.
double timedRun(const kernels::Table2Kernel &K, double Scale,
                int64_t Backend, int Trials, chi::RegionStats &Out) {
  double Best = 1e99;
  for (int Trial = 0; Trial < Trials; ++Trial) {
    WorkloadInstance W = instantiate(K.create(Scale));
    W.RT->setFeature(chi::Feature::Backend, Backend);
    deviceRun(W); // warmup
    auto T0 = std::chrono::steady_clock::now();
    Out = deviceRun(W);
    auto T1 = std::chrono::steady_clock::now();
    Best = std::min(Best,
                    std::chrono::duration<double>(T1 - T0).count());
  }
  return Best;
}

} // namespace

int main() {
  double Scale = benchScale();
  constexpr int Trials = 3;

  std::printf("=== XJIT fast lane vs cycle interpreter (scale %.2f) ===\n",
              Scale);
  std::printf("%-14s %10s %10s %10s %10s %9s %8s\n", "kernel", "cycle ms",
              "fast ms", "checked", "jobs/s", "speedup", "elide");

  std::vector<Result> Results;
  for (const kernels::Table2Kernel &K : kernels::table2Kernels()) {
    const char *Name = K.Name;
    Result R;
    R.Kernel = Name;
    chi::RegionStats Cycle, Fast, Checked;
    R.CycleSec = timedRun(K, Scale, 0, Trials, Cycle);
    R.FastSec = timedRun(K, Scale, 1, Trials, Fast);
    R.FastCheckedSec = timedRun(K, Scale, 2, Trials, Checked);
    R.SimInstructions = Cycle.Device.Instructions;

    if (Fast.Device.Backend != gma::BackendKind::Fast ||
        Checked.Device.Backend != gma::BackendKind::Fast) {
      std::fprintf(stderr,
                   "bench_jit: FATAL: %s fell back to the cycle backend "
                   "(not fast-eligible?)\n",
                   Name);
      return 1;
    }
    for (const chi::RegionStats *S : {&Fast, &Checked}) {
      if (S->Device.ShredsExecuted != Cycle.Device.ShredsExecuted ||
          S->Device.Instructions != Cycle.Device.Instructions ||
          S->Device.MemoryOps != Cycle.Device.MemoryOps) {
        std::fprintf(stderr,
                     "bench_jit: FATAL: %s functional counters diverge "
                     "between backends (differential contract broken)\n",
                     Name);
        return 1;
      }
    }

    // XCost envelope: the measured issue-cycle counter of every run —
    // the same value on both backends, checked above — must fall inside
    // NumShreds * [min, max] of the static analysis under this
    // workload's real parameter envelope (DESIGN.md §15).
    {
      WorkloadInstance W = instantiate(K.create(Scale));
      const fatbin::CodeSection *Sec =
          W.RT->loadedSection(W.Workload->name());
      if (!Sec) {
        std::fprintf(stderr, "bench_jit: FATAL: %s kernel not loaded\n",
                     Name);
        return 1;
      }
      auto Prog = isa::decodeProgram(Sec->Code);
      if (!Prog) {
        std::fprintf(stderr, "bench_jit: FATAL: %s: %s\n", Name,
                     Prog.message().c_str());
        return 1;
      }
      xopt::VerifySpec Spec;
      Spec.NumScalarParams =
          static_cast<unsigned>(Sec->ScalarParams.size());
      Spec.NumSurfaceSlots =
          static_cast<int32_t>(Sec->SurfaceParams.size());
      for (unsigned P = 0; P < Spec.NumScalarParams; ++P) {
        auto Hull = W.Workload->scalarParamHull(P);
        Spec.ParamRanges[P] = xopt::Range{Hull.first, Hull.second};
      }
      xopt::CostReport CR = xopt::analyzeCost(*Prog, Spec, Name);
      double Shreds = static_cast<double>(Cycle.Device.ShredsExecuted);
      if (!CR.bounded() ||
          Cycle.Device.IssueCycles < Shreds * CR.minCycles() ||
          Cycle.Device.IssueCycles > Shreds * CR.maxCycles()) {
        std::fprintf(stderr,
                     "bench_jit: FATAL: %s issue cycles %.1f outside the "
                     "static envelope [%.1f, %.1f] x %.0f shreds\n",
                     Name, Cycle.Device.IssueCycles,
                     CR.minCycles(), CR.maxCycles(), Shreds);
        return 1;
      }
    }

    std::printf("%-14s %10.2f %10.2f %10.2f %10.1f %8.2fx %7.2fx\n",
                Name, R.CycleSec * 1e3, R.FastSec * 1e3,
                R.FastCheckedSec * 1e3, 1.0 / R.FastSec, R.speedup(),
                R.elisionGain());
    Results.push_back(R);
  }

  bool Wrote = writeBenchJson("jit", [&](json::Writer &W) {
    W.member("scale", Scale).member("trials", Trials).member("results",
                                                             Results);
  });
  return Wrote ? 0 : 1;
}
