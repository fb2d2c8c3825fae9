//===- bench/BenchCommon.h - Shared experiment-harness helpers --------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the bench binaries: bench_paper, which regenerates
/// the paper's tables and figures, and the system's own benches. The
/// EXOCHI_BENCH_SCALE environment variable (default 0.5, "1.0" = paper
/// input sizes) controls workload size so quick runs stay quick.
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_BENCH_BENCHCOMMON_H
#define EXOCHI_BENCH_BENCHCOMMON_H

#include "chi/ProgramBuilder.h"
#include "chi/Runtime.h"
#include "exo/ExoPlatform.h"
#include "kernels/Workloads.h"
#include "support/File.h"
#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace exochi {
namespace bench {

/// Reads the bench scale from the environment (default 0.5). Non-numeric
/// values fall back to the default with a warning — atof would silently
/// turn them into 0, which the clamp would then promote to the minimum
/// scale, quietly benchmarking a different workload size than requested.
inline double benchScale() {
  const char *S = std::getenv("EXOCHI_BENCH_SCALE");
  if (!S || !*S)
    return 0.5;
  char *End = nullptr;
  double V = std::strtod(S, &End);
  if (End == S || *End != '\0') {
    std::fprintf(stderr,
                 "bench: ignoring non-numeric EXOCHI_BENCH_SCALE='%s' "
                 "(using default 0.5)\n",
                 S);
    return 0.5;
  }
  return std::max(0.05, std::min(1.0, V));
}

/// Tail-latency summary of one sample set (any unit; the caller picks).
/// A quantile is estimated from the samples beyond it, so P999 is set
/// only when at least MinTailSamples lie past it (10000 samples in all);
/// with fewer it stays empty instead of quietly becoming the max.
struct Percentiles {
  static constexpr size_t MinTailSamples = 10;
  size_t Samples = 0;
  double P50 = 0, P95 = 0, P99 = 0;
  std::optional<double> P999;

  static constexpr auto jsonFields() {
    using S = Percentiles;
    return json::fields(
        "samples", &S::Samples, "p50", &S::P50, "p95", &S::P95, "p99", &S::P99,
        "p999", &S::P999);
  }
};

/// p50/p95/p99/p999 of \p Samples by linear interpolation between order
/// statistics (the common "linear" quantile definition). Shared by the
/// serve and net harnesses so their tail numbers are comparable.
inline Percentiles latencyPercentiles(std::vector<double> Samples) {
  Percentiles P;
  P.Samples = Samples.size();
  if (Samples.empty())
    return P;
  std::sort(Samples.begin(), Samples.end());
  auto At = [&](double Q) {
    double Pos = Q * static_cast<double>(Samples.size() - 1);
    size_t Lo = static_cast<size_t>(Pos);
    size_t Hi = std::min(Lo + 1, Samples.size() - 1);
    double Frac = Pos - static_cast<double>(Lo);
    return Samples[Lo] * (1.0 - Frac) + Samples[Hi] * Frac;
  };
  P.P50 = At(0.50);
  P.P95 = At(0.95);
  P.P99 = At(0.99);
  // The samples strictly above the 99.9th percentile's interpolation point.
  size_t Beyond = Samples.size() - 1 -
                  static_cast<size_t>(
                      0.999 * static_cast<double>(Samples.size() - 1));
  if (Beyond >= Percentiles::MinTailSamples)
    P.P999 = At(0.999);
  return P;
}

/// Writes {"bench": Name, <what Members writes>} to $EXOCHI_BENCH_JSON
/// (default BENCH_<Name>.json), one member and one array row per line.
/// Prints the path; false when the file cannot be written.
template <typename Fn> bool writeBenchJson(const char *Name, Fn &&Members) {
  std::string Path = "BENCH_" + std::string(Name) + ".json";
  if (const char *Env = std::getenv("EXOCHI_BENCH_JSON"); Env && *Env)
    Path = Env;
  json::Writer W({.LineDepth = 2});
  W.beginObject().member("bench", Name);
  Members(W);
  std::string Json = W.endObject().take() + "\n";
  if (Error E = writeFileBytes(Path, {Json.begin(), Json.end()})) {
    std::fprintf(stderr, "bench_%s: %s\n", Name, E.message().c_str());
    return false;
  }
  std::printf("wrote %s\n", Path.c_str());
  return true;
}

/// A workload wired to a fresh platform/runtime pair.
struct WorkloadInstance {
  std::unique_ptr<exo::ExoPlatform> Platform;
  std::unique_ptr<chi::Runtime> RT;
  std::unique_ptr<kernels::MediaWorkload> Workload;
};

/// Wires \p WL to a fresh platform built from \p Config under the given
/// memory model. Aborts on setup errors (bench tool code).
inline WorkloadInstance
instantiate(std::unique_ptr<kernels::MediaWorkload> WL,
            chi::MemoryModel Model = chi::MemoryModel::CCShared,
            const exo::PlatformConfig &Config = {}) {
  WorkloadInstance W;
  W.Platform = std::make_unique<exo::ExoPlatform>(Config);
  W.RT = std::make_unique<chi::Runtime>(*W.Platform, Model);
  W.Workload = std::move(WL);
  chi::ProgramBuilder PB;
  cantFail(W.Workload->compile(PB));
  cantFail(W.RT->loadBinary(PB.binary()));
  cantFail(W.Workload->setup(*W.RT));
  return W;
}

/// IA32-alone execution time of the full workload on a fresh CPU model.
inline double cpuAloneNs(const kernels::MediaWorkload &WL) {
  mem::MemoryBus Bus;
  cpu::CpuModel Cpu(cpu::CpuConfig(), Bus);
  return Cpu.execute(0.0, WL.hostWorkFor(0, WL.totalStrips()));
}

/// Device (CC shared) execution of the full workload; returns region
/// stats. Aborts on dispatch errors.
inline chi::RegionStats deviceRun(WorkloadInstance &W) {
  auto H = W.Workload->dispatchDevice(*W.RT, 0, W.Workload->totalStrips());
  cantFail(H.takeError());
  return *W.RT->regionStats(*H);
}

} // namespace bench
} // namespace exochi

#endif // EXOCHI_BENCH_BENCHCOMMON_H
