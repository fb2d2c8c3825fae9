//===- bench/bench_ablation_dynamic_sched.cpp - Section 5.3 extension -----------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Ablation of the dynamic work-distribution policy the paper sketches as
// ongoing work in Section 5.3: "the multi-shredding runtime ... divides
// the parallel loop iterations among the sequencers in the system.
// Whenever a sequencer completes its assigned work it requests additional
// work of the runtime."
//
// Chunked self-scheduling is simulated against measured per-strip rates:
// whichever sequencer is free grabs the next chunk. Compared against the
// static partitions of Figure 10, dynamic scheduling approaches the
// oracle without knowing the split a priori, and smaller chunks balance
// better (at the cost of more dispatches).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace exochi;
using namespace exochi::bench;

namespace {

struct Rates {
  double GpuNsPerStrip;
  double GpuDispatchNs;
  double CpuNsPerStrip;
  double GmaAloneNs;
  double CpuAloneNs;
};

/// Measures per-strip rates from full runs on fresh platforms.
Rates measure(const kernels::Table2Kernel &K, double Scale) {
  Rates R;
  WorkloadInstance W = instantiate(K.create(Scale));
  uint64_t Total = W.Workload->totalStrips();
  chi::RegionStats S = deviceRun(W);
  R.GmaAloneNs = S.totalNs();
  R.GpuNsPerStrip = S.totalNs() / static_cast<double>(Total);
  R.GpuDispatchNs = 500.0; // per-chunk runtime/SIGNAL overhead
  R.CpuAloneNs = cpuAloneNs(*W.Workload);
  R.CpuNsPerStrip = R.CpuAloneNs / static_cast<double>(Total);
  return R;
}

/// Chunked self-scheduling: both sequencers pull fixed-size chunks off
/// the shared iteration queue until it drains. A slow worker grabbing a
/// full chunk near the end straggles — the classic tail problem.
double dynamicScheduleNs(const Rates &R, uint64_t Total, uint64_t Chunk) {
  double CpuFree = 0, GpuFree = 0;
  uint64_t Next = 0;
  while (Next < Total) {
    uint64_t N = std::min(Chunk, Total - Next);
    if (GpuFree <= CpuFree)
      GpuFree += R.GpuDispatchNs + N * R.GpuNsPerStrip;
    else
      CpuFree += N * R.CpuNsPerStrip;
    Next += N;
  }
  return std::max(CpuFree, GpuFree);
}

/// Guided self-scheduling: each grab takes half of the grabbing worker's
/// rate-proportional share of the remaining work, so chunks shrink
/// geometrically and the tail vanishes.
double guidedScheduleNs(const Rates &R, uint64_t Total) {
  double CpuFree = 0, GpuFree = 0;
  double CpuRate = 1.0 / R.CpuNsPerStrip, GpuRate = 1.0 / R.GpuNsPerStrip;
  uint64_t Next = 0;
  while (Next < Total) {
    uint64_t Remaining = Total - Next;
    bool GpuTurn = GpuFree <= CpuFree;
    double Share = GpuTurn ? GpuRate / (GpuRate + CpuRate)
                           : CpuRate / (GpuRate + CpuRate);
    uint64_t N = std::max<uint64_t>(
        1, static_cast<uint64_t>(Remaining * Share / 2));
    N = std::min(N, Remaining);
    if (GpuTurn)
      GpuFree += R.GpuDispatchNs + N * R.GpuNsPerStrip;
    else
      CpuFree += N * R.CpuNsPerStrip;
    Next += N;
  }
  return std::max(CpuFree, GpuFree);
}

} // namespace

int main() {
  double Scale = benchScale() * 0.7;
  std::printf("=== Ablation: static vs dynamic work distribution "
              "(scale %.2f) ===\n",
              Scale);
  std::printf("(times relative to GMA-alone; lower is better)\n");
  std::printf("%-14s %10s %11s %11s %11s %11s %11s\n", "kernel",
              "GMA-alone", "static 25%", "dyn 1/32", "dyn 1/8", "guided",
              "oracle-est");

  for (const kernels::Table2Kernel &K : kernels::table2Kernels()) {
    Rates R = measure(K, Scale);
    uint64_t Total = K.create(Scale)->totalStrips();

    // Static 25% on the IA32 sequencer (Figure 10 partition 3).
    double Static25 =
        std::max(0.25 * R.CpuAloneNs, 0.75 * R.GmaAloneNs);
    // Dynamic with two chunk sizes.
    double DynFine = dynamicScheduleNs(R, Total, std::max<uint64_t>(1, Total / 32));
    double DynCoarse = dynamicScheduleNs(R, Total, std::max<uint64_t>(1, Total / 8));
    double Guided = guidedScheduleNs(R, Total);
    // Analytic oracle: perfect rate-proportional split.
    double Oracle = R.GmaAloneNs * R.CpuAloneNs /
                    (R.GmaAloneNs + R.CpuAloneNs);

    std::printf("%-14s %10.2f %11.2f %11.2f %11.2f %11.2f %11.2f\n",
                K.Name, 1.0, Static25 / R.GmaAloneNs,
                DynFine / R.GmaAloneNs, DynCoarse / R.GmaAloneNs,
                Guided / R.GmaAloneNs, Oracle / R.GmaAloneNs);
  }
  std::printf("(fixed chunks suffer a straggler tail when worker speeds "
              "differ; guided self-scheduling shrinks chunks geometrically "
              "and tracks the oracle with no a priori split)\n");
  return 0;
}
