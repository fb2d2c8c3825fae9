//===- bench/bench_paper.cpp - The paper's evaluation, one run each -------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Regenerates the paper's evaluation (Section 5) and the ablations
// EXPERIMENTS.md quotes:
//
//   Table 2    kernels, input sizes and shred counts (paper sizes)
//   Figure 7   speedup on the GMA X3000 over the IA32 sequencer, CC shared
//   Figure 8   Data Copy / Non-CC Shared / CC Shared memory models
//   Sec. 5.2   up-front versus intelligent cache flushing, LinearFilter
//   Figure 10  cooperative IA32 + GMA partitions (0%, 10%, 25%, oracle)
//   ATR        TLB capacity x proxy latency x shred order, LinearFilter
//   EU scale   2 / 4 / 8 execution units
//   taskq      wavefront dependencies versus unordered dispatch
//
// Every table reads its numbers from one list of distinct configurations,
// each simulated once: Figure 8's CC column is Figure 7's GMA run, and so
// on. The binary then checks the shape claims EXPERIMENTS.md makes and
// exits non-zero if one fails. It writes the list, with each outcome, to
// BENCH_paper.json (override the path with EXOCHI_BENCH_JSON): simulated
// times and counters only, so two runs write the same bytes.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "chi/Cooperative.h"
#include "chi/Hetero.h"
#include "chi/TaskQueue.h"
#include "support/Random.h"

#include <array>
#include <cmath>
#include <compare>
#include <map>
#include <numeric>

using namespace exochi;
using namespace exochi::bench;

namespace {

constexpr unsigned LinearFilter = 0, FGT = 2, Bicubic = 3, Kalman = 4,
                   FMD = 5, AlphaBlend = 6, BOB = 7, NumKernels = 10;
const char *name(unsigned K) { return kernels::table2Kernels()[K].Name; }

/// CpuFraction of a configuration that runs on the IA32 sequencer alone,
/// priced on a fresh CPU model with no platform behind it.
constexpr double Ia32Alone = 1.0;

/// One simulated configuration of a Table 2 kernel.
struct Config {
  unsigned Kernel; ///< index into kernels::table2Kernels()
  double Scale;
  chi::MemoryModel Model = chi::MemoryModel::CCShared;
  bool IntelligentFlush = true; ///< only NonCCShared reads it
  unsigned NumEus = exo::PlatformConfig().Gma.NumEus;
  unsigned TlbEntriesPerEu = exo::PlatformConfig().Gma.TlbEntriesPerEu;
  double SignalLatencyNs = exo::PlatformConfig().Proxy.SignalLatencyNs;
  bool Shuffled = false; ///< strips in a seeded random order
  /// Share of the strips on the IA32 sequencer: 0 is the device alone,
  /// Ia32Alone the host alone, anything between a static partition.
  double CpuFraction = 0;

  auto operator<=>(const Config &) const = default;

  static constexpr auto jsonFields() {
    using S = Config;
    return json::fields(
        "kernel", [](const S &C) { return name(C.Kernel); }, "scale",
        &S::Scale, "model",
        [](const S &C) { return chi::memoryModelName(C.Model); },
        "intelligent_flush", &S::IntelligentFlush, "eus", &S::NumEus,
        "tlb_per_eu", &S::TlbEntriesPerEu, "proxy_ns", &S::SignalLatencyNs,
        "shuffled", &S::Shuffled, "cpu_fraction", &S::CpuFraction);
  }
};

/// Kernel \p K at \p Scale, CC shared on the default platform, with
/// \p CpuFraction of its strips on the IA32 sequencer.
Config split(unsigned K, double Scale, double CpuFraction) {
  return {.Kernel = K, .Scale = Scale, .CpuFraction = CpuFraction};
}

struct Outcome {
  /// A static partition's outcome; only TotalNs for the other runs.
  chi::CooperativeOutcome Split;
  // The device alone only:
  double FlushNs = 0, BusBusyNs = 0;
  std::optional<gma::GmaRunStats> Device;

  static constexpr auto jsonFields() {
    using S = Outcome;
    return json::fields(
        "total_ns", [](const S &O) { return O.Split.TotalNs; }, "flush_ns",
        &S::FlushNs, "bus_busy_ns", &S::BusBusyNs, "device", &S::Device);
  }
};

Outcome simulate(const Config &C) {
  const kernels::Table2Kernel &K = kernels::table2Kernels()[C.Kernel];
  Outcome O;
  if (C.CpuFraction == Ia32Alone) {
    O.Split.TotalNs = cpuAloneNs(*K.create(C.Scale));
    return O;
  }
  exo::PlatformConfig P;
  P.Gma.NumEus = C.NumEus;
  P.Gma.TlbEntriesPerEu = C.TlbEntriesPerEu;
  P.Proxy.SignalLatencyNs = C.SignalLatencyNs;
  WorkloadInstance W = instantiate(K.create(C.Scale), C.Model, P);
  W.RT->setIntelligentFlush(C.IntelligentFlush);
  if (C.CpuFraction > 0) {
    kernels::MediaHeteroWork Work(*W.Workload);
    O.Split = cantFail(chi::runStaticPartition(*W.RT, Work, C.CpuFraction));
    return O;
  }
  std::vector<uint64_t> Order(W.Workload->totalStrips());
  std::iota(Order.begin(), Order.end(), 0);
  if (C.Shuffled) {
    Rng R(0xabcdef);
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[R.nextBelow(I)]);
  }
  auto H = W.Workload->dispatchDevicePermuted(*W.RT, std::move(Order));
  const chi::RegionStats &S = *W.RT->regionStats(cantFail(std::move(H)));
  O.Split.TotalNs = S.totalNs();
  O.FlushNs = S.FlushNs;
  O.BusBusyNs = W.Platform->bus().busyNs();
  O.Device = S.Device;
  return O;
}

/// Every configuration the tables have asked for, simulated once each.
std::map<Config, Outcome> Runs;

const Outcome &run(const Config &C) {
  auto [It, New] = Runs.try_emplace(C);
  if (New)
    It->second = simulate(C);
  return It->second;
}
double ns(const Config &C) { return run(C).Split.TotalNs; }

/// Kernel \p K's time with \p CpuFraction of its strips on the IA32
/// sequencer, relative to the IA32 sequencer alone.
double relToIa32(unsigned K, double Scale, double CpuFraction) {
  return ns(split(K, Scale, CpuFraction)) / ns(split(K, Scale, Ia32Alone));
}

/// The flush experiment's three configurations: CC Shared, then Non-CC
/// with an up-front flush, then Non-CC with intelligent flushing.
std::array<Config, 3> flushConfigs(double Scale) {
  return {{{LinearFilter, Scale},
           {LinearFilter, Scale, chi::MemoryModel::NonCCShared, false},
           {LinearFilter, Scale, chi::MemoryModel::NonCCShared}}};
}

/// The ATR ablation's run of LinearFilter with the given TLB size, proxy
/// round trip and strip order.
const Outcome &atrRun(double Scale, unsigned Tlb, double Lat, bool Shuffled) {
  return run({.Kernel = LinearFilter,
              .Scale = Scale,
              .TlbEntriesPerEu = Tlb,
              .SignalLatencyNs = Lat,
              .Shuffled = Shuffled});
}

/// Simulated times of kernel \p K at 2, 4 and 8 EUs.
std::array<double, 3> euTimes(unsigned K, double Scale) {
  std::array<double, 3> T;
  for (unsigned I = 0; I < 3; ++I)
    T[I] = ns({.Kernel = K, .Scale = Scale, .NumEus = 2u << I});
  return T;
}

struct Table2Row {
  std::string Kernel, Size;
  uint64_t Shreds, PaperShreds;
  static constexpr auto jsonFields() {
    using S = Table2Row;
    return json::fields("kernel", &S::Kernel, "size", &S::Size, "shreds",
                        &S::Shreds, "paper_shreds", &S::PaperShreds);
  }
};

struct TaskqRow {
  unsigned W, H, DepsWaves = 0, UnorderedWaves = 0;
  double DepsNs = 0, UnorderedNs = 0;
  double cost() const { return DepsNs / UnorderedNs; }
  static constexpr auto jsonFields() {
    using S = TaskqRow;
    return json::fields("w", &S::W, "h", &S::H, "deps_waves", &S::DepsWaves,
                        "deps_ns", &S::DepsNs, "unordered_waves",
                        &S::UnorderedWaves, "unordered_ns", &S::UnorderedNs);
  }
};

struct Claim {
  std::string Text;
  bool Holds;
  static constexpr auto jsonFields() {
    using S = Claim;
    return json::fields("claim", &S::Text, "holds", &S::Holds);
  }
};

//===-- Tables -----------------------------------------------------------===//

std::vector<Table2Row> table2() {
  std::printf("=== Table 2: media-processing kernels ===\n");
  std::printf("%-14s %-22s %12s %12s %8s\n", "kernel", "data size",
              "ours #shreds", "paper", "delta");
  std::vector<Table2Row> Rows;
  for (const kernels::Table2Kernel &K : kernels::table2Kernels())
    for (const std::optional<kernels::Table2Input> &In :
         {std::optional(K.Input), K.Large}) {
      if (!In)
        continue;
      auto WL = K.create(*In);
      Table2Row R{WL->abbrev(), In->Label, WL->totalStrips(),
                  In->PaperShreds};
      double Paper = static_cast<double>(R.PaperShreds);
      std::printf("%-14s %-22s %12llu %12llu %+7.1f%%\n", R.Kernel.c_str(),
                  In->Label, static_cast<unsigned long long>(R.Shreds),
                  static_cast<unsigned long long>(R.PaperShreds),
                  100.0 * (static_cast<double>(R.Shreds) - Paper) / Paper);
      Rows.push_back(R);
    }
  return Rows;
}

void fig7(double Scale) {
  std::printf("=== Figure 7: speedup on GMA X3000 exo-sequencers over IA32 "
              "(scale %.2f) ===\n",
              Scale);
  std::printf("%-14s %12s %12s %9s %9s\n", "kernel", "IA32 ms", "GMA ms",
              "speedup", "paper");
  // The paper names only 1.41x (BOB) and 10.97x (Bicubic) in its text;
  // the others are read off the figure approximately (EXPERIMENTS.md).
  const double Paper[NumKernels] = {7.0, 5.3, 6.0, 10.97, 7.0,
                                    5.0, 4.5, 1.41, 4.0,  5.5};
  for (unsigned K = 0; K < NumKernels; ++K) {
    double Cpu = ns(split(K, Scale, Ia32Alone)), Gma = ns(split(K, Scale, 0));
    std::printf("%-14s %12.3f %12.3f %8.2fx %8.2fx\n", name(K), Cpu / 1e6,
                Gma / 1e6, Cpu / Gma, Paper[K]);
  }
}

void fig8(double Scale) {
  std::printf("=== Figure 8: impact of data copying vs shared virtual "
              "memory (scale %.2f) ===\n",
              Scale);
  std::printf("%-14s %12s %12s %12s %10s %10s\n", "kernel", "CC ms",
              "NonCC ms", "Copy ms", "NonCC rel", "Copy rel");
  auto Print = [](const char *Name, const double (&T)[3]) {
    std::printf("%-14s %12.3f %12.3f %12.3f %9.1f%% %9.1f%%\n", Name,
                T[0] / 1e6, T[1] / 1e6, T[2] / 1e6, 100 * T[0] / T[1],
                100 * T[0] / T[2]);
  };
  double Sum[3] = {0, 0, 0};
  for (unsigned K = 0; K < NumKernels; ++K) {
    const double T[3] = {ns({K, Scale}),
                         ns({K, Scale, chi::MemoryModel::NonCCShared}),
                         ns({K, Scale, chi::MemoryModel::DataCopy})};
    for (int M = 0; M < 3; ++M)
      Sum[M] += T[M];
    Print(name(K), T);
  }
  Print("aggregate", Sum);
  std::printf("paper aggregates: Non-CC Shared 85.3%%, Data Copy 70.5%%\n");
}

void flush(double Scale) {
  std::printf("=== Section 5.2: cache-flush strategies, LinearFilter "
              "(scale %.2f) ===\n",
              Scale);
  std::printf("%-28s %10s %10s %10s %10s\n", "configuration", "total ms",
              "flush ms", "speedup", "rel to CC");
  const char *Names[3] = {"CC Shared (reference)", "Non-CC, up-front flush",
                          "Non-CC, intelligent flush"};
  double CpuNs = ns(split(LinearFilter, Scale, Ia32Alone));
  std::array<Config, 3> Configs = flushConfigs(Scale);
  for (int I = 0; I < 3; ++I) {
    double T = ns(Configs[I]);
    std::printf("%-28s %10.3f %10.3f %9.2fx %9.1f%%\n", Names[I], T / 1e6,
                run(Configs[I]).FlushNs / 1e6, CpuNs / T,
                100 * ns(Configs[0]) / T);
  }
  std::printf("paper: up-front flush at 2 GB/s -> 3.15x; intelligent "
              "flushing -> close to CC\n");
}

/// Prints Figure 10 and returns each kernel's oracle partition.
std::vector<chi::CooperativeOutcome> fig10(double Scale) {
  std::printf("=== Figure 10: cooperative multi-shredding (scale %.2f) ===\n",
              Scale);
  std::printf("(bars: execution time relative to IA32-alone; lower is "
              "better)\n");
  std::printf("%-14s %9s %9s %9s %9s %12s %10s\n", "kernel", "0% IA32",
              "10% IA32", "25% IA32", "oracle", "oracle frac",
              "gain vs GMA");
  std::vector<chi::CooperativeOutcome> Oracles;
  for (unsigned K = 0; K < NumKernels; ++K) {
    auto Partition = [&](double F) -> Expected<chi::CooperativeOutcome> {
      return run(split(K, Scale, F)).Split;
    };
    const chi::CooperativeOutcome &O = Oracles.emplace_back(
        cantFail(chi::findOraclePartition(Partition, /*MaxTrials=*/8)));
    double Gma = ns(split(K, Scale, 0));
    std::printf("%-14s %8.3f %9.3f %9.3f %9.3f %11.1f%% %+9.1f%%\n", name(K),
                relToIa32(K, Scale, 0), relToIa32(K, Scale, 0.10),
                relToIa32(K, Scale, 0.25),
                O.TotalNs / ns(split(K, Scale, Ia32Alone)),
                O.CpuFraction * 100, (Gma - O.TotalNs) / Gma * 100);
  }
  std::printf("paper: BOB gains up to 38%% at the oracle; Bicubic only 8%%; "
              "Bicubic at 25%% IA32 is worse than GMA-alone\n");
  return Oracles;
}

void atr(double Scale) {
  std::printf("=== Ablation: ATR (TLB capacity x proxy latency x shred "
              "ordering), LinearFilter (scale %.2f) ===\n",
              Scale);
  std::printf("%-10s %-8s %-10s %10s %12s %14s\n", "ordering", "TLB/EU",
              "proxy ns", "total ms", "TLB misses", "proxy stall ms");
  for (bool Shuffled : {false, true})
    for (unsigned Tlb : {1u, 4u, 32u})
      for (double Lat : {250.0, 2000.0}) {
        const Outcome &O = atrRun(Scale, Tlb, Lat, Shuffled);
        std::printf("%-10s %-8u %-10.0f %10.3f %12llu %14.3f\n",
                    Shuffled ? "shuffled" : "locality", Tlb, Lat,
                    O.Split.TotalNs / 1e6,
                    static_cast<unsigned long long>(O.Device->TlbMisses),
                    O.Device->ProxyStallNs / 1e6);
      }
}

void euScale(double Scale) {
  std::printf("=== Ablation: execution-unit scaling (scale %.2f) ===\n",
              Scale);
  std::printf("%-14s %10s %10s %10s %12s %12s\n", "kernel", "2 EU ms",
              "4 EU ms", "8 EU ms", "4v2 speedup", "8v4 speedup");
  for (unsigned K = 0; K < NumKernels; ++K) {
    std::array<double, 3> T = euTimes(K, Scale);
    std::printf("%-14s %10.3f %10.3f %10.3f %11.2fx %11.2fx\n", name(K),
                T[0] / 1e6, T[1] / 1e6, T[2] / 1e6, T[0] / T[1], T[1] / T[2]);
  }
}

/// One macroblock of an H.264-style deblocking pass: it reads its left
/// and upper neighbours, filters, and writes its cell.
constexpr const char *GridKernel = R"(
  ; touch the macroblock cell and its neighbours, then update it
  mov.1.dw vr10 = 0
  cmp.gt.1.dw p1 = x, 0
  br !p1, noleft
  sub.1.dw vr11 = cell, 1
  ld.1.dw vr12 = (grid, vr11, 0)
  max.1.dw vr10 = vr10, vr12
noleft:
  cmp.gt.1.dw p2 = y, 0
  br !p2, noup
  sub.1.dw vr13 = cell, w
  ld.1.dw vr14 = (grid, vr13, 0)
  max.1.dw vr10 = vr10, vr14
noup:
  add.1.dw vr10 = vr10, 1
  ; simulate per-macroblock filtering work
  mov.1.dw vr20 = 0
busy:
  mul.8.dw [vr24..vr31] = [vr24..vr31], 3
  add.1.dw vr20 = vr20, 1
  cmp.lt.1.dw p3 = vr20, 40
  br p3, busy
  st.1.dw (grid, cell, 0) = vr10
  halt
)";

/// Simulated time of a W x H grid through the taskq extension (paper
/// Section 4.3), with or without the left/up dependencies.
double runGrid(unsigned W, unsigned H, bool WithDeps, unsigned &WavesOut) {
  exo::ExoPlatform Platform;
  chi::Runtime RT(Platform);
  chi::ProgramBuilder PB;
  cantFail(PB.addXgmaKernel("grid", GridKernel, {"cell", "x", "y", "w"},
                            {"grid"})
               .takeError());
  cantFail(RT.loadBinary(PB.binary()));
  exo::SharedBuffer Grid = Platform.allocateShared(W * H * 4, "grid");
  for (unsigned K = 0; K < W * H; ++K)
    Platform.store<int32_t>(Grid.Base + K * 4, 0);
  uint32_t Desc = cantFail(RT.allocDesc(
      chi::TargetIsa::X3000, Grid.Base, chi::SurfaceMode::InputOutput, W, H));

  chi::TaskQueue Q(RT, "grid");
  Q.shared("grid", Desc);
  std::vector<chi::TaskQueue::TaskId> Ids(W * H);
  for (unsigned Y = 0; Y < H; ++Y)
    for (unsigned X = 0; X < W; ++X) {
      std::vector<chi::TaskQueue::TaskId> Deps;
      if (WithDeps) {
        if (X > 0)
          Deps.push_back(Ids[Y * W + X - 1]);
        if (Y > 0)
          Deps.push_back(Ids[(Y - 1) * W + X]);
      }
      Ids[Y * W + X] = Q.task({{"cell", static_cast<int32_t>(Y * W + X)},
                               {"x", static_cast<int32_t>(X)},
                               {"y", static_cast<int32_t>(Y)},
                               {"w", static_cast<int32_t>(W)}},
                              Deps);
    }
  auto Stats = cantFail(Q.finish());
  WavesOut = Stats.Waves;
  return Stats.totalNs();
}

std::vector<TaskqRow> taskq() {
  std::printf("=== Ablation: taskq dependency ordering vs unordered "
              "dispatch ===\n");
  std::printf("%-12s %8s %12s %8s %12s %10s\n", "grid", "waves",
              "deps ms", "waves", "unord ms", "overhead");
  std::vector<TaskqRow> Rows;
  const std::pair<unsigned, unsigned> Grids[] = {
      {8, 8}, {16, 16}, {45, 30}, {90, 60}};
  for (auto [W, H] : Grids) {
    TaskqRow &R = Rows.emplace_back(TaskqRow{W, H});
    R.DepsNs = runGrid(W, H, /*WithDeps=*/true, R.DepsWaves);
    R.UnorderedNs = runGrid(W, H, /*WithDeps=*/false, R.UnorderedWaves);
    std::printf("%3ux%-8u %8u %12.3f %8u %12.3f %9.2fx\n", W, H, R.DepsWaves,
                R.DepsNs / 1e6, R.UnorderedWaves, R.UnorderedNs / 1e6,
                R.cost());
  }
  return Rows;
}

} // namespace

int main() {
  double Scale = benchScale();
  // Figure 10 simulates about ten partitions per kernel, so it and the
  // EU sweep run a notch below the bench scale.
  double CoopScale = Scale * 0.7;

  std::vector<Table2Row> T2 = table2();
  fig7(Scale);
  fig8(Scale);
  flush(Scale);
  std::vector<chi::CooperativeOutcome> Oracles = fig10(CoopScale);
  atr(Scale);
  euScale(CoopScale);
  std::vector<TaskqRow> Tq = taskq();
  std::printf("(%zu Table 2 configurations simulated, each once)\n",
              Runs.size());

  // The shape claims of EXPERIMENTS.md, section by section. Every number
  // below comes from a configuration the tables above already ran.
  std::printf("=== Claims (EXPERIMENTS.md) ===\n");
  std::vector<Claim> Claims;
  auto Check = [&](std::string Text, bool Holds) {
    std::printf("%s %s\n", Holds ? "ok  " : "FAIL", Text.c_str());
    Claims.push_back({std::move(Text), Holds});
  };
  auto Every = [](auto Pred) {
    for (unsigned K = 0; K < NumKernels; ++K)
      if (!Pred(K))
        return false;
    return true;
  };
  // Whether Value(Of) is the smallest / largest over the ten kernels.
  auto Lowest = [&](auto Value, unsigned Of) {
    return Every([&](unsigned K) { return Value(Of) <= Value(K); });
  };
  auto Highest = [&](auto Value, unsigned Of) {
    return Every([&](unsigned K) { return Value(Of) >= Value(K); });
  };

  unsigned Exact = 0;
  bool Within7 = true;
  for (const Table2Row &R : T2) {
    double Paper = static_cast<double>(R.PaperShreds);
    Exact += R.Shreds == R.PaperShreds;
    Within7 &= std::abs(static_cast<double>(R.Shreds) - Paper) <= 0.07 * Paper;
  }
  Check("Table 2: 8 of 13 shred counts exact, the rest within 7%",
        Exact == 8 && Within7);

  auto Speedup = [&](unsigned K) { return 1 / relToIa32(K, Scale, 0); };
  Check("Fig. 7: BOB is the smallest speedup, within 4% of 1.41x",
        Lowest(Speedup, BOB) && std::abs(Speedup(BOB) / 1.41 - 1) <= 0.04);
  Check("Fig. 7: Bicubic is the largest speedup", Highest(Speedup, Bicubic));
  Check("Fig. 7: every kernel but BOB, Bicubic and Kalman lies in 3-8x",
        Every([&](unsigned K) {
          return K == BOB || K == Bicubic || K == Kalman ||
                 (Speedup(K) >= 3 && Speedup(K) <= 8);
        }));

  // Performance relative to CC Shared, per kernel or (All) in aggregate.
  constexpr unsigned All = NumKernels;
  auto RelToCc = [&](unsigned Of, chi::MemoryModel M) {
    double Cc = 0, Other = 0;
    for (unsigned K = 0; K < NumKernels; ++K)
      if (Of == All || K == Of) {
        Cc += ns({K, Scale});
        Other += ns({K, Scale, M});
      }
    return Cc / Other;
  };
  auto NonCc = [&](unsigned K) {
    return RelToCc(K, chi::MemoryModel::NonCCShared);
  };
  auto Copy = [&](unsigned K) {
    return RelToCc(K, chi::MemoryModel::DataCopy);
  };
  Check("Fig. 8: CC beats Non-CC beats Data Copy on every kernel",
        Every([&](unsigned K) { return NonCc(K) < 1 && Copy(K) < NonCc(K); }));
  Check("Fig. 8: Bicubic and AlphaBlend keep at least 97% under Non-CC",
        NonCc(Bicubic) >= 0.97 && NonCc(AlphaBlend) >= 0.97);
  Check("Fig. 8: FGT loses the most under Non-CC", Lowest(NonCc, FGT));
  Check("Fig. 8: BOB and FMD lose the most under Data Copy",
        Every([&](unsigned K) {
          return K == BOB || K == FMD ||
                 std::max(Copy(BOB), Copy(FMD)) < Copy(K);
        }));
  Check("Fig. 8: aggregate Non-CC above the paper's 85.3%, Data Copy "
        "below its 70.5%",
        NonCc(All) > 0.853 && Copy(All) < 0.705);

  std::array<Config, 3> Flush = flushConfigs(Scale);
  Check("Sec. 5.2: an up-front flush keeps under 2/3 of CC's speedup",
        ns(Flush[0]) / ns(Flush[1]) < 2.0 / 3);
  Check("Sec. 5.2: intelligent flushing recovers at least 90% of CC",
        ns(Flush[0]) / ns(Flush[2]) >= 0.90);

  auto Gain = [&](unsigned K) {
    return 1 - Oracles[K].TotalNs / ns(split(K, CoopScale, 0));
  };
  Check("Fig. 10: BOB gains the most at the oracle", Highest(Gain, BOB));
  Check("Fig. 10: Bicubic gains the least at the oracle",
        Lowest(Gain, Bicubic));
  Check("Fig. 10: Bicubic at 25% IA32 is slower than GMA alone",
        relToIa32(Bicubic, CoopScale, 0.25) > relToIa32(Bicubic, CoopScale, 0));
  Check("Fig. 10: the oracle fraction is within 2 points of "
        "1/(1 + speedup)",
        Every([&](unsigned K) {
          double Alone = relToIa32(K, CoopScale, 0);
          return std::abs(Oracles[K].CpuFraction - Alone / (1 + Alone)) <=
                 0.02;
        }));

  auto Misses = [&](unsigned Tlb, double Lat, bool Shuffled) {
    return atrRun(Scale, Tlb, Lat, Shuffled).Device->TlbMisses;
  };
  auto AtrNs = [&](unsigned Tlb, double Lat, bool Shuffled) {
    return atrRun(Scale, Tlb, Lat, Shuffled).Split.TotalNs;
  };
  bool Compulsory = true;
  for (unsigned Tlb : {1u, 4u, 32u})
    for (double Lat : {250.0, 2000.0})
      Compulsory &= Misses(Tlb, Lat, false) == Misses(1, 250, false) &&
                    AtrNs(Tlb, Lat, false) == AtrNs(1, Lat, false);
  Check("ATR: in locality order the misses are compulsory and TLB size "
        "changes nothing",
        Compulsory);
  Check("ATR: a shuffled 1-entry TLB takes over 100x the misses and runs "
        "over 10x slower at a 2 us round trip",
        Misses(1, 250, true) > 100 * Misses(1, 250, false) &&
            AtrNs(1, 2000, true) > 10 * AtrNs(1, 2000, false));

  bool Falling = true;
  for (size_t I = 1; I < Tq.size(); ++I)
    Falling &= Tq[I].cost() < Tq[I - 1].cost();
  Check("taskq: the wavefront's cost falls with grid size, from over 5x at "
        "8x8 to under 2x at 90x60",
        Falling && Tq.front().cost() > 5 && Tq.back().cost() < 2);

  // Kernel K's two per-doubling speedups.
  auto Doublings = [&](unsigned K) {
    std::array<double, 3> T = euTimes(K, CoopScale);
    return std::pair(T[0] / T[1], T[1] / T[2]);
  };
  auto [Lf4, Lf8] = Doublings(LinearFilter);
  auto [Bi4, Bi8] = Doublings(Bicubic);
  auto [Bob4, Bob8] = Doublings(BOB);
  Check("EU scale: LinearFilter and Bicubic gain at least 1.75x per "
        "doubling, BOB under 1.2x",
        std::min({Lf4, Lf8, Bi4, Bi8}) >= 1.75 && std::max(Bob4, Bob8) < 1.2);

  bool Wrote = writeBenchJson("paper", [&](json::Writer &W) {
    W.member("scale", Scale).member("table2", T2);
    W.key("runs").beginArray();
    for (const auto &[C, O] : Runs)
      W.beginObject().fields(C).fields(O).endObject();
    W.endArray().member("taskq", Tq).member("claims", Claims);
  });
  bool AllHold = std::all_of(Claims.begin(), Claims.end(),
                             [](const Claim &C) { return C.Holds; });
  return Wrote && AllHold ? 0 : 1;
}
