//===- bench/bench_ablation_optimizer.cpp - Kernel optimizer ablation ------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Ablation of the CHI kernel optimizer over the Table 2 media kernels:
// static instruction count and simulated device time with and without
// optimization. The production kernels are hand-scheduled, so gains are
// expected to be modest — the optimizer's value is protecting generated
// or naive code (see the synthetic row), not beating kernel authors.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "isa/Encoding.h"

using namespace exochi;
using namespace exochi::bench;

namespace {

struct Result {
  size_t Instrs = 0;
  double DeviceMs = 0;
};

Result runOnce(const kernels::Table2Kernel &K, double Scale, bool Optimize) {
  Result R;
  auto Platform = std::make_unique<exo::ExoPlatform>();
  chi::Runtime RT(*Platform);
  auto WL = K.create(Scale);
  chi::ProgramBuilder PB;
  PB.setOptimize(Optimize);
  cantFail(WL->compile(PB));
  for (const fatbin::CodeSection &S : PB.binary().sections())
    R.Instrs += cantFail(isa::decodeProgram(S.Code)).size();
  cantFail(RT.loadBinary(PB.binary()));
  cantFail(WL->setup(RT));
  auto H = WL->dispatchDevice(RT, 0, WL->totalStrips());
  cantFail(H.takeError());
  R.DeviceMs = RT.regionStats(*H)->totalNs() / 1e6;
  return R;
}

} // namespace

int main() {
  double Scale = benchScale() * 0.7;
  std::printf("=== Ablation: CHI kernel optimizer (scale %.2f) ===\n", Scale);
  std::printf("%-14s %10s %10s %12s %12s %9s\n", "kernel", "instrs",
              "instrs -O", "time ms", "time -O ms", "gain");

  for (const kernels::Table2Kernel &K : kernels::table2Kernels()) {
    Result Base = runOnce(K, Scale, false);
    Result Opt = runOnce(K, Scale, true);
    std::printf("%-14s %10zu %10zu %12.3f %12.3f %8.1f%%\n", K.Name,
                Base.Instrs, Opt.Instrs, Base.DeviceMs, Opt.DeviceMs,
                100.0 * (Base.DeviceMs - Opt.DeviceMs) / Base.DeviceMs);
  }

  // A deliberately naive generated kernel: what the optimizer is for.
  {
    const char *Naive = R"(
      mul.1.dw vr1 = i, 8
      add.1.dw vr1 = vr1, 0
      mov.8.dw [vr40..vr47] = [vr40..vr47]
      mov.8.dw [vr30..vr37] = 99
      mul.8.dw [vr30..vr37] = [vr30..vr37], 1
      ld.8.dw [vr2..vr9] = (A, vr1, 0)
      mul.8.dw [vr2..vr9] = [vr2..vr9], 4
      st.8.dw (A, vr1, 0) = [vr2..vr9]
      halt
    )";
    for (bool Opt : {false, true}) {
      chi::ProgramBuilder PB;
      PB.setOptimize(Opt);
      cantFail(PB.addXgmaKernel("naive", Naive, {"i"}, {"A"}).takeError());
      auto Prog = cantFail(
          isa::decodeProgram(PB.binary().findByName("naive")->Code));
      std::printf("%-14s %10zu%s\n", Opt ? "naive -O" : "naive (synth)",
                  Prog.size(),
                  Opt ? "   (strength reduction + DCE on generated code)"
                      : "");
    }
  }
  return 0;
}
