//===- tests/cost_test.cpp - XCost static cycle-bound analyzer tests ----------===//
//
// The envelope contract (DESIGN.md §15): for any dispatch, the measured
// functional IssueCycles counter — identical on both backends — must fall
// inside NumShreds * [minCycles, maxCycles] of the static report, and the
// ten Table 2 production kernels must always get finite bounds under their
// real dispatch envelopes. Loop-structure tests double as Cfg coverage
// for self-loop, nested, and irreducible graphs.
//
//===----------------------------------------------------------------------===//

#include "xopt/Cost.h"

#include "chi/ProgramBuilder.h"
#include "chi/Runtime.h"
#include "exo/ExoPlatform.h"
#include "isa/Encoding.h"
#include "kernels/Workloads.h"
#include "support/File.h"
#include "support/Format.h"
#include "xasm/Assembler.h"
#include "xjit/Xjit.h"

#include <gtest/gtest.h>

#include <limits>

using namespace exochi;
using namespace exochi::xopt;

namespace {

std::vector<isa::Instruction> assembleOrDie(const char *Asm) {
  auto K = xasm::assembleKernel(Asm, xasm::SymbolBindings());
  EXPECT_TRUE(static_cast<bool>(K)) << K.message();
  return K->Code;
}

CostReport analyze(const char *Asm, VerifySpec Spec = VerifySpec()) {
  return analyzeCost(assembleOrDie(Asm), Spec, "t");
}

} // namespace

//===----------------------------------------------------------------------===//
// Straight-line cost: exact sums of the per-opcode charging rule.
//===----------------------------------------------------------------------===//

TEST(CostStraightLineTest, ExactSumOfIssueCosts) {
  // mov 0.5 + add 1 + mul 2 + halt 1 = 4.5, exactly.
  CostReport R = analyze("  mov.1.dw vr1 = 5\n"
                         "  add.1.dw vr2 = vr1, 1\n"
                         "  mul.1.dw vr3 = vr2, vr2\n"
                         "  halt\n");
  ASSERT_TRUE(R.bounded());
  EXPECT_TRUE(R.structureOk());
  EXPECT_DOUBLE_EQ(R.minCycles(), 4.5);
  EXPECT_DOUBLE_EQ(R.maxCycles(), 4.5);
  EXPECT_TRUE(R.Loops.empty());
}

TEST(CostStraightLineTest, WideOpsChargeDouble) {
  // A 16-lane ALU op costs twice its 8-lane form: add.16 = 2, halt 1.
  CostReport R = analyze("  add.16.dw [vr0..vr15] = [vr16..vr31], 1\n"
                         "  halt\n");
  ASSERT_TRUE(R.bounded());
  EXPECT_DOUBLE_EQ(R.minCycles(), 3.0);
  EXPECT_DOUBLE_EQ(R.maxCycles(), 3.0);
}

TEST(CostStraightLineTest, PredicatedOffStillCharges) {
  // The cycle model charges issue slots for predicated-off instructions,
  // so predication must not change the static bounds.
  CostReport Plain = analyze("  add.1.dw vr1 = vr1, 1\n  halt\n");
  CostReport Pred = analyze("  (p1) add.1.dw vr1 = vr1, 1\n  halt\n");
  EXPECT_DOUBLE_EQ(Plain.minCycles(), Pred.minCycles());
  EXPECT_DOUBLE_EQ(Plain.maxCycles(), Pred.maxCycles());
}

TEST(CostStraightLineTest, EmptyKernelIsZero) {
  CostReport R = analyzeCost({}, VerifySpec(), "empty");
  EXPECT_TRUE(R.bounded());
  EXPECT_DOUBLE_EQ(R.minCycles(), 0.0);
  EXPECT_DOUBLE_EQ(R.maxCycles(), 0.0);
}

//===----------------------------------------------------------------------===//
// Loop-bound inference.
//===----------------------------------------------------------------------===//

TEST(CostLoopTest, CountedLoopIsExact) {
  // mov 0.5 + 10 * (add 1 + cmp 1 + br 1) + halt 1 = 31.5.
  CostReport R = analyze("  mov.1.dw vr1 = 0\n"
                         "loop:\n"
                         "  add.1.dw vr1 = vr1, 1\n"
                         "  cmp.lt.1.dw p1 = vr1, 10\n"
                         "  br p1, loop\n"
                         "  halt\n");
  ASSERT_TRUE(R.bounded());
  ASSERT_EQ(R.Loops.size(), 1u);
  EXPECT_EQ(R.Loops[0].TripLo, 10);
  EXPECT_EQ(R.Loops[0].TripHi, 10);
  EXPECT_DOUBLE_EQ(R.minCycles(), 31.5);
  EXPECT_DOUBLE_EQ(R.maxCycles(), 31.5);
}

TEST(CostLoopTest, DecrementingLoopIsExact) {
  // vr1 counts 8 -> 0; the body runs 8 times.
  CostReport R = analyze("  mov.1.dw vr1 = 8\n"
                         "loop:\n"
                         "  sub.1.dw vr1 = vr1, 1\n"
                         "  cmp.gt.1.dw p1 = vr1, 0\n"
                         "  br p1, loop\n"
                         "  halt\n");
  ASSERT_TRUE(R.bounded());
  ASSERT_EQ(R.Loops.size(), 1u);
  EXPECT_EQ(R.Loops[0].TripLo, 8);
  EXPECT_EQ(R.Loops[0].TripHi, 8);
}

TEST(CostLoopTest, ZeroTripBypassLowersTheMinimum) {
  // An unknown parameter may branch around the loop entirely: the lower
  // bound takes the bypass path, the upper bound the 100-trip loop.
  VerifySpec Spec;
  Spec.NumScalarParams = 1;
  CostReport R = analyze("  cmp.ge.1.dw p1 = vr0, 5\n"
                         "  br p1, end\n"
                         "  mov.1.dw vr1 = 0\n"
                         "loop:\n"
                         "  add.1.dw vr1 = vr1, 1\n"
                         "  cmp.lt.1.dw p2 = vr1, 100\n"
                         "  br p2, loop\n"
                         "end:\n"
                         "  halt\n",
                         Spec);
  ASSERT_TRUE(R.bounded());
  ASSERT_EQ(R.Loops.size(), 1u);
  EXPECT_EQ(R.Loops[0].TripLo, 100);
  EXPECT_EQ(R.Loops[0].TripHi, 100);
  // Bypass: cmp 1 + br 1 + halt 1. Loop path adds mov 0.5 + 100 * (add 1
  // + cmp 1 + br 1).
  EXPECT_DOUBLE_EQ(R.minCycles(), 3.0);
  EXPECT_DOUBLE_EQ(R.maxCycles(), 303.5);
}

TEST(CostLoopTest, SidDependentTripsUseTheSidRange) {
  // The limit is this shred's id: trip bounds follow [SidLo, SidHi].
  VerifySpec Spec;
  Spec.SidHi = 4;
  CostReport R = analyze("  sid vr1\n"
                         "  mov.1.dw vr2 = 0\n"
                         "loop:\n"
                         "  add.1.dw vr2 = vr2, 1\n"
                         "  cmp.lt.1.dw p1 = vr2, vr1\n"
                         "  br p1, loop\n"
                         "  halt\n",
                         Spec);
  ASSERT_TRUE(R.bounded());
  ASSERT_EQ(R.Loops.size(), 1u);
  EXPECT_EQ(R.Loops[0].TripLo, 1);
  EXPECT_EQ(R.Loops[0].TripHi, 4);
}

TEST(CostLoopTest, ParamRangeSharpensTheBound) {
  // Unconstrained parameter limit: unbounded. With a declared range the
  // same kernel gets finite trips — the exochi-run --lint sharpening
  // model applied to cost.
  const char *Asm = "  mov.1.dw vr1 = 0\n"
                    "loop:\n"
                    "  add.1.dw vr1 = vr1, 1\n"
                    "  cmp.lt.1.dw p1 = vr1, vr0\n"
                    "  br p1, loop\n"
                    "  halt\n";
  VerifySpec Unknown;
  Unknown.NumScalarParams = 1;
  CostReport RU = analyze(Asm, Unknown);
  EXPECT_FALSE(RU.bounded());
  EXPECT_TRUE(RU.structureOk()); // shape fine, only the trip is open
  EXPECT_GE(RU.Diags.count(Severity::Warning), 1u);

  VerifySpec Ranged = Unknown;
  Ranged.ParamRanges[0] = Range{1, 20};
  CostReport RR = analyze(Asm, Ranged);
  ASSERT_TRUE(RR.bounded());
  ASSERT_EQ(RR.Loops.size(), 1u);
  EXPECT_EQ(RR.Loops[0].TripLo, 1);
  EXPECT_EQ(RR.Loops[0].TripHi, 20);
}

TEST(CostLoopTest, NestedLoopsMultiply) {
  CostReport R = analyze("  mov.1.dw vr1 = 0\n"
                         "outer:\n"
                         "  mov.1.dw vr2 = 0\n"
                         "inner:\n"
                         "  add.1.dw vr2 = vr2, 1\n"
                         "  cmp.lt.1.dw p1 = vr2, 3\n"
                         "  br p1, inner\n"
                         "  add.1.dw vr1 = vr1, 1\n"
                         "  cmp.lt.1.dw p2 = vr1, 4\n"
                         "  br p2, outer\n"
                         "  halt\n");
  ASSERT_TRUE(R.bounded());
  ASSERT_EQ(R.Loops.size(), 2u); // innermost first
  EXPECT_EQ(R.Loops[0].TripLo, 3);
  EXPECT_EQ(R.Loops[0].TripHi, 3);
  EXPECT_EQ(R.Loops[1].TripLo, 4);
  EXPECT_EQ(R.Loops[1].TripHi, 4);
  // mov 0.5 + 4 * (mov 0.5 + 3*(1+1+1) + add 1 + cmp 1 + br 1) + halt 1.
  EXPECT_DOUBLE_EQ(R.minCycles(), 51.5);
  EXPECT_DOUBLE_EQ(R.maxCycles(), 51.5);
}

TEST(CostLoopTest, SharedHeaderLatchSkippingTheExitIsUnbounded) {
  // Both back edges target `loop`, so they form one natural loop. The
  // first latch re-enters without reaching the vr1 exit test: the header
  // runs 5 + 1 + 1 = 7 times, not the 3 that test alone would count.
  const char *Asm = "  mov.1.dw vr1 = 0\n"
                    "  mov.1.dw vr2 = 0\n"
                    "loop:\n"
                    "  add.1.dw vr2 = vr2, 1\n"
                    "  cmp.lt.1.dw p1 = vr2, 5\n"
                    "  br p1, loop\n"
                    "  add.1.dw vr1 = vr1, 1\n"
                    "  cmp.lt.1.dw p2 = vr1, 3\n"
                    "  br p2, loop\n"
                    "  halt\n";
  CostReport R = analyze(Asm);
  ASSERT_EQ(R.Loops.size(), 1u);
  EXPECT_FALSE(R.Loops[0].bounded());
  EXPECT_FALSE(R.bounded());

  exo::ExoPlatform P;
  gma::KernelImage Img;
  Img.Code = assembleOrDie(Asm);
  gma::ShredDescriptor D;
  D.KernelId = P.device().registerKernel(std::move(Img));
  P.device().enqueueShred(D);
  auto Exit = P.device().run(0.0);
  ASSERT_TRUE(static_cast<bool>(Exit)) << Exit.message();
  EXPECT_GE(P.device().stats().IssueCycles, R.minCycles());
  EXPECT_LE(P.device().stats().IssueCycles, R.maxCycles());
}

//===----------------------------------------------------------------------===//
// Structure verdicts: self-loops, irreducible graphs, stalls, spawn.
//===----------------------------------------------------------------------===//

TEST(CostStructureTest, SelfSpinIsUnboundedButReducible) {
  CostReport R = analyze("spin:\n"
                         "  jmp spin\n");
  EXPECT_FALSE(R.bounded());
  EXPECT_TRUE(R.Reducible);
  ASSERT_EQ(R.Loops.size(), 1u);
  EXPECT_EQ(R.Loops[0].BodySize, 1u); // single-node self-loop
  EXPECT_FALSE(R.Loops[0].bounded());
  EXPECT_GE(R.Diags.count(Severity::Warning), 1u);
}

TEST(CostStructureTest, SpinWithoutExitOnOnePathIsUnbounded) {
  // The halting path costs 3 cycles, but a shred taking the branch spins
  // forever: the maximum must not stay finite.
  CostReport R = analyze("  cmp.eq.1.dw p1 = vr0, 0\n"
                         "  br p1, spin\n"
                         "  halt\n"
                         "spin:\n"
                         "  jmp spin\n");
  EXPECT_TRUE(R.Reducible);
  EXPECT_FALSE(R.bounded());
  EXPECT_EQ(R.maxCycles(), std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(R.minCycles(), 3.0);
}

TEST(CostStructureTest, IrreducibleGraphIsDetected) {
  // The entry can jump into the middle of the loop, so the retreating
  // edge's target does not dominate its source.
  CostReport R = analyze("  cmp.eq.1.dw p1 = vr1, 0\n"
                         "  br p1, mid\n"
                         "top:\n"
                         "  add.1.dw vr2 = vr2, 1\n"
                         "mid:\n"
                         "  add.1.dw vr2 = vr2, 1\n"
                         "  cmp.lt.1.dw p2 = vr2, 10\n"
                         "  br p2, top\n"
                         "  halt\n");
  EXPECT_FALSE(R.Reducible);
  EXPECT_FALSE(R.bounded());
  EXPECT_FALSE(R.structureOk());
  EXPECT_GE(R.Diags.count(Severity::Warning), 1u);
}

TEST(CostStructureTest, UnprovenWaitForcesUnbounded) {
  CostReport R = analyze("  wait vr1\n"
                         "  halt\n");
  EXPECT_FALSE(R.StallsProven);
  EXPECT_FALSE(R.bounded());
  EXPECT_FALSE(R.structureOk());
  EXPECT_GE(R.Diags.count(Severity::Warning), 1u);
}

TEST(CostStructureTest, MatchedXmitProvesTheWait) {
  CostReport R = analyze("  xmit vr2, vr1 = vr3\n"
                         "  wait vr1\n"
                         "  halt\n");
  EXPECT_TRUE(R.StallsProven);
  EXPECT_TRUE(R.bounded());
  EXPECT_TRUE(R.structureOk());
}

TEST(CostStructureTest, SpawnIsFlagged) {
  CostReport R = analyze("  spawn 0\n"
                         "  halt\n");
  EXPECT_TRUE(R.SpawnsChildren);
  EXPECT_TRUE(R.bounded()); // per-shred bound itself is still finite
}

//===----------------------------------------------------------------------===//
// Device differential: the measured functional IssueCycles counter must
// land exactly inside the static envelope (here min == max, so exactly
// *on* it), scaled by the shred count.
//===----------------------------------------------------------------------===//

TEST(CostEnvelopeTest, DeviceIssueCyclesMatchExactStaticBound) {
  const char *Asm = "  mov.1.dw vr1 = 0\n"
                    "loop:\n"
                    "  add.1.dw vr1 = vr1, 1\n"
                    "  cmp.lt.1.dw p1 = vr1, 10\n"
                    "  br p1, loop\n"
                    "  halt\n";
  CostReport R = analyze(Asm);
  ASSERT_TRUE(R.bounded());
  ASSERT_DOUBLE_EQ(R.minCycles(), R.maxCycles());

  exo::ExoPlatform P;
  auto K = xasm::assembleKernel(Asm, xasm::SymbolBindings());
  ASSERT_TRUE(static_cast<bool>(K)) << K.message();
  gma::KernelImage Img;
  Img.Code = K->Code;
  uint32_t Kid = P.device().registerKernel(std::move(Img));
  constexpr unsigned Shreds = 3;
  for (unsigned S = 0; S < Shreds; ++S) {
    gma::ShredDescriptor D;
    D.KernelId = Kid;
    P.device().enqueueShred(std::move(D));
  }
  auto Exit = P.device().run(0.0);
  ASSERT_TRUE(static_cast<bool>(Exit)) << Exit.message();
  EXPECT_DOUBLE_EQ(P.device().stats().IssueCycles, Shreds * R.minCycles());
}

// A shred does not start from a zeroed register file: before its first
// instruction the mailbox writes the values other shreds xmitted to it.
// Here shred 1 sends shred 2 a loop counter of 100, so shred 2 runs its
// loop once while shred 1 runs it ten times. The static minimum must
// cover shred 2 on both backends.
TEST(CostEnvelopeTest, MailboxPreloadKeepsTheMinimumSound) {
  const char *Asm = "  sid vr2\n"
                    "  cmp.eq.1.dw p1 = vr2, 1\n"
                    "  br !p1, loop\n"
                    "  mov.1.dw vr6 = 2\n"
                    "  mov.1.dw vr7 = 100\n"
                    "  xmit vr6, vr5 = vr7\n"
                    "loop:\n"
                    "  add.1.dw vr5 = vr5, 1\n"
                    "  cmp.lt.1.dw p0 = vr5, 10\n"
                    "  br p0, loop\n"
                    "  halt\n";
  CostReport R = analyze(Asm);
  ASSERT_TRUE(R.structureOk());
  constexpr unsigned Shreds = 2;
  for (bool Fast : {false, true}) {
    exo::ExoPlatform P;
    gma::KernelImage Img;
    Img.Code = assembleOrDie(Asm);
    gma::ShredDescriptor D;
    D.KernelId = P.device().registerKernel(std::move(Img));
    double Issue = 0;
    if (Fast) {
      xjit::JitEngine Jit(P.device(), P.physicalMemory(), &P.proxy());
      xjit::JitRunRequest Req;
      Req.KernelId = D.KernelId;
      Req.Shreds.assign(Shreds, D);
      auto Res = Jit.run(std::move(Req));
      ASSERT_TRUE(static_cast<bool>(Res)) << Res.message();
      Issue = Res->Stats.IssueCycles;
    } else {
      for (unsigned S = 0; S < Shreds; ++S)
        P.device().enqueueShred(D);
      auto Exit = P.device().run(0.0);
      ASSERT_TRUE(static_cast<bool>(Exit)) << Exit.message();
      Issue = P.device().stats().IssueCycles;
    }
    EXPECT_GE(Issue, Shreds * R.minCycles()) << (Fast ? "fast" : "cycle");
    EXPECT_LE(Issue, Shreds * R.maxCycles()) << (Fast ? "fast" : "cycle");
  }
}

//===----------------------------------------------------------------------===//
// Table 2: every production kernel gets finite bounds under its real
// dispatch envelope, and the measured counters of full runs — on both
// backends — fall inside the envelope.
//===----------------------------------------------------------------------===//

namespace {

using kernels::MediaWorkload;

struct WorkloadRig {
  explicit WorkloadRig(std::unique_ptr<MediaWorkload> WL)
      : Workload(std::move(WL)), RT(Platform) {
    chi::ProgramBuilder PB;
    cantFail(Workload->compile(PB));
    Binary = PB.take();
    cantFail(RT.loadBinary(Binary));
    cantFail(Workload->setup(RT));
  }

  std::unique_ptr<MediaWorkload> Workload;
  exo::ExoPlatform Platform;
  chi::Runtime RT;
  fatbin::FatBinary Binary;
};

std::unique_ptr<MediaWorkload> makeSmallWorkload(int Index) {
  using namespace kernels;
  switch (Index) {
  case 0:
    return createLinearFilter(64, 32);
  case 1:
    return createSepiaTone(64, 32);
  case 2:
    return createFGT(64, 32);
  case 3:
    return createBicubic(64, 32, 3);
  case 4:
    return createKalman(64, 32, 3);
  case 5:
    return createFMD(64, 32, 12);
  case 6:
    return createAlphaBlend(64, 32, 3);
  case 7:
    return createBOB(64, 32, 4);
  case 8:
    return createADVDI(64, 32, 4);
  default:
    return createProcAmp(64, 32, 3);
  }
}

std::string kernelCaseName(const ::testing::TestParamInfo<int> &Info) {
  static const char *Names[] = {"LinearFilter", "SepiaTone", "FGT",
                                "Bicubic",      "Kalman",    "FMD",
                                "AlphaBlend",   "BOB",       "ADVDI",
                                "ProcAmp"};
  return Names[Info.param];
}

/// The workload's static cost report under its real dispatch envelope:
/// every scalar parameter's range is the hull of the values the workload
/// actually passes.
CostReport workloadReport(const WorkloadRig &Rig) {
  const MediaWorkload &WL = *Rig.Workload;
  const fatbin::CodeSection *Sec = Rig.Binary.findByName(WL.name());
  EXPECT_NE(Sec, nullptr);
  auto Prog = isa::decodeProgram(Sec->Code);
  EXPECT_TRUE(static_cast<bool>(Prog)) << Prog.message();
  VerifySpec Spec;
  Spec.NumScalarParams = static_cast<unsigned>(Sec->ScalarParams.size());
  Spec.NumSurfaceSlots = static_cast<int32_t>(Sec->SurfaceParams.size());
  for (unsigned P = 0; P < Spec.NumScalarParams; ++P) {
    auto Hull = Rig.Workload->scalarParamHull(P);
    Spec.ParamRanges[P] = Range{Hull.first, Hull.second};
  }
  return analyzeCost(*Prog, Spec, WL.name());
}

} // namespace

class CostTable2Test : public ::testing::TestWithParam<int> {};

TEST_P(CostTable2Test, MeasuredCyclesFallInsideTheStaticEnvelope) {
  WorkloadRig Rig(makeSmallWorkload(GetParam()));
  CostReport R = workloadReport(Rig);
  ASSERT_TRUE(R.bounded()) << R.Diags.warnings().size() << " warnings";
  ASSERT_TRUE(R.structureOk());
  ASSERT_GT(R.minCycles(), 0.0);

  MediaWorkload &WL = *Rig.Workload;
  for (int64_t Backend : {0, 1}) {
    Rig.RT.setFeature(chi::Feature::Backend, Backend);
    auto H = WL.dispatchDevice(Rig.RT, 0, WL.totalStrips());
    ASSERT_TRUE(static_cast<bool>(H)) << H.message();
    const chi::RegionStats *St = Rig.RT.regionStats(*H);
    ASSERT_NE(St, nullptr);
    const double Shreds = static_cast<double>(St->Device.ShredsExecuted);
    EXPECT_EQ(St->Device.ShredsExecuted, WL.totalStrips());
    EXPECT_GE(St->Device.IssueCycles, Shreds * R.minCycles())
        << WL.name() << " backend=" << Backend;
    EXPECT_LE(St->Device.IssueCycles, Shreds * R.maxCycles())
        << WL.name() << " backend=" << Backend;
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, CostTable2Test, ::testing::Range(0, 10),
                         kernelCaseName);

// The production registry stays clean of the new lint findings: no dead
// stores, no unreachable blocks in any Table 2 kernel at paper scale.
TEST(CostTable2Test, RegistryKernelsHaveNoDeadStoreOrUnreachableNotes) {
  chi::ProgramBuilder PB;
  auto Workloads = kernels::createTable2Workloads(0.25);
  for (const auto &W : Workloads) {
    cantFail(W->compile(PB));
    const LintReport *R = PB.lintReport(W->name());
    ASSERT_NE(R, nullptr) << W->name();
    for (const LintDiag &D : R->Diags) {
      EXPECT_EQ(D.Msg.find("dead store"), std::string::npos)
          << W->name() << ": " << D.Msg;
      EXPECT_EQ(D.Msg.find("unreachable"), std::string::npos)
          << W->name() << ": " << D.Msg;
    }
  }
}

namespace {

/// The static cost report of the registry's workload \p W under the spec
/// `exochi-lint --registry` uses: the ABI slot counts plus each scalar
/// parameter's hull over the workload's real dispatches.
CostReport registryReport(MediaWorkload &W) {
  chi::ProgramBuilder PB;
  cantFail(W.compile(PB));
  const fatbin::CodeSection *Sec = PB.binary().findByName(W.name());
  EXPECT_NE(Sec, nullptr) << W.name();
  if (!Sec)
    return CostReport();
  auto Prog = isa::decodeProgram(Sec->Code);
  EXPECT_TRUE(static_cast<bool>(Prog)) << Prog.message();
  VerifySpec Spec;
  Spec.NumScalarParams = static_cast<unsigned>(Sec->ScalarParams.size());
  Spec.NumSurfaceSlots = static_cast<int32_t>(Sec->SurfaceParams.size());
  for (unsigned P = 0; P < Spec.NumScalarParams; ++P) {
    auto Hull = W.scalarParamHull(P);
    Spec.ParamRanges[P] = Range{Hull.first, Hull.second};
  }
  return analyzeCost(*Prog, Spec, W.name());
}

} // namespace

// Paper-scale registry bounds stay finite too (what exochi-lint
// --registry enforces in CI, asserted here without the process hop).
TEST(CostTable2Test, RegistryKernelsAtPaperScaleAreBounded) {
  for (const auto &W : kernels::createTable2Workloads(0.25)) {
    CostReport R = registryReport(*W);
    EXPECT_TRUE(R.bounded()) << W->name();
    EXPECT_TRUE(R.structureOk()) << W->name();
  }
}

//===----------------------------------------------------------------------===//
// The registry kernels' exact static verdicts at scale 0.25, pinned. A
// change to the value analysis, the loop finder or the trip-count rules
// that moves any bound fails here and prints the new golden line.
//===----------------------------------------------------------------------===//

namespace {

struct LoopGolden {
  uint32_t Header;
  uint32_t BodySize;
  int64_t TripLo;
  int64_t TripHi;
};

struct CostGolden {
  const char *Name;
  int64_t HalfLo; ///< ShredHalfCycles.Lo
  int64_t HalfHi; ///< ShredHalfCycles.Hi
  std::vector<LoopGolden> Loops; ///< innermost first, as reported
};

const CostGolden CostGoldens[] = {
    {"Linear Filter", 225, 481885, {{4, 121, 1, 20}, {3, 125, 1, 114}}},
    {"SepiaTone", 86, 162071, {{4, 33, 1, 20}, {3, 37, 1, 112}}},
    {"Film Grain Technology", 2038, 388431,
     {{12, 35, 32, 32}, {11, 39, 1, 192}}},
    {"Bicubic Scaling", 3336, 6186187, {{4, 155, 22, 22}, {3, 159, 1, 924}}},
    {"Kalman", 79, 565387, {{4, 37, 1, 16}, {3, 41, 1, 540}}},
    {"Film Mode Detection", 605, 1009802, {{5, 13, 22, 22}, {4, 17, 1, 1744}}},
    {"Alpha Blending", 7586, 6999311, {{8, 161, 22, 22}, {7, 165, 1, 924}}},
    {"De-interlace BOB Avg", 476, 758611, {{4, 20, 22, 22}, {3, 24, 1, 924}}},
    {"Advanced De-interlacing", 476, 1531075,
     {{4, 44, 22, 22}, {3, 48, 1, 924}}},
    {"ProcAmp", 1598, 1470091, {{4, 39, 22, 22}, {3, 43, 1, 924}}},
};

std::string costGoldenLine(const CostReport &R) {
  std::string S = formatString("{\"%s\", %lld, %lld, {", R.Kernel.c_str(),
                               (long long)R.ShredHalfCycles.Lo,
                               (long long)R.ShredHalfCycles.Hi);
  for (size_t K = 0; K < R.Loops.size(); ++K) {
    const LoopBound &L = R.Loops[K];
    S += formatString("%s{%u, %u, %lld, %lld}", K ? ", " : "", L.Header,
                      L.BodySize, (long long)L.TripLo, (long long)L.TripHi);
  }
  return S + "}},";
}

} // namespace

class CostRegistryGoldenTest : public ::testing::TestWithParam<int> {};

TEST_P(CostRegistryGoldenTest, StaticVerdictMatchesPinnedGolden) {
  const CostGolden &G = CostGoldens[GetParam()];
  auto Workloads = kernels::createTable2Workloads(0.25);
  CostReport R = registryReport(*Workloads[GetParam()]);
  SCOPED_TRACE("actual: " + costGoldenLine(R));
  EXPECT_EQ(R.Kernel, G.Name);
  EXPECT_EQ(R.ShredHalfCycles.Lo, G.HalfLo);
  EXPECT_EQ(R.ShredHalfCycles.Hi, G.HalfHi);
  ASSERT_EQ(R.Loops.size(), G.Loops.size());
  for (size_t K = 0; K < G.Loops.size(); ++K) {
    SCOPED_TRACE("loop " + std::to_string(K));
    EXPECT_EQ(R.Loops[K].Header, G.Loops[K].Header);
    EXPECT_EQ(R.Loops[K].BodySize, G.Loops[K].BodySize);
    EXPECT_EQ(R.Loops[K].TripLo, G.Loops[K].TripLo);
    EXPECT_EQ(R.Loops[K].TripHi, G.Loops[K].TripHi);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, CostRegistryGoldenTest,
                         ::testing::Range(0, 10), kernelCaseName);

//===----------------------------------------------------------------------===//
// docs/ISA.md embeds the generated cost table verbatim.
//===----------------------------------------------------------------------===//

TEST(CostDocsTest, IsaDocEmbedsTheGeneratedTable) {
  auto Bytes = readFileBytes(std::string(EXOCHI_SOURCE_DIR) + "/docs/ISA.md");
  ASSERT_TRUE(static_cast<bool>(Bytes)) << Bytes.message();
  std::string Doc(Bytes->begin(), Bytes->end());
  const std::string Begin = "<!-- BEGIN GENERATED: xopt::costTableMarkdown -->\n";
  const std::string End = "<!-- END GENERATED: xopt::costTableMarkdown -->";
  size_t B = Doc.find(Begin);
  ASSERT_NE(B, std::string::npos) << "missing BEGIN marker in docs/ISA.md";
  size_t E = Doc.find(End, B);
  ASSERT_NE(E, std::string::npos) << "missing END marker in docs/ISA.md";
  EXPECT_EQ(Doc.substr(B + Begin.size(), E - B - Begin.size()),
            costTableMarkdown())
      << "docs/ISA.md cost table is stale; regenerate with "
         "`exochi-lint --cost-table`";
}
