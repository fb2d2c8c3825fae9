//===- tests/exo_test.cpp - EXO layer tests (ATR, CEH, host lane) -------------===//

#include "exo/ExoPlatform.h"

#include "fault/FaultInjector.h"
#include "xasm/Assembler.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

using namespace exochi;
using namespace exochi::exo;

namespace {

/// Convenience: assemble + register a kernel on the platform device.
uint32_t loadKernel(ExoPlatform &P, const char *Asm,
                    const xasm::SymbolBindings &Binds) {
  auto K = xasm::assembleKernel(Asm, Binds);
  EXPECT_TRUE(static_cast<bool>(K)) << K.message();
  gma::KernelImage Img;
  Img.Code = K->Code;
  return P.device().registerKernel(std::move(Img));
}

std::shared_ptr<gma::SurfaceTable>
singleSurface(mem::VirtAddr Base, uint32_t Width, uint32_t Height,
              isa::ElemType Ty) {
  auto T = std::make_shared<gma::SurfaceTable>();
  gma::SurfaceBinding S;
  S.Base = Base;
  S.Width = Width;
  S.Height = Height;
  S.Elem = Ty;
  T->push_back(S);
  return T;
}

} // namespace

TEST(ExoPlatformTest, SharedBufferVisibleToBothSequencers) {
  ExoPlatform P;
  SharedBuffer Buf = P.allocateShared(64 * 4, "vec");

  // IA32 sequencer writes...
  for (unsigned K = 0; K < 64; ++K)
    P.store<int32_t>(Buf.Base + K * 4, static_cast<int32_t>(K * 3));

  // ...exo-sequencer shreds read, double, and write back through ATR.
  xasm::SymbolBindings Binds;
  Binds.bindScalar("i", 0);
  Binds.bindSurface("v", 0);
  uint32_t Kid = loadKernel(P, R"(
    shl.1.dw vr1 = i, 3
    ld.8.dw [vr2..vr9] = (v, vr1, 0)
    add.8.dw [vr2..vr9] = [vr2..vr9], [vr2..vr9]
    st.8.dw (v, vr1, 0) = [vr2..vr9]
    halt
  )",
                           Binds);

  auto Surfaces = singleSurface(Buf.Base, 64, 1, isa::ElemType::I32);
  for (unsigned I = 0; I < 8; ++I) {
    gma::ShredDescriptor D;
    D.KernelId = Kid;
    D.Params = {static_cast<int32_t>(I)};
    D.Surfaces = Surfaces;
    P.device().enqueueShred(std::move(D));
  }
  auto Exit = P.device().run(0.0);
  ASSERT_TRUE(static_cast<bool>(Exit)) << Exit.message();

  // IA32 sequencer observes the exo-sequencers' writes: shared VM works.
  for (unsigned K = 0; K < 64; ++K)
    EXPECT_EQ(P.load<int32_t>(Buf.Base + K * 4), static_cast<int32_t>(K * 6));
}

TEST(ExoPlatformTest, AtrServicesDemandPagingViaProxy) {
  ExoPlatform P;
  SharedBuffer Buf = P.allocateShared(4 * mem::PageSize, "lazy");
  // Note: nothing touches the buffer from the IA32 side, so every page is
  // still unmapped when the exo-sequencer arrives.

  xasm::SymbolBindings Binds;
  Binds.bindScalar("i", 0);
  Binds.bindSurface("v", 0);
  uint32_t Kid = loadKernel(P, R"(
    mov.1.dw vr1 = 99
    st.1.dw (v, i, 0) = vr1
    halt
  )",
                           Binds);

  auto Surfaces =
      singleSurface(Buf.Base, 4 * mem::PageSize / 4, 1, isa::ElemType::I32);
  for (unsigned Page = 0; Page < 4; ++Page) {
    gma::ShredDescriptor D;
    D.KernelId = Kid;
    D.Params = {static_cast<int32_t>(Page * mem::PageSize / 4)};
    D.Surfaces = Surfaces;
    P.device().enqueueShred(std::move(D));
  }
  ASSERT_TRUE(static_cast<bool>(P.device().run(0.0)));

  const ProxyStats &S = P.proxy().stats();
  EXPECT_EQ(S.AtrRequests, 4u);       // one TLB miss per fresh page
  EXPECT_EQ(S.DemandPageFaults, 4u);  // each serviced by the OS via proxy
  EXPECT_EQ(S.PteTranscodes, 4u);     // each PTE transcoded to GPU format
  for (unsigned Page = 0; Page < 4; ++Page)
    EXPECT_EQ(P.load<int32_t>(Buf.Base + Page * mem::PageSize), 99);
}

TEST(ExoPlatformTest, AtrWriteProtectionIsFatal) {
  ExoPlatform P;
  // Map a read-only page directly (not a demand-paged region).
  mem::VirtAddr Va = 0x30000000;
  P.addressSpace().mapPage(Va, /*Writable=*/false);

  xasm::SymbolBindings Binds;
  Binds.bindSurface("v", 0);
  uint32_t Kid = loadKernel(P,
                            "  mov.1.dw vr0 = 0\n"
                            "  mov.1.dw vr1 = 5\n"
                            "  st.1.dw (v, vr0, 0) = vr1\n"
                            "  halt\n",
                            Binds);
  gma::ShredDescriptor D;
  D.KernelId = Kid;
  D.Surfaces = singleSurface(Va, 16, 1, isa::ElemType::I32);
  P.device().enqueueShred(std::move(D));

  auto Exit = P.device().run(0.0);
  ASSERT_FALSE(static_cast<bool>(Exit));
  EXPECT_NE(Exit.message().find("fault"), std::string::npos);
}

TEST(ExoPlatformTest, ReadOnlyPageStillReadableByShred) {
  ExoPlatform P;
  mem::VirtAddr Va = 0x30000000;
  P.addressSpace().mapPage(Va, /*Writable=*/false);
  // Write through physical memory (simulating pre-initialized RO data).
  auto T = P.addressSpace().translate(Va, /*IsWrite=*/false);
  ASSERT_TRUE(static_cast<bool>(T));
  P.physicalMemory().write32(T->Phys, 1234);

  SharedBuffer Out = P.allocateShared(16, "out");
  xasm::SymbolBindings Binds;
  Binds.bindSurface("ro", 0);
  Binds.bindSurface("out", 1);
  uint32_t Kid = loadKernel(P,
                            "  mov.1.dw vr0 = 0\n"
                            "  ld.1.dw vr1 = (ro, vr0, 0)\n"
                            "  st.1.dw (out, vr0, 0) = vr1\n"
                            "  halt\n",
                            Binds);
  auto Surfaces = std::make_shared<gma::SurfaceTable>();
  gma::SurfaceBinding Ro;
  Ro.Base = Va;
  Ro.Width = 16;
  Surfaces->push_back(Ro);
  gma::SurfaceBinding Ob;
  Ob.Base = Out.Base;
  Ob.Width = 4;
  Surfaces->push_back(Ob);

  gma::ShredDescriptor D;
  D.KernelId = Kid;
  D.Surfaces = Surfaces;
  P.device().enqueueShred(std::move(D));
  ASSERT_TRUE(static_cast<bool>(P.device().run(0.0)));
  EXPECT_EQ(P.load<int32_t>(Out.Base), 1234);
}

//===----------------------------------------------------------------------===//
// CEH: IEEE-double emulation by the IA32 proxy
//===----------------------------------------------------------------------===//

namespace {

/// Runs a one-shred df kernel over a 6-element f64 surface initialized
/// with {A, B, -, -, -, -} and returns element 2 after execution.
double runF64Kernel(ExoPlatform &P, const char *Body, double A, double B) {
  SharedBuffer Buf = P.allocateShared(6 * 8, "f64");
  P.store<double>(Buf.Base, A);
  P.store<double>(Buf.Base + 8, B);

  xasm::SymbolBindings Binds;
  Binds.bindSurface("buf", 0);
  std::string Asm = std::string(R"(
    mov.1.dw vr30 = 0
    mov.1.dw vr31 = 1
    mov.1.dw vr32 = 2
    ld.1.df [vr0..vr1] = (buf, vr30, 0)
    ld.1.df [vr2..vr3] = (buf, vr31, 0)
)") + Body + R"(
    st.1.df (buf, vr32, 0) = [vr4..vr5]
    halt
  )";
  uint32_t Kid = loadKernel(P, Asm.c_str(), Binds);

  gma::ShredDescriptor D;
  D.KernelId = Kid;
  D.Surfaces = singleSurface(Buf.Base, 6, 1, isa::ElemType::F64);
  P.device().enqueueShred(std::move(D));
  auto Exit = P.device().run(0.0);
  EXPECT_TRUE(static_cast<bool>(Exit)) << Exit.message();
  return P.load<double>(Buf.Base + 16);
}

} // namespace

TEST(CehTest, F64ArithmeticEmulatedWithIeeeSemantics) {
  {
    ExoPlatform P;
    EXPECT_DOUBLE_EQ(
        runF64Kernel(P, "    add.1.df [vr4..vr5] = [vr0..vr1], [vr2..vr3]\n",
                     1.25, 2.5),
        3.75);
  }
  {
    ExoPlatform P;
    EXPECT_DOUBLE_EQ(
        runF64Kernel(P, "    mul.1.df [vr4..vr5] = [vr0..vr1], [vr2..vr3]\n",
                     1.5, -4.0),
        -6.0);
  }
  {
    ExoPlatform P;
    EXPECT_DOUBLE_EQ(
        runF64Kernel(P, "    sub.1.df [vr4..vr5] = [vr0..vr1], [vr2..vr3]\n",
                     10.0, 0.125),
        9.875);
  }
  {
    // IEEE division by zero: +inf, no fault.
    ExoPlatform P;
    double R =
        runF64Kernel(P, "    div.1.df [vr4..vr5] = [vr0..vr1], [vr2..vr3]\n",
                     1.0, 0.0);
    EXPECT_TRUE(std::isinf(R));
    EXPECT_GT(R, 0);
  }
}

TEST(CehTest, F64PrecisionExceedsF32) {
  // 1 + 2^-40 is representable in double but collapses to 1.0f in single:
  // the CEH emulation must preserve the double result.
  ExoPlatform P;
  double Tiny = std::ldexp(1.0, -40);
  double R = runF64Kernel(
      P, "    add.1.df [vr4..vr5] = [vr0..vr1], [vr2..vr3]\n", 1.0, Tiny);
  EXPECT_NE(R, 1.0);
  EXPECT_DOUBLE_EQ(R, 1.0 + Tiny);
  EXPECT_GE(P.proxy().stats().ExceptionsEmulated, 1u);
}

TEST(CehTest, F64CompareAndSelect) {
  ExoPlatform P;
  double R = runF64Kernel(P,
                          "    cmp.gt.1.df p1 = [vr0..vr1], [vr2..vr3]\n"
                          "    sel.1.df p1, [vr4..vr5] = [vr0..vr1], "
                          "[vr2..vr3]\n",
                          7.5, 3.25);
  EXPECT_DOUBLE_EQ(R, 7.5); // max via cmp+sel
}

TEST(CehTest, F64ConvertNarrowingAndWidening) {
  ExoPlatform P;
  SharedBuffer Buf = P.allocateShared(4 * 8, "cvt");
  P.store<double>(Buf.Base, 2.75);

  xasm::SymbolBindings Binds;
  Binds.bindSurface("buf", 0);
  uint32_t Kid = loadKernel(P, R"(
    mov.1.dw vr30 = 0
    mov.1.dw vr31 = 1
    ld.1.df [vr0..vr1] = (buf, vr30, 0)
    cvt.1.dw.df vr10 = [vr0..vr1]      ; 2.75 -> 2 (truncate)
    cvt.1.df.dw [vr4..vr5] = vr10      ; 2 -> 2.0
    st.1.df (buf, vr31, 0) = [vr4..vr5]
    halt
  )",
                           Binds);
  gma::ShredDescriptor D;
  D.KernelId = Kid;
  D.Surfaces = singleSurface(Buf.Base, 4, 1, isa::ElemType::F64);
  P.device().enqueueShred(std::move(D));
  auto Exit = P.device().run(0.0);
  ASSERT_TRUE(static_cast<bool>(Exit)) << Exit.message();
  EXPECT_DOUBLE_EQ(P.load<double>(Buf.Base + 8), 2.0);
  EXPECT_EQ(P.proxy().stats().ExceptionsEmulated, 2u); // both cvt forms
}

TEST(CehTest, DivZeroPolicyFaultTerminates) {
  ExoPlatform P;
  xasm::SymbolBindings Binds;
  uint32_t Kid = loadKernel(P,
                            "  mov.1.dw vr0 = 10\n"
                            "  mov.1.dw vr1 = 0\n"
                            "  div.1.dw vr2 = vr0, vr1\n"
                            "  halt\n",
                            Binds);
  gma::ShredDescriptor D;
  D.KernelId = Kid;
  P.device().enqueueShred(std::move(D));
  auto Exit = P.device().run(0.0);
  ASSERT_FALSE(static_cast<bool>(Exit));
  EXPECT_NE(Exit.message().find("divide by zero"), std::string::npos);
}

TEST(CehTest, DivZeroPolicyWriteZeroResumes) {
  ExoPlatform P;
  P.proxy().setDivZeroPolicy(DivZeroPolicy::WriteZero);
  SharedBuffer Out = P.allocateShared(8 * 4, "out");

  xasm::SymbolBindings Binds;
  Binds.bindSurface("out", 0);
  // Lane 2 divides by zero; the SEH handler writes 0 there and the other
  // lanes keep their quotients.
  uint32_t Kid = loadKernel(P, R"(
    mov.1.dw vr0 = 100
    mov.1.dw vr1 = 100
    mov.1.dw vr2 = 100
    mov.1.dw vr3 = 100
    mov.1.dw vr8 = 5
    mov.1.dw vr9 = 10
    mov.1.dw vr10 = 0
    mov.1.dw vr11 = 25
    div.4.dw [vr16..vr19] = [vr0..vr3], [vr8..vr11]
    mov.1.dw vr30 = 0
    st.4.dw (out, vr30, 0) = [vr16..vr19]
    halt
  )",
                           Binds);
  gma::ShredDescriptor D;
  D.KernelId = Kid;
  D.Surfaces = singleSurface(Out.Base, 8, 1, isa::ElemType::I32);
  P.device().enqueueShred(std::move(D));
  auto Exit = P.device().run(0.0);
  ASSERT_TRUE(static_cast<bool>(Exit)) << Exit.message();

  EXPECT_EQ(P.load<int32_t>(Out.Base + 0), 20);
  EXPECT_EQ(P.load<int32_t>(Out.Base + 4), 10);
  EXPECT_EQ(P.load<int32_t>(Out.Base + 8), 0); // handled lane
  EXPECT_EQ(P.load<int32_t>(Out.Base + 12), 4);
  EXPECT_EQ(P.proxy().stats().DivZeroHandled, 1u);
}

TEST(CehTest, ProxyLatencyChargedToShred) {
  // The same kernel with and without a df instruction: the CEH round trip
  // must make the df version slower by at least the emulation cost.
  auto RunOnce = [](bool WithDf) {
    ExoPlatform P;
    SharedBuffer Buf = P.allocateShared(64, "b");
    P.store<double>(Buf.Base, 1.0);
    xasm::SymbolBindings Binds;
    Binds.bindSurface("buf", 0);
    std::string Asm = "  mov.1.dw vr30 = 0\n"
                      "  ld.1.df [vr0..vr1] = (buf, vr30, 0)\n";
    if (WithDf)
      Asm += "  add.1.df [vr2..vr3] = [vr0..vr1], [vr0..vr1]\n";
    Asm += "  halt\n";
    uint32_t Kid = loadKernel(P, Asm.c_str(), Binds);
    gma::ShredDescriptor D;
    D.KernelId = Kid;
    D.Surfaces = singleSurface(Buf.Base, 8, 1, isa::ElemType::F64);
    P.device().enqueueShred(std::move(D));
    EXPECT_TRUE(static_cast<bool>(P.device().run(0.0)));
    return P.device().stats().elapsedNs();
  };
  double Without = RunOnce(false), With = RunOnce(true);
  EXPECT_GT(With, Without + 1000.0);
}

//===----------------------------------------------------------------------===//
// IA32 host lane: orphaned shreds run by the proxy on the IA32 sequencer
//===----------------------------------------------------------------------===//

namespace {

/// Hands one shred of kernel \p Kid straight to the proxy's host lane, as
/// the degradation ladder does once no EU can run it.
Expected<gma::TimeNs>
runOrphan(ExoPlatform &P, uint32_t Kid, std::vector<int32_t> Params = {},
          std::shared_ptr<gma::SurfaceTable> Surfaces = nullptr,
          mem::VirtAddr RecordVa = 0) {
  gma::OrphanShred O;
  O.ShredId = 7;
  O.KernelId = Kid;
  O.Kernel = P.device().kernel(Kid);
  O.Params = std::move(Params);
  O.Surfaces = std::move(Surfaces);
  O.RecordVa = RecordVa;
  return P.proxy().onShredOrphaned(O);
}

} // namespace

TEST(HostLaneTest, CountsInstructionsAndChargesLatency) {
  ExoPlatform P;
  SharedBuffer Out = P.allocateShared(4 * 4, "out");
  xasm::SymbolBindings Binds;
  Binds.bindScalar("x", 0);
  Binds.bindSurface("out", 0);
  uint32_t Kid = loadKernel(P, R"(
    add.1.dw vr1 = x, 1
    mov.1.dw vr2 = 0
    st.1.dw (out, vr2, 0) = vr1
    halt
  )",
                            Binds);
  auto Lat = runOrphan(P, Kid, {41},
                       singleSurface(Out.Base, 4, 1, isa::ElemType::I32));
  ASSERT_TRUE(static_cast<bool>(Lat)) << Lat.message();
  EXPECT_EQ(P.load<int32_t>(Out.Base), 42);

  // Halt is counted; the cost is the signal plus a per-instruction charge.
  const ProxyParams Params;
  EXPECT_DOUBLE_EQ(*Lat, Params.SignalLatencyNs + 4 * Params.OrphanInstrNs);
  const ProxyStats &PS = P.proxy().stats();
  EXPECT_EQ(PS.OrphansEmulated, 1u);
  EXPECT_EQ(PS.OrphanInstructions, 4u);
  // The IA32 sequencer walks its own page tables: no ATR, no CEH.
  EXPECT_EQ(PS.AtrRequests, 0u);
  EXPECT_EQ(PS.PteTranscodes, 0u);
  EXPECT_EQ(PS.DemandPageFaults, 0u);
  EXPECT_EQ(PS.ExceptionsEmulated, 0u);

  // Running off the end retires without counting an instruction.
  uint32_t NoHalt = loadKernel(P, "  mov.1.dw vr1 = 1\n  nop\n", Binds);
  ASSERT_TRUE(static_cast<bool>(runOrphan(P, NoHalt)));
  EXPECT_EQ(PS.OrphansEmulated, 2u);
  EXPECT_EQ(PS.OrphanInstructions, 6u);
}

TEST(HostLaneTest, ParamsFetchedFromRecordVa) {
  ExoPlatform P;
  SharedBuffer Out = P.allocateShared(4 * 4, "out");
  SharedBuffer Rec = P.allocateShared(2 * 4, "record");
  P.store<int32_t>(Rec.Base, 1000);
  P.store<int32_t>(Rec.Base + 4, 234);
  xasm::SymbolBindings Binds;
  Binds.bindScalar("a", 0);
  Binds.bindScalar("b", 1);
  Binds.bindSurface("out", 0);
  uint32_t Kid = loadKernel(P, R"(
    add.1.dw vr2 = a, b
    mov.1.dw vr3 = 0
    st.1.dw (out, vr3, 0) = vr2
    halt
  )",
                            Binds);
  // Params only convey the record length; the values live at RecordVa.
  auto Lat = runOrphan(P, Kid, {0, 0},
                       singleSurface(Out.Base, 4, 1, isa::ElemType::I32),
                       Rec.Base);
  ASSERT_TRUE(static_cast<bool>(Lat)) << Lat.message();
  EXPECT_EQ(P.load<int32_t>(Out.Base), 1234);
}

TEST(HostLaneTest, DeviceOnlySyncOpsDiagnosedWhenExecuted) {
  ExoPlatform P;
  xasm::SymbolBindings Binds;
  const std::pair<const char *, const char *> Ops[] = {
      {"xmit", "xmit vr1, vr10 = 5"}, {"wait", "wait vr5"},
      {"spawn", "spawn vr1"}};
  for (const auto &[Op, Insn] : Ops) {
    SCOPED_TRACE(Op);
    std::string Asm =
        std::string("  mov.1.dw vr1 = 3\n  ") + Insn + "\n  halt\n";
    auto Lat = runOrphan(P, loadKernel(P, Asm.c_str(), Binds));
    ASSERT_FALSE(static_cast<bool>(Lat));
    EXPECT_EQ(Lat.message(), std::string("host lane: shred 7 pc 1: `") + Op +
                                 "` is a device-only synchronization op; "
                                 "cannot re-dispatch on IA32");
  }
  EXPECT_EQ(P.proxy().stats().OrphansEmulated, 0u);

  // A kernel that contains spawn but never executes it still runs.
  uint32_t Kid = loadKernel(P, "  halt\n  spawn vr1\n", Binds);
  auto Lat = runOrphan(P, Kid);
  ASSERT_TRUE(static_cast<bool>(Lat)) << Lat.message();
  EXPECT_EQ(P.proxy().stats().OrphanInstructions, 1u);
}

TEST(HostLaneTest, RunawayShredHitsInstructionBudget) {
  ExoPlatform P;
  xasm::SymbolBindings Binds;
  uint32_t Kid = loadKernel(P, "loop:\n  add.1.dw vr1 = vr1, 1\n  jmp loop\n",
                            Binds);
  auto Lat = runOrphan(P, Kid);
  ASSERT_FALSE(static_cast<bool>(Lat));
  EXPECT_EQ(Lat.message(), "host lane: shred 7 exceeded the "
                           "4000000-instruction budget (runaway orphan)");
  EXPECT_EQ(P.proxy().stats().OrphansEmulated, 0u);
}

TEST(HostLaneTest, SurfaceErrorsReturnErrors) {
  ExoPlatform P;
  SharedBuffer Buf = P.allocateShared(4 * 4, "buf");
  xasm::SymbolBindings Binds;
  Binds.bindSurface("a", 0);
  Binds.bindSurface("b", 1);
  auto OneSurface = singleSurface(Buf.Base, 4, 1, isa::ElemType::I32);

  uint32_t Oob = loadKernel(P, R"(
    mov.1.dw vr1 = 4
    ld.1.dw vr2 = (a, vr1, 0)
    halt
  )",
                            Binds);
  auto Lat = runOrphan(P, Oob, {}, OneSurface);
  ASSERT_FALSE(static_cast<bool>(Lat));
  EXPECT_EQ(Lat.message(),
            "host lane: shred 7 pc 1: accessed outside its surface");

  uint32_t Unbound = loadKernel(P, R"(
    mov.1.dw vr1 = 0
    st.1.dw (b, vr1, 0) = vr1
    halt
  )",
                                Binds);
  Lat = runOrphan(P, Unbound, {}, OneSurface);
  ASSERT_FALSE(static_cast<bool>(Lat));
  EXPECT_EQ(Lat.message(),
            "host lane: shred 7 pc 1: references an unbound surface slot");
  EXPECT_EQ(P.proxy().stats().OrphansEmulated, 0u);
}

// The host lane is the IA32 sequencer itself: a df instruction runs there
// directly, so no CEH is raised and no CehTimeout occurrence is consumed.
TEST(HostLaneTest, F64RunsInPlaceWithoutCeh) {
  ExoPlatform P;
  fault::FaultInjector Inj(/*Seed=*/1);
  Inj.setRate(fault::FaultKind::CehTimeout, 1.0);
  P.armFaultInjection(&Inj);
  SharedBuffer Buf = P.allocateShared(4 * 8, "f64");
  P.store<double>(Buf.Base, 1.25);
  P.store<double>(Buf.Base + 8, 2.5);
  xasm::SymbolBindings Binds;
  Binds.bindSurface("buf", 0);
  uint32_t Kid = loadKernel(P, R"(
    mov.1.dw vr30 = 0
    ld.2.df [vr0..vr3] = (buf, vr30, 0)
    add.1.df [vr4..vr5] = [vr0..vr1], [vr2..vr3]
    mov.1.dw vr31 = 2
    st.1.df (buf, vr31, 0) = [vr4..vr5]
    halt
  )",
                            Binds);
  auto Lat = runOrphan(P, Kid, {},
                       singleSurface(Buf.Base, 4, 1, isa::ElemType::F64));
  ASSERT_TRUE(static_cast<bool>(Lat)) << Lat.message();
  EXPECT_DOUBLE_EQ(P.load<double>(Buf.Base + 16), 3.75);
  EXPECT_TRUE(Inj.fired().empty());
  EXPECT_EQ(P.proxy().stats().ExceptionsEmulated, 0u);
  EXPECT_EQ(P.proxy().stats().InjectedFaults, 0u);
  P.armFaultInjection(nullptr);
}
