//===- tests/xjit_test.cpp - XJIT fast-lane differential suite ---------------===//
//
// The cycle interpreter is the oracle: every test here runs the same
// workload on both backends and requires bit-identical surface outputs
// (DESIGN.md §14). Functional counters (shreds, instructions, memory
// traffic) must also agree; timing/occupancy statistics are exempt.
//
//===----------------------------------------------------------------------===//

#include "xjit/Xjit.h"

#include "chi/ProgramBuilder.h"
#include "chi/Runtime.h"
#include "exo/ProxyExecution.h"
#include "fault/FaultInjector.h"
#include "kernels/Workloads.h"
#include "mem/AddressSpace.h"
#include "xasm/Assembler.h"
#include "xopt/Cost.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

using namespace exochi;
using namespace exochi::gma;

namespace {

//===----------------------------------------------------------------------===//
// Device-level rig: one GmaDevice + production proxy + a JitEngine bound
// to it, so a workload can be dispatched to either backend directly.
//===----------------------------------------------------------------------===//

struct EngineRig {
  explicit EngineRig(GmaConfig Config = GmaConfig())
      : AS(PM), Device(Config, PM, Bus), Proxy(AS),
        Jit(Device, PM, &Proxy) {
    Device.setProxyHandler(&Proxy);
  }

  mem::VirtAddr alloc(uint64_t Bytes) {
    mem::VirtAddr Va = Allocator.allocate(Bytes);
    AS.reserve(Va, (Bytes + mem::PageSize - 1) & ~mem::PageOffsetMask,
               /*Writable=*/true, "test");
    return Va;
  }

  uint32_t loadKernel(const char *Asm, const xasm::SymbolBindings &Binds,
                      std::string Name) {
    auto K = xasm::assembleKernel(Asm, Binds);
    EXPECT_TRUE(static_cast<bool>(K)) << K.message();
    KernelImage Img;
    Img.Code = K->Code;
    Img.Name = std::move(Name);
    return Device.registerKernel(std::move(Img));
  }

  void arm(fault::FaultInjector &Inj) {
    Device.setFaultInjector(&Inj);
    Proxy.setFaultInjector(&Inj);
  }

  /// Runs \p Shreds on the fast lane (resetting device stats first, as
  /// Runtime::dispatch does for both backends).
  Expected<xjit::JitRunResult>
  runFast(uint32_t KernelId, std::vector<ShredDescriptor> Shreds,
          TimeNs DeadlineNs = 0, bool ForceChecked = false) {
    Device.resetStats();
    xjit::JitRunRequest Req;
    Req.KernelId = KernelId;
    Req.Shreds = std::move(Shreds);
    Req.DeadlineNs = DeadlineNs;
    Req.ForceChecked = ForceChecked;
    return Jit.run(std::move(Req));
  }

  mem::PhysicalMemory PM;
  mem::MemoryBus Bus;
  mem::Ia32AddressSpace AS;
  mem::VirtualAllocator Allocator;
  GmaDevice Device;
  exo::ExoProxyHandler Proxy;
  xjit::JitEngine Jit;
};

constexpr unsigned VecN = 1024;

struct VecAdd {
  uint32_t Kid = 0;
  mem::VirtAddr C = 0;
  std::vector<ShredDescriptor> Shreds;
};

/// The ATR-heavy idempotent vector-add from the FaultLab suite.
VecAdd buildVecAdd(EngineRig &R) {
  VecAdd W;
  mem::VirtAddr A = R.alloc(VecN * 4), B = R.alloc(VecN * 4);
  W.C = R.alloc(VecN * 4);
  for (unsigned K = 0; K < VecN; ++K) {
    R.AS.store<int32_t>(A + K * 4, static_cast<int32_t>(K * 3));
    R.AS.store<int32_t>(B + K * 4, static_cast<int32_t>(7000 - K));
  }
  xasm::SymbolBindings Binds;
  Binds.bindScalar("i", 0);
  Binds.bindSurface("A", 0);
  Binds.bindSurface("B", 1);
  Binds.bindSurface("C", 2);
  W.Kid = R.loadKernel(R"(
    shl.1.dw vr1 = i, 3
    ld.8.dw  [vr2..vr9]   = (A, vr1, 0)
    ld.8.dw  [vr10..vr17] = (B, vr1, 0)
    add.8.dw [vr18..vr25] = [vr2..vr9], [vr10..vr17]
    st.8.dw  (C, vr1, 0)  = [vr18..vr25]
    halt
  )",
                      Binds, "vecadd");
  auto Surfaces = std::make_shared<SurfaceTable>();
  Surfaces->push_back({A, VecN, 1, isa::ElemType::I32, SurfaceMode::Input,
                       mem::GpuMemType::Cached});
  Surfaces->push_back({B, VecN, 1, isa::ElemType::I32, SurfaceMode::Input,
                       mem::GpuMemType::Cached});
  Surfaces->push_back({W.C, VecN, 1, isa::ElemType::I32, SurfaceMode::Output,
                       mem::GpuMemType::Cached});
  for (unsigned I = 0; I < VecN / 8; ++I) {
    ShredDescriptor D;
    D.KernelId = W.Kid;
    D.Params = {static_cast<int32_t>(I)};
    D.Surfaces = Surfaces;
    W.Shreds.push_back(std::move(D));
  }
  return W;
}

std::vector<uint8_t> readBytes(EngineRig &R, mem::VirtAddr Va,
                               uint64_t Bytes) {
  std::vector<uint8_t> Out(Bytes);
  R.AS.read(Va, Out.data(), Bytes);
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Engine-level differential: same workload on both backends, identical
// surface bytes and functional counters.
//===----------------------------------------------------------------------===//

TEST(XjitEngineTest, VecAddMatchesCycleBackendBitForBit) {
  // Oracle: the cycle interpreter.
  EngineRig RC;
  VecAdd WC = buildVecAdd(RC);
  for (ShredDescriptor &D : WC.Shreds)
    RC.Device.enqueueShred(std::move(D));
  auto ExitC = RC.Device.run(0.0);
  ASSERT_TRUE(static_cast<bool>(ExitC)) << ExitC.message();
  GmaRunStats Cycle = RC.Device.stats();
  std::vector<uint8_t> MemC = readBytes(RC, WC.C, VecN * 4);

  // Candidate: the fast lane on a fresh, identically-built platform.
  EngineRig RF;
  VecAdd WF = buildVecAdd(RF);
  auto Res = RF.runFast(WF.Kid, std::move(WF.Shreds));
  ASSERT_TRUE(static_cast<bool>(Res)) << Res.message();
  EXPECT_EQ(Res->Exit, RunExit::QueueDrained);
  EXPECT_TRUE(Res->ElidedChecks)
      << "vecadd under full geometry/params should verify clean";
  EXPECT_EQ(readBytes(RF, WF.C, VecN * 4), MemC);

  // Functional counters agree; only timing/occupancy are estimates.
  const GmaRunStats &Fast = Res->Stats;
  EXPECT_EQ(Fast.Backend, BackendKind::Fast);
  EXPECT_EQ(Cycle.Backend, BackendKind::Cycle);
  EXPECT_EQ(Fast.ShredsExecuted, Cycle.ShredsExecuted);
  EXPECT_EQ(Fast.Instructions, Cycle.Instructions);
  EXPECT_EQ(Fast.MemoryOps, Cycle.MemoryOps);
  EXPECT_EQ(Fast.BytesLoaded, Cycle.BytesLoaded);
  EXPECT_EQ(Fast.BytesStored, Cycle.BytesStored);
  EXPECT_EQ(Fast.IssueCycles, Cycle.IssueCycles);
}

// Every run starts cold: a second run on the same engine translates
// every page again, through the JTlb and the proxy, instead of hitting
// page-cache entries the first run left behind.
TEST(XjitEngineTest, EveryRunStartsCold) {
  EngineRig R;
  VecAdd W = buildVecAdd(R);
  auto First = R.runFast(W.Kid, W.Shreds);
  ASSERT_TRUE(static_cast<bool>(First)) << First.message();
  auto Second = R.runFast(W.Kid, W.Shreds);
  ASSERT_TRUE(static_cast<bool>(Second)) << Second.message();
  EXPECT_GT(First->Stats.TlbMisses, 0u);
  EXPECT_EQ(Second->Stats.TlbMisses, First->Stats.TlbMisses);
  EXPECT_EQ(Second->Stats.ProxyCalls, First->Stats.ProxyCalls);
  EXPECT_EQ(Second->Stats.MemoryOps, First->Stats.MemoryOps);
}

// The XCost envelope contract on the fast lane: the functional
// IssueCycles counter — bit-identical across backends — must fall inside
// NumShreds * [min, max] of the static report. vecadd is loop-free, so
// the envelope collapses to a point and the check is exact.
TEST(XjitEngineTest, IssueCyclesFallInsideTheStaticCostEnvelope) {
  EngineRig R;
  VecAdd W = buildVecAdd(R);
  const KernelImage *K = R.Device.kernel(W.Kid);
  ASSERT_NE(K, nullptr);
  xopt::VerifySpec Spec;
  Spec.NumScalarParams = 1;
  Spec.NumSurfaceSlots = 3;
  Spec.ParamRanges[0] = xopt::Range{0, VecN / 8 - 1};
  xopt::CostReport Report = xopt::analyzeCost(K->Code, Spec, "vecadd");
  ASSERT_TRUE(Report.bounded());
  ASSERT_TRUE(Report.structureOk());

  const double Shreds = static_cast<double>(W.Shreds.size());
  auto Res = R.runFast(W.Kid, std::move(W.Shreds));
  ASSERT_TRUE(static_cast<bool>(Res)) << Res.message();
  EXPECT_GE(Res->Stats.IssueCycles, Shreds * Report.minCycles());
  EXPECT_LE(Res->Stats.IssueCycles, Shreds * Report.maxCycles());
  // Loop-free kernel: the envelope is a point, so the bound is exact.
  EXPECT_DOUBLE_EQ(Report.minCycles(), Report.maxCycles());
  EXPECT_DOUBLE_EQ(Res->Stats.IssueCycles, Shreds * Report.minCycles());
}

TEST(XjitEngineTest, ForceCheckedProducesIdenticalOutput) {
  EngineRig RA, RB;
  VecAdd WA = buildVecAdd(RA), WB = buildVecAdd(RB);
  auto ResA = RA.runFast(WA.Kid, std::move(WA.Shreds));
  ASSERT_TRUE(static_cast<bool>(ResA)) << ResA.message();
  ASSERT_TRUE(ResA->ElidedChecks);
  auto ResB = RB.runFast(WB.Kid, std::move(WB.Shreds), /*DeadlineNs=*/0,
                         /*ForceChecked=*/true);
  ASSERT_TRUE(static_cast<bool>(ResB)) << ResB.message();
  EXPECT_FALSE(ResB->ElidedChecks);
  EXPECT_EQ(readBytes(RA, WA.C, VecN * 4), readBytes(RB, WB.C, VecN * 4));
}

TEST(XjitEngineTest, StatsJsonNamesTheFastBackend) {
  EngineRig R;
  VecAdd W = buildVecAdd(R);
  auto Res = R.runFast(W.Kid, std::move(W.Shreds));
  ASSERT_TRUE(static_cast<bool>(Res)) << Res.message();
  std::string Json = runStatsJson(Res->Stats);
  EXPECT_NE(Json.find("\"backend\": \"fast\""), std::string::npos) << Json;
}

TEST(XjitEngineTest, RejectsUnknownAndSpawnKernels) {
  EngineRig R;
  auto Res = R.runFast(/*KernelId=*/99, {});
  ASSERT_FALSE(static_cast<bool>(Res));
  EXPECT_NE(Res.message().find("unregistered kernel"), std::string::npos);

  // `spawn` (dynamic shred trees) is the one construct the lane refuses.
  xasm::SymbolBindings Binds;
  Binds.bindScalar("child", 0);
  auto K = xasm::assembleKernel(R"(
    spawn vr0
    halt
  )",
                                Binds);
  ASSERT_TRUE(static_cast<bool>(K)) << K.message();
  EXPECT_FALSE(xjit::JitEngine::supports(K->Code));
}

//===----------------------------------------------------------------------===//
// MISP signalling (xmit/wait) on the fast lane, with and without faults.
//===----------------------------------------------------------------------===//

namespace {

struct Mailbox {
  uint32_t Kid = 0;
  mem::VirtAddr Out = 0;
  std::vector<ShredDescriptor> Shreds;
};

/// Producer xmits 777 to a consumer parked in `wait`, while a third
/// shred spins — the FaultLab mailbox scenario, team-internal ids only.
/// Fast-lane shred ids are FirstId.. in dispatch order, so the consumer
/// (first descriptor) receives id FirstId and the producer targets it.
Mailbox buildMailbox(EngineRig &R, uint32_t ConsumerId) {
  Mailbox W;
  W.Out = R.alloc(4 * 4);
  xasm::SymbolBindings Binds;
  Binds.bindScalar("role", 0);
  Binds.bindScalar("peer", 1);
  Binds.bindSurface("out", 0);
  W.Kid = R.loadKernel(R"(
    cmp.eq.1.dw p1 = role, 1
    br p1, consumer
    ; producer
    xmit peer, vr20 = 777
    halt
  consumer:
    wait vr20
    st.1.dw (out, role, 0) = vr20
    halt
  )",
                      Binds, "mailbox");
  auto Surfaces = std::make_shared<SurfaceTable>();
  Surfaces->push_back({W.Out, 4, 1, isa::ElemType::I32, SurfaceMode::Output,
                       mem::GpuMemType::Cached});
  ShredDescriptor Consumer;
  Consumer.KernelId = W.Kid;
  Consumer.Params = {1, 0};
  Consumer.Surfaces = Surfaces;
  ShredDescriptor Producer;
  Producer.KernelId = W.Kid;
  Producer.Params = {0, static_cast<int32_t>(ConsumerId)};
  Producer.Surfaces = Surfaces;
  W.Shreds.push_back(std::move(Consumer));
  W.Shreds.push_back(std::move(Producer));
  return W;
}

} // namespace

TEST(XjitSignalTest, XmitWakesWaitingConsumer) {
  EngineRig R;
  // The engine reserves ids from the device sequence: first dispatch of
  // a fresh device starts at id 1, so the consumer is shred 1.
  Mailbox W = buildMailbox(R, /*ConsumerId=*/1);
  auto Res = R.runFast(W.Kid, std::move(W.Shreds));
  ASSERT_TRUE(static_cast<bool>(Res)) << Res.message();
  EXPECT_EQ(Res->Exit, RunExit::QueueDrained);
  EXPECT_EQ(R.AS.load<int32_t>(W.Out + 1 * 4), 777);
}

TEST(XjitSignalTest, DroppedSignalDiagnosedAsTimeout) {
  EngineRig R;
  fault::FaultInjector Inj(/*Seed=*/1);
  Inj.setRate(fault::FaultKind::MailboxDrop, 1.0);
  R.arm(Inj);
  Mailbox W = buildMailbox(R, /*ConsumerId=*/1);
  auto Res = R.runFast(W.Kid, std::move(W.Shreds));
  ASSERT_FALSE(static_cast<bool>(Res));
  EXPECT_NE(Res.message().find("timed out"), std::string::npos)
      << Res.message();
  EXPECT_NE(Res.message().find("wait"), std::string::npos) << Res.message();
}

TEST(XjitSignalTest, DuplicatedSignalIsBenign) {
  EngineRig R;
  fault::FaultInjector Inj(/*Seed=*/1);
  Inj.setRate(fault::FaultKind::MailboxDup, 1.0);
  R.arm(Inj);
  Mailbox W = buildMailbox(R, /*ConsumerId=*/1);
  auto Res = R.runFast(W.Kid, std::move(W.Shreds));
  ASSERT_TRUE(static_cast<bool>(Res)) << Res.message();
  EXPECT_EQ(R.AS.load<int32_t>(W.Out + 1 * 4), 777);
  EXPECT_GT(Res->Stats.MailboxDuplicated, 0u);
}

TEST(XjitSignalTest, LostSignalWithoutInjectionIsDeadlock) {
  EngineRig R;
  Mailbox W = buildMailbox(R, /*ConsumerId=*/1);
  W.Shreds.pop_back(); // no producer: the consumer waits forever
  auto Res = R.runFast(W.Kid, std::move(W.Shreds));
  ASSERT_FALSE(static_cast<bool>(Res));
  EXPECT_NE(Res.message().find("deadlock"), std::string::npos)
      << Res.message();
  EXPECT_NE(Res.message().find("vr20"), std::string::npos) << Res.message();
}

//===----------------------------------------------------------------------===//
// FaultLab composition: EU hard-fails degrade through the re-dispatch
// ladder; the output survives bit-for-bit.
//===----------------------------------------------------------------------===//

TEST(XjitFaultTest, SurvivesEuHardFailsWithCorrectOutput) {
  EngineRig R;
  fault::FaultInjector Inj(/*Seed=*/42);
  Inj.setRate(fault::FaultKind::EuHardFail, 0.01);
  R.arm(Inj);
  VecAdd W = buildVecAdd(R);
  auto Res = R.runFast(W.Kid, std::move(W.Shreds));
  ASSERT_TRUE(static_cast<bool>(Res)) << Res.message();
  EXPECT_GT(Res->Stats.FaultsInjected, 0u) << "rate too low for the probes";
  EXPECT_GT(Res->Stats.ShredsRedispatched + Res->Stats.HostRedispatches, 0u);
  for (unsigned K = 0; K < VecN; ++K)
    ASSERT_EQ(R.AS.load<int32_t>(W.C + K * 4),
              static_cast<int32_t>(K * 3 + 7000 - K));
}

TEST(XjitFaultTest, SurvivesMixedInjectionWithCorrectOutput) {
  for (uint64_t Seed : {7u, 21u}) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    EngineRig R;
    fault::FaultInjector Inj =
        cantFail(fault::FaultInjector::parse("all:0.02", Seed));
    R.arm(Inj);
    VecAdd W = buildVecAdd(R);
    auto Res = R.runFast(W.Kid, std::move(W.Shreds));
    ASSERT_TRUE(static_cast<bool>(Res)) << Res.message();
    EXPECT_GT(Inj.fired().size(), 0u);
    for (unsigned K = 0; K < VecN; ++K)
      ASSERT_EQ(R.AS.load<int32_t>(W.C + K * 4),
                static_cast<int32_t>(K * 3 + 7000 - K));
  }
}

//===----------------------------------------------------------------------===//
// CEH on the fast lane: divide-by-zero raises to the proxy, which
// emulates the instruction and resumes past it — same as the oracle. The
// IA32 host lane handles the same fault in place and must agree too.
//===----------------------------------------------------------------------===//

TEST(XjitCehTest, DivideByZeroMatchesCycleBackend) {
  struct Case {
    const char *Name;
    const char *Asm;
    int32_t Num;                 ///< the `num` scalar parameter
    std::vector<int32_t> Expect; ///< the 8-element output surface
  };
  const Case Cases[] = {
      // Lane-varying divisor includes a zero: the CEH path must emulate
      // the whole divide and the survivors' quotients must be exact.
      {"lane-varying divisor", R"(
        mov.8.dw [vr10..vr17] = num
        mov.1.dw vr20 = 0
        mov.1.dw vr21 = 1
        mov.1.dw vr22 = 2
        mov.1.dw vr23 = 3
        mov.1.dw vr24 = 4
        mov.1.dw vr25 = 5
        mov.1.dw vr26 = 6
        mov.1.dw vr27 = 7
        div.8.dw [vr30..vr37] = [vr10..vr17], [vr20..vr27]
        st.8.dw (out, 0, 0) = [vr30..vr37]
        halt
      )",
       5040,
       {0, 5040, 2520, 1680, 1260, 1008, 840, 720}},
      // Predicated divide, lanes 1 and 3 masked off, zero divisor in
      // lane 2: masked lanes keep their old destination values (ISA.md).
      {"predicated", R"(
        mov.4.dw [vr30..vr33] = 7
        mov.4.dw [vr10..vr13] = num
        mov.1.dw vr20 = 2
        mov.1.dw vr21 = 4
        mov.1.dw vr22 = 0
        mov.1.dw vr23 = 10
        mov.1.dw vr40 = 0
        mov.1.dw vr41 = 1
        mov.1.dw vr42 = 0
        mov.1.dw vr43 = 1
        cmp.eq.4.dw p1 = [vr40..vr43], 0
        (p1) div.4.dw [vr30..vr33] = [vr10..vr13], [vr20..vr23]
        st.4.dw (out, 0, 0) = [vr30..vr33]
        halt
      )",
       40,
       {20, 7, 0, 7, 0, 0, 0, 0}},
      // INT_MIN / -1 beside a zero divisor: the handler divides in 64
      // bits and wraps to the element type, as the interpreters do.
      {"INT_MIN / -1", R"(
        mov.1.dw vr10 = num
        mov.1.dw vr11 = 5
        mov.1.dw vr20 = -1
        mov.1.dw vr21 = 0
        div.2.dw [vr30..vr31] = [vr10..vr11], [vr20..vr21]
        st.2.dw (out, 0, 0) = [vr30..vr31]
        halt
      )",
       INT32_MIN,
       {INT32_MIN, 0, 0, 0, 0, 0, 0, 0}},
  };

  enum class Lane { Cycle, Fast, Host };
  auto RunOn = [](const Case &C, Lane L) {
    EngineRig R;
    // The SEH layer's resumable policy (paper Section 3.3): the handler
    // writes 0 into the offending lanes and execution continues.
    R.Proxy.setDivZeroPolicy(exo::DivZeroPolicy::WriteZero);
    mem::VirtAddr Out = R.alloc(8 * 4);
    xasm::SymbolBindings Binds;
    Binds.bindScalar("num", 0);
    Binds.bindSurface("out", 0);
    uint32_t Kid = R.loadKernel(C.Asm, Binds, "divz");
    auto Surfaces = std::make_shared<SurfaceTable>();
    Surfaces->push_back({Out, 8, 1, isa::ElemType::I32, SurfaceMode::Output,
                         mem::GpuMemType::Cached});
    ShredDescriptor D;
    D.KernelId = Kid;
    D.Params = {C.Num};
    D.Surfaces = Surfaces;
    if (L == Lane::Fast) {
      std::vector<ShredDescriptor> Shreds;
      Shreds.push_back(std::move(D));
      auto Res = R.runFast(Kid, std::move(Shreds));
      EXPECT_TRUE(static_cast<bool>(Res)) << Res.message();
      if (Res) {
        EXPECT_GT(Res->Stats.ExceptionsHandled, 0u);
      }
    } else {
      if (L == Lane::Host) // every shred drains to the IA32 host lane
        for (unsigned K = 0; K < R.Device.config().NumEus; ++K)
          R.Device.setEuQuarantine(K, true);
      R.Device.enqueueShred(std::move(D));
      auto Exit = R.Device.run(0.0);
      EXPECT_TRUE(static_cast<bool>(Exit)) << Exit.message();
      if (L == Lane::Host) {
        EXPECT_EQ(R.Device.stats().HostRedispatches, 1u);
      } else {
        EXPECT_GT(R.Device.stats().ExceptionsHandled, 0u);
      }
    }
    EXPECT_EQ(R.Proxy.stats().DivZeroHandled, 1u);
    std::vector<int32_t> Words(8);
    R.AS.read(Out, Words.data(), 8 * 4);
    return Words;
  };

  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    std::vector<int32_t> Cycle = RunOn(C, Lane::Cycle);
    EXPECT_EQ(Cycle, C.Expect);
    EXPECT_EQ(RunOn(C, Lane::Fast), Cycle);
    EXPECT_EQ(RunOn(C, Lane::Host), Cycle);
  }
}

//===----------------------------------------------------------------------===//
// Deadline preemption at fast-lane safepoints.
//===----------------------------------------------------------------------===//

TEST(XjitDeadlineTest, PreemptsWhenEstimatePassesDeadline) {
  EngineRig R;
  VecAdd W = buildVecAdd(R);
  size_t Team = W.Shreds.size();
  auto Res = R.runFast(W.Kid, std::move(W.Shreds), /*DeadlineNs=*/1.0);
  ASSERT_TRUE(static_cast<bool>(Res)) << Res.message();
  EXPECT_EQ(Res->Exit, RunExit::DeadlinePreempted);
  EXPECT_GT(Res->Stats.ShredsPreempted, 0u);
  EXPECT_LT(Res->Stats.ShredsExecuted, Team);
  EXPECT_EQ(Res->Stats.FinishNs, 1.0);
}

//===----------------------------------------------------------------------===//
// chi-level differential: every Table 2 kernel, cycle vs fast, via the
// Feature::Backend selector.
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

/// Full dispatch on \p Backend: asserts the run actually executed on
/// the expected backend and that the shared output is bit-identical to
/// the IA32 host reference (MediaWorkload::compareSharedToReference
/// compares every visible element for exact equality, so two backends
/// that both pass are bit-identical to each other).
void runOn(WorkloadRig &Rig, int64_t Backend, BackendKind Expect) {
  Rig.RT.setFeature(chi::Feature::Backend, Backend);
  MediaWorkload &WL = *Rig.Workload;
  auto H = WL.dispatchDevice(Rig.RT, 0, WL.totalStrips());
  ASSERT_TRUE(static_cast<bool>(H)) << H.message();
  const chi::RegionStats *St = Rig.RT.regionStats(*H);
  ASSERT_NE(St, nullptr);
  EXPECT_EQ(St->Device.Backend, Expect)
      << WL.name() << ": wrong backend for selector " << Backend;
  Error E = WL.compareSharedToReference(Rig.RT);
  EXPECT_FALSE(static_cast<bool>(E)) << E.message();
}

} // namespace

class XjitTable2Test : public ::testing::TestWithParam<int> {};

// The load-bearing contract: for every Table 2 kernel, the fast lane —
// in both elided and forced-check modes — reproduces the cycle backend's
// exact output surface (all three runs must equal the bit-exact host
// reference, hence each other).
TEST_P(XjitTable2Test, FastLaneBitIdenticalToCycleOracle) {
  WorkloadRig Rig(makeSmallWorkload(GetParam()));
  cantFail(Rig.Workload->hostCompute(0, Rig.Workload->totalStrips()));
  runOn(Rig, 0, BackendKind::Cycle);
  runOn(Rig, 1, BackendKind::Fast);
  runOn(Rig, 2, BackendKind::Fast);
}

// `--inject` composition at the runtime level: the fast lane completes
// every Table 2 kernel correctly under mixed fault injection.
TEST_P(XjitTable2Test, FastLaneSurvivesInjectionWithCorrectOutput) {
  WorkloadRig Rig(makeSmallWorkload(GetParam()));
  fault::FaultInjector Inj =
      cantFail(fault::FaultInjector::parse("all:0.02", /*Seed=*/7));
  Rig.Platform.armFaultInjection(&Inj);
  Rig.RT.setFeature(chi::Feature::Backend, 1);
  Error E = Rig.Workload->verify(Rig.RT);
  EXPECT_FALSE(static_cast<bool>(E)) << E.message();
}

INSTANTIATE_TEST_SUITE_P(AllKernels, XjitTable2Test, ::testing::Range(0, 10),
                         kernelCaseName);

//===----------------------------------------------------------------------===//
// Geometry sweep: partial tiles and non-square shapes stay bit-identical.
//===----------------------------------------------------------------------===//

struct SizeCase {
  uint32_t W, H, Frames;
};

class XjitSizeSweepTest
    : public ::testing::TestWithParam<std::tuple<int, SizeCase>> {};

TEST_P(XjitSizeSweepTest, BitIdenticalAcrossGeometries) {
  auto [Kernel, Size] = GetParam();
  auto Make = [Kernel = Kernel, Size = Size] {
    using namespace kernels;
    switch (Kernel) {
    case 0:
      return createLinearFilter(Size.W, Size.H);
    case 1:
      return createBOB(Size.W, Size.H, Size.Frames);
    case 2:
      return createBicubic(Size.W, Size.H, Size.Frames);
    default:
      return createKalman(Size.W, Size.H, Size.Frames);
    }
  };
  WorkloadRig Rig(Make());
  cantFail(Rig.Workload->hostCompute(0, Rig.Workload->totalStrips()));
  runOn(Rig, 0, BackendKind::Cycle);
  runOn(Rig, 1, BackendKind::Fast);
}

namespace {

std::vector<std::tuple<int, SizeCase>> sizeSweepCases() {
  const SizeCase Sizes[] = {
      {40, 24, 2}, {72, 40, 3}, {104, 56, 2}, {256, 18, 2}};
  std::vector<std::tuple<int, SizeCase>> Out;
  for (int Kernel = 0; Kernel < 4; ++Kernel)
    for (const SizeCase &S : Sizes)
      Out.emplace_back(Kernel, S);
  return Out;
}

std::string sizeCaseName(
    const ::testing::TestParamInfo<std::tuple<int, SizeCase>> &Info) {
  static const char *Names[] = {"LinearFilter", "BOB", "Bicubic", "Kalman"};
  const SizeCase &S = std::get<1>(Info.param);
  return std::string(Names[std::get<0>(Info.param)]) + "_" +
         std::to_string(S.W) + "x" + std::to_string(S.H) + "x" +
         std::to_string(S.Frames);
}

} // namespace

INSTANTIATE_TEST_SUITE_P(Geometries, XjitSizeSweepTest,
                         ::testing::ValuesIn(sizeSweepCases()), sizeCaseName);

//===----------------------------------------------------------------------===//
// Memory-op width sweep: every lane width, element type and predication
// form of ld/st and ldblk/stblk, on both sides of a page boundary.
//===----------------------------------------------------------------------===//

namespace {

struct MemCase {
  bool Blk;         ///< ldblk/stblk at (x, y) instead of ld/st at x + y
  isa::ElemType Ty; ///< I32, F32, I16 or I8
};

/// One shred per access: an unpredicated load and store of In to Out,
/// then a load and store predicated on the sign of the loaded lanes,
/// from In2 into registers preset to 7 and into Out2 (pre-filled, so a
/// masked lane's bytes must survive), and the predicated load's
/// registers stored as dwords to Out3.
std::string memCaseAsm(const MemCase &C, unsigned W) {
  std::string T = isa::elemTypeName(C.Ty), N = std::to_string(W);
  std::string A = "[vr8..vr" + std::to_string(8 + W - 1) + "]";
  std::string B = "[vr40..vr" + std::to_string(40 + W - 1) + "]";
  std::string Ld = C.Blk ? "ldblk." : "ld.", St = C.Blk ? "stblk." : "st.";
  return "  " + Ld + N + "." + T + " " + A + " = (In, x, y)\n" +
         "  cmp.lt." + N + ".dw p1 = " + A + ", 0\n" +
         "  mov." + N + ".dw " + B + " = 7\n" +
         "  (p1) " + Ld + N + "." + T + " " + B + " = (In2, x, y)\n" +
         "  " + St + N + "." + T + " (Out, x, y) = " + A + "\n" +
         "  (p1) " + St + N + "." + T + " (Out2, x, y) = " + B + "\n" +
         "  " + St + N + ".dw (Out3, x, y) = " + B + "\n" +
         "  halt\n";
}

struct MemRun {
  GmaRunStats Stats;
  bool Elided = false;
  std::vector<uint8_t> Out, Out2, Out3;
};

enum class MemLane { Cycle, Fast, FastChecked };

/// Runs \p C at width \p W on a fresh rig. Every surface starts 64
/// bytes into its allocation and spans two pages of elements, as two
/// rows of one page each for ldblk/stblk. The accesses touch each page
/// first through a translation and then through the page cache, and
/// for W > 1 two of them straddle a page boundary.
MemRun runMemCase(const MemCase &C, unsigned W, MemLane L) {
  EngineRig R;
  const unsigned Esz = isa::elemTypeSize(C.Ty);
  const uint32_t PerPage = mem::PageSize / Esz, Skew = 64 / Esz;
  const uint32_t Elems = 2 * PerPage;
  auto Surface = [&](unsigned Size, uint8_t Seed) {
    mem::VirtAddr Va = R.alloc(Elems * Size + mem::PageSize);
    std::vector<uint8_t> Bytes(Elems * Size + mem::PageSize);
    uint32_t X = Seed * 2654435761u + 1;
    for (uint8_t &B : Bytes) {
      X = X * 1664525u + 1013904223u;
      B = Seed == 0 ? 0 : static_cast<uint8_t>(X >> 24);
    }
    R.AS.write(Va, Bytes.data(), Bytes.size());
    return Va + 64;
  };
  const mem::VirtAddr In = Surface(Esz, 1), In2 = Surface(Esz, 2),
                      Out = Surface(Esz, 0), Out2 = Surface(Esz, 3),
                      Out3 = Surface(4, 0);

  xasm::SymbolBindings Binds;
  Binds.bindScalar("x", 0);
  Binds.bindScalar("y", 1);
  const char *Names[] = {"In", "In2", "Out", "Out2", "Out3"};
  for (int K = 0; K < 5; ++K)
    Binds.bindSurface(Names[K], K);
  uint32_t Kid = R.loadKernel(memCaseAsm(C, W).c_str(), Binds, "memsweep");

  auto Surfaces = std::make_shared<SurfaceTable>();
  const uint32_t SfW = C.Blk ? PerPage : Elems, SfH = C.Blk ? 2 : 1;
  for (mem::VirtAddr Va : {In, In2, Out, Out2, Out3})
    Surfaces->push_back({Va, SfW, SfH, Va == Out3 ? isa::ElemType::I32 : C.Ty,
                         SurfaceMode::InputOutput, mem::GpuMemType::Cached});

  // Element indices; W + 1 lands on a page already translated, PerPage -
  // Skew - 1 and Elems - W end past a page boundary.
  const uint32_t Firsts[] = {0,           W + 1,           PerPage - Skew - 1,
                             PerPage + 2, PerPage + W + 3, Elems - W};
  std::vector<ShredDescriptor> Shreds;
  for (uint32_t E : Firsts) {
    ShredDescriptor D;
    D.KernelId = Kid;
    D.Params = C.Blk ? std::vector<int32_t>{static_cast<int32_t>(E % PerPage),
                                            static_cast<int32_t>(E / PerPage)}
                     : std::vector<int32_t>{static_cast<int32_t>(E), 0};
    D.Surfaces = Surfaces;
    Shreds.push_back(std::move(D));
  }

  MemRun Run;
  if (L == MemLane::Cycle) {
    R.Device.resetStats();
    for (ShredDescriptor &D : Shreds)
      R.Device.enqueueShred(std::move(D));
    auto Exit = R.Device.run(0.0);
    EXPECT_TRUE(static_cast<bool>(Exit)) << Exit.message();
    Run.Stats = R.Device.stats();
  } else {
    auto Res = R.runFast(Kid, std::move(Shreds), 0,
                         /*ForceChecked=*/L == MemLane::FastChecked);
    EXPECT_TRUE(static_cast<bool>(Res)) << Res.message();
    if (Res) {
      Run.Stats = Res->Stats;
      Run.Elided = Res->ElidedChecks;
    }
  }
  Run.Out = readBytes(R, Out, Elems * Esz);
  Run.Out2 = readBytes(R, Out2, Elems * Esz);
  Run.Out3 = readBytes(R, Out3, Elems * 4);
  return Run;
}

std::string memCaseLabel(const MemCase &C) {
  return std::string(C.Blk ? "Blk_" : "Linear_") + isa::elemTypeName(C.Ty);
}

std::string memCaseName(const ::testing::TestParamInfo<MemCase> &Info) {
  return memCaseLabel(Info.param);
}

/// Prints a case by its label, so the discovered test names read
/// `…/Blk_w # GetParam() = Blk_w` instead of the struct's raw bytes.
void PrintTo(const MemCase &C, std::ostream *OS) { *OS << memCaseLabel(C); }

} // namespace

class XjitMemWidthTest : public ::testing::TestWithParam<MemCase> {};

// The fast path's block copy and per-lane moves against the cycle
// oracle: unchecked and checked fast runs give the cycle run's surface
// bytes and functional counters at every width.
TEST_P(XjitMemWidthTest, EveryWidthBitIdenticalToCycleOracle) {
  for (unsigned W = 1; W <= isa::MaxWidth; ++W) {
    SCOPED_TRACE("width " + std::to_string(W));
    MemRun Cycle = runMemCase(GetParam(), W, MemLane::Cycle);
    MemRun Fast = runMemCase(GetParam(), W, MemLane::Fast);
    MemRun Checked = runMemCase(GetParam(), W, MemLane::FastChecked);
    EXPECT_TRUE(Fast.Elided) << "the sweep's accesses are all in bounds";
    EXPECT_FALSE(Checked.Elided);
    if (W >= 4) { // the sign masks enable some lanes and disable others
      unsigned Masked = 0, Loaded = 0;
      for (size_t K = 0; K < Cycle.Out3.size(); K += 4) {
        uint32_t V;
        std::memcpy(&V, &Cycle.Out3[K], 4);
        Masked += V == 7;
        Loaded += V != 7 && V != 0;
      }
      EXPECT_GT(Masked, 0u);
      EXPECT_GT(Loaded, 0u);
    }
    for (const MemRun *F : {&Fast, &Checked}) {
      EXPECT_EQ(F->Out, Cycle.Out);
      EXPECT_EQ(F->Out2, Cycle.Out2);
      EXPECT_EQ(F->Out3, Cycle.Out3);
      EXPECT_EQ(F->Stats.ShredsExecuted, Cycle.Stats.ShredsExecuted);
      EXPECT_EQ(F->Stats.Instructions, Cycle.Stats.Instructions);
      EXPECT_EQ(F->Stats.MemoryOps, Cycle.Stats.MemoryOps);
      EXPECT_EQ(F->Stats.BytesLoaded, Cycle.Stats.BytesLoaded);
      EXPECT_EQ(F->Stats.BytesStored, Cycle.Stats.BytesStored);
      EXPECT_EQ(F->Stats.IssueCycles, Cycle.Stats.IssueCycles);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, XjitMemWidthTest,
    ::testing::Values(MemCase{false, isa::ElemType::I32},
                      MemCase{false, isa::ElemType::F32},
                      MemCase{false, isa::ElemType::I16},
                      MemCase{false, isa::ElemType::I8},
                      MemCase{true, isa::ElemType::I32},
                      MemCase{true, isa::ElemType::F32},
                      MemCase{true, isa::ElemType::I16},
                      MemCase{true, isa::ElemType::I8}),
    memCaseName);

//===----------------------------------------------------------------------===//
// Backend selection and fallback gating in the runtime.
//===----------------------------------------------------------------------===//

TEST(XjitSelectionTest, DefaultBackendIsCycle) {
  WorkloadRig Rig(makeSmallWorkload(1));
  MediaWorkload &WL = *Rig.Workload;
  auto H = WL.dispatchDevice(Rig.RT, 0, WL.totalStrips());
  ASSERT_TRUE(static_cast<bool>(H)) << H.message();
  EXPECT_EQ(Rig.RT.regionStats(*H)->Device.Backend, BackendKind::Cycle);
}

TEST(XjitSelectionTest, ExecutionHooksForceCycleFallback) {
  WorkloadRig Rig(makeSmallWorkload(1));
  Rig.RT.setFeature(chi::Feature::Backend, 1);
  uint64_t Steps = 0;
  Rig.Platform.device().setStepHook([&](uint32_t, uint32_t, uint32_t) {
    ++Steps;
    return StepAction::Continue;
  });
  MediaWorkload &WL = *Rig.Workload;
  auto H = WL.dispatchDevice(Rig.RT, 0, WL.totalStrips());
  ASSERT_TRUE(static_cast<bool>(H)) << H.message();
  EXPECT_EQ(Rig.RT.regionStats(*H)->Device.Backend, BackendKind::Cycle);
  EXPECT_GT(Steps, 0u) << "the hook must actually observe execution";
}

TEST(XjitSelectionTest, BackendSwitchesPerDispatchMidSession) {
  // One session, alternating backends: the engine and device share the
  // kernel registry and shred-id sequence, so runs interleave freely.
  WorkloadRig Rig(makeSmallWorkload(0));
  MediaWorkload &WL = *Rig.Workload;
  cantFail(WL.hostCompute(0, WL.totalStrips()));
  for (int64_t Sel : {0, 1, 0, 2}) {
    SCOPED_TRACE("backend=" + std::to_string(Sel));
    Rig.RT.setFeature(chi::Feature::Backend, Sel);
    auto H = WL.dispatchDevice(Rig.RT, 0, WL.totalStrips());
    ASSERT_TRUE(static_cast<bool>(H)) << H.message();
    EXPECT_EQ(Rig.RT.regionStats(*H)->Device.Backend,
              Sel == 0 ? BackendKind::Cycle : BackendKind::Fast);
    Error E = WL.compareSharedToReference(Rig.RT);
    EXPECT_FALSE(static_cast<bool>(E)) << E.message();
  }
}

TEST(XjitSelectionTest, ParseBackendNameIsStrict) {
  EXPECT_EQ(parseBackendName("cycle"), BackendKind::Cycle);
  EXPECT_EQ(parseBackendName("fast"), BackendKind::Fast);
  EXPECT_FALSE(parseBackendName("jit").has_value());
  EXPECT_FALSE(parseBackendName("").has_value());
  EXPECT_FALSE(parseBackendName("Fast").has_value());
}
