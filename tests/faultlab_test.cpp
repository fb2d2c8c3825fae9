//===- tests/faultlab_test.cpp - FaultLab injection + resilience -------------===//
//
// Tests for the FaultLab deterministic fault-injection subsystem
// (DESIGN.md §11): a fixed seed fires the same faults at the same
// site-ids in every replay, the degradation ladder
// (retry -> EU offline + re-dispatch -> IA32 host lane) completes
// workloads under injected faults with correct output, and a disarmed
// injector is observationally inert.
//
//===----------------------------------------------------------------------===//

#include "chi/ProgramBuilder.h"
#include "chi/Runtime.h"
#include "exo/ExoPlatform.h"
#include "exo/ProxyExecution.h"
#include "fault/FaultInjector.h"
#include "gma/GmaDevice.h"
#include "kernels/Workloads.h"

#include "mem/AddressSpace.h"
#include "xasm/Assembler.h"

#include <gtest/gtest.h>

using namespace exochi;
using namespace exochi::gma;

namespace {

/// Fresh platform per run wired with the production proxy handler (the
/// one carrying the ATR/CEH probe sites and the IA32 host lane).
struct Rig {
  explicit Rig(GmaConfig Config = GmaConfig())
      : AS(PM), Device(Config, PM, Bus), Proxy(AS) {
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

  mem::PhysicalMemory PM;
  mem::MemoryBus Bus;
  mem::Ia32AddressSpace AS;
  mem::VirtualAllocator Allocator;
  GmaDevice Device;
  exo::ExoProxyHandler Proxy;
};

constexpr unsigned VecN = 1024; // 4 KiB per surface

/// Builds the ATR-miss-heavy vector-add workload (idempotent, so shreds
/// may be re-dispatched from scratch at any point). Returns surface C.
mem::VirtAddr buildVecAdd(Rig &R) {
  mem::VirtAddr A = R.alloc(VecN * 4), B = R.alloc(VecN * 4),
                C = R.alloc(VecN * 4);
  for (unsigned K = 0; K < VecN; ++K) {
    R.AS.store<int32_t>(A + K * 4, static_cast<int32_t>(K * 3));
    R.AS.store<int32_t>(B + K * 4, static_cast<int32_t>(7000 - K));
  }

  xasm::SymbolBindings Binds;
  Binds.bindScalar("i", 0);
  Binds.bindSurface("A", 0);
  Binds.bindSurface("B", 1);
  Binds.bindSurface("C", 2);
  uint32_t Kid = R.loadKernel(R"(
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
  Surfaces->push_back({C, VecN, 1, isa::ElemType::I32, SurfaceMode::Output,
                       mem::GpuMemType::Cached});
  for (unsigned I = 0; I < VecN / 8; ++I) {
    ShredDescriptor D;
    D.KernelId = Kid;
    D.Params = {static_cast<int32_t>(I)};
    D.Surfaces = Surfaces;
    R.Device.enqueueShred(std::move(D));
  }
  return C;
}

void expectVecAddCorrect(Rig &R, mem::VirtAddr C) {
  for (unsigned K = 0; K < VecN; ++K)
    ASSERT_EQ(R.AS.load<int32_t>(C + K * 4),
              static_cast<int32_t>(K * 3 + 7000 - K))
        << "element " << K;
}

} // namespace

//===----------------------------------------------------------------------===//
// Determinism: same seed, same faults, same site-ids, in every replay
//===----------------------------------------------------------------------===//

TEST(FaultLabTest, SameSeedReplaysSameFaultsAndResults) {
  GmaRunStats FirstStats;
  exo::ProxyStats FirstProxy;
  std::vector<fault::FaultSite> FirstFired;
  std::vector<uint8_t> FirstMem;

  for (unsigned Run = 0; Run < 2; ++Run) {
    SCOPED_TRACE("run " + std::to_string(Run));
    Rig R;
    fault::FaultInjector Inj =
        cantFail(fault::FaultInjector::parse("all:0.02", /*Seed=*/7));
    R.arm(Inj);

    mem::VirtAddr C = buildVecAdd(R);
    auto Exit = R.Device.run(0.0);
    ASSERT_TRUE(static_cast<bool>(Exit)) << Exit.message();
    EXPECT_EQ(*Exit, RunExit::QueueDrained);
    expectVecAddCorrect(R, C);
    EXPECT_GT(Inj.fired().size(), 0u) << "rate too low to exercise probes";

    std::vector<uint8_t> Mem(VecN * 4);
    R.AS.read(C, Mem.data(), VecN * 4);

    if (Run == 0) {
      FirstStats = R.Device.stats();
      FirstProxy = R.Proxy.stats();
      FirstFired = Inj.fired();
      FirstMem = Mem;
      continue;
    }
    EXPECT_TRUE(R.Device.stats() == FirstStats)
        << "device stats diverge: faults "
        << R.Device.stats().FaultsInjected << " vs "
        << FirstStats.FaultsInjected << ", redispatched "
        << R.Device.stats().ShredsRedispatched << " vs "
        << FirstStats.ShredsRedispatched;
    EXPECT_EQ(R.Proxy.stats().InjectedFaults, FirstProxy.InjectedFaults);
    EXPECT_EQ(R.Proxy.stats().TransientRetries, FirstProxy.TransientRetries);
    EXPECT_EQ(R.Proxy.stats().OrphansEmulated, FirstProxy.OrphansEmulated);
    EXPECT_EQ(Mem, FirstMem);

    // The fired-site log is the replay identity: same sites, same order.
    ASSERT_EQ(Inj.fired().size(), FirstFired.size());
    for (size_t K = 0; K < FirstFired.size(); ++K)
      EXPECT_TRUE(Inj.fired()[K] == FirstFired[K])
          << "site " << K << ": " << Inj.fired()[K].str() << " vs "
          << FirstFired[K].str();
  }
}

//===----------------------------------------------------------------------===//
// Degradation ladder
//===----------------------------------------------------------------------===//

// A wedged EU's resident shreds are re-dispatched and the run still
// produces the correct result on the surviving EUs (or the host lane).
TEST(FaultLabTest, EuHardFailCompletesViaRedispatch) {
  Rig R;
  fault::FaultInjector Inj(/*Seed=*/42);
  Inj.setRate(fault::FaultKind::EuHardFail, 0.01);
  R.arm(Inj);

  mem::VirtAddr C = buildVecAdd(R);
  auto Exit = R.Device.run(0.0);
  ASSERT_TRUE(static_cast<bool>(Exit)) << Exit.message();
  EXPECT_EQ(*Exit, RunExit::QueueDrained);
  expectVecAddCorrect(R, C);
  EXPECT_GE(R.Device.stats().EusOfflined, 1u);
  EXPECT_GE(R.Device.stats().ShredsRedispatched, 1u);
}

// With every EU wedged on its first resolved operation, the whole queue
// must fall through to the last rung: functional execution on the IA32
// host lane — and still produce the correct output.
TEST(FaultLabTest, AllEusOfflineFallsBackToHost) {
  Rig R;
  fault::FaultInjector Inj(/*Seed=*/1);
  Inj.setRate(fault::FaultKind::EuHardFail, 1.0);
  R.arm(Inj);

  mem::VirtAddr C = buildVecAdd(R);
  auto Exit = R.Device.run(0.0);
  ASSERT_TRUE(static_cast<bool>(Exit)) << Exit.message();
  EXPECT_EQ(*Exit, RunExit::QueueDrained);
  expectVecAddCorrect(R, C);
  EXPECT_EQ(R.Device.stats().EusOfflined, GmaConfig().NumEus);
  EXPECT_GT(R.Device.stats().HostRedispatches, 0u);
  EXPECT_GT(R.Proxy.stats().OrphansEmulated, 0u);
  EXPECT_GT(R.Proxy.stats().OrphanInstructions, 0u);
}

// Transient ATR faults are retried with backoff inside the proxy and the
// run completes without ever surfacing an error.
TEST(FaultLabTest, TransientAtrRetrySurvives) {
  Rig R;
  fault::FaultInjector Inj(/*Seed=*/3);
  Inj.setRate(fault::FaultKind::AtrTransient, 0.5);
  R.arm(Inj);

  mem::VirtAddr C = buildVecAdd(R);
  auto Exit = R.Device.run(0.0);
  ASSERT_TRUE(static_cast<bool>(Exit)) << Exit.message();
  EXPECT_EQ(*Exit, RunExit::QueueDrained);
  expectVecAddCorrect(R, C);
  EXPECT_GT(R.Proxy.stats().TransientRetries, 0u);
  EXPECT_GT(R.Device.stats().TlbMisses, 0u);
}

//===----------------------------------------------------------------------===//
// MISP mailbox faults
//===----------------------------------------------------------------------===//

namespace {

/// Producer/consumer pair (xmit/wait) plus one long-running looper shred
/// that keeps device time advancing past any wait timeout.
struct MailboxWorkload {
  mem::VirtAddr Out = 0;
  uint32_t ConsumerId = 0;
};

MailboxWorkload buildMailbox(Rig &R) {
  MailboxWorkload W;
  W.Out = R.alloc(4 * 4);

  xasm::SymbolBindings Binds;
  Binds.bindScalar("role", 0);
  Binds.bindScalar("peer", 1);
  Binds.bindSurface("out", 0);
  uint32_t Kid = R.loadKernel(R"(
    cmp.eq.1.dw p1 = role, 1
    br p1, consumer
    cmp.eq.1.dw p2 = role, 2
    br p2, looper
    ; producer
    xmit peer, vr20 = 777
    halt
  consumer:
    wait vr20
    st.1.dw (out, role, 0) = vr20
    halt
  looper:
    mov.1.dw vr1 = 0
  loop:
    add.1.dw vr1 = vr1, 1
    cmp.lt.1.dw p3 = vr1, 3000
    br p3, loop
    halt
  )",
                              Binds, "mailbox");

  auto Surfaces = std::make_shared<SurfaceTable>();
  Surfaces->push_back({W.Out, 4, 1, isa::ElemType::I32, SurfaceMode::Output,
                       mem::GpuMemType::Cached});

  ShredDescriptor Consumer;
  Consumer.KernelId = Kid;
  Consumer.Params = {1, 0};
  Consumer.Surfaces = Surfaces;
  W.ConsumerId = R.Device.enqueueShred(std::move(Consumer));

  ShredDescriptor Producer;
  Producer.KernelId = Kid;
  Producer.Params = {0, static_cast<int32_t>(W.ConsumerId)};
  Producer.Surfaces = Surfaces;
  R.Device.enqueueShred(std::move(Producer));

  ShredDescriptor Looper;
  Looper.KernelId = Kid;
  Looper.Params = {2, 0};
  Looper.Surfaces = Surfaces;
  R.Device.enqueueShred(std::move(Looper));
  return W;
}

} // namespace

// A dropped MISP signal must not hang the simulation: the parked `wait`
// is diagnosed with a per-wait timeout naming the shred and register.
TEST(FaultLabTest, MailboxDropDiagnosedByWaitTimeout) {
  Rig R;
  R.Device.setWaitTimeoutNs(5000.0);
  fault::FaultInjector Inj(/*Seed=*/1);
  Inj.setRate(fault::FaultKind::MailboxDrop, 1.0);
  R.arm(Inj);

  buildMailbox(R);
  auto Exit = R.Device.run(0.0);
  ASSERT_FALSE(static_cast<bool>(Exit));
  EXPECT_NE(Exit.message().find("timed out"), std::string::npos)
      << Exit.message();
  EXPECT_NE(Exit.message().find("wait"), std::string::npos) << Exit.message();
  EXPECT_GT(R.Device.stats().MailboxDropped, 0u);
}

// A duplicated MISP signal is benign: the consumer still reads the value
// exactly once and the run completes.
TEST(FaultLabTest, MailboxDupIsBenign) {
  Rig R;
  fault::FaultInjector Inj(/*Seed=*/1);
  Inj.setRate(fault::FaultKind::MailboxDup, 1.0);
  R.arm(Inj);

  MailboxWorkload W = buildMailbox(R);
  auto Exit = R.Device.run(0.0);
  ASSERT_TRUE(static_cast<bool>(Exit)) << Exit.message();
  EXPECT_EQ(*Exit, RunExit::QueueDrained);
  EXPECT_EQ(R.AS.load<int32_t>(W.Out + 1 * 4), 777);
  EXPECT_GT(R.Device.stats().MailboxDuplicated, 0u);
}

//===----------------------------------------------------------------------===//
// Disarmed overhead / inertness
//===----------------------------------------------------------------------===//

// Installing an injector with every rate at zero must be observationally
// identical to running without one: same stats, same memory, no sites.
TEST(FaultLabTest, DisarmedInjectorIsInert) {
  GmaRunStats BareStats;
  std::vector<uint8_t> BareMem;
  {
    Rig R;
    mem::VirtAddr C = buildVecAdd(R);
    auto Exit = R.Device.run(0.0);
    ASSERT_TRUE(static_cast<bool>(Exit)) << Exit.message();
    BareStats = R.Device.stats();
    BareMem.resize(VecN * 4);
    R.AS.read(C, BareMem.data(), VecN * 4);
  }

  Rig R;
  fault::FaultInjector Inj(/*Seed=*/99);
  ASSERT_FALSE(Inj.armed());
  R.arm(Inj);
  mem::VirtAddr C = buildVecAdd(R);
  auto Exit = R.Device.run(0.0);
  ASSERT_TRUE(static_cast<bool>(Exit)) << Exit.message();
  EXPECT_TRUE(R.Device.stats() == BareStats);
  std::vector<uint8_t> Mem(VecN * 4);
  R.AS.read(C, Mem.data(), VecN * 4);
  EXPECT_EQ(Mem, BareMem);
  EXPECT_TRUE(Inj.fired().empty());
  EXPECT_EQ(R.Device.stats().FaultsInjected, 0u);
}

// Two armed runs with the same seed replay the identical fired-site log;
// a different seed produces a different one.
TEST(FaultLabTest, FixedSeedReplaysIdentically) {
  auto firedLog = [](uint64_t Seed) {
    Rig R;
    fault::FaultInjector Inj =
        cantFail(fault::FaultInjector::parse("all:0.02", Seed));
    R.arm(Inj);
    mem::VirtAddr C = buildVecAdd(R);
    auto Exit = R.Device.run(0.0);
    EXPECT_TRUE(static_cast<bool>(Exit)) << Exit.message();
    expectVecAddCorrect(R, C);
    return Inj.fired();
  };

  std::vector<fault::FaultSite> A = firedLog(7), B = firedLog(7),
                                Other = firedLog(8);
  EXPECT_EQ(A.size(), B.size());
  for (size_t K = 0; K < std::min(A.size(), B.size()); ++K)
    EXPECT_TRUE(A[K] == B[K]) << A[K].str() << " vs " << B[K].str();
  EXPECT_FALSE(A.size() == Other.size() &&
               std::equal(A.begin(), A.end(), Other.begin()));
}

//===----------------------------------------------------------------------===//
// Host-lane differential: every Table 2 kernel, drained to the IA32 host
// lane by quarantining every EU of the one cycle device, must match the
// host reference bit for bit.
//===----------------------------------------------------------------------===//

namespace {

/// The small Table 2 sizes of kernels_test, by kernel index 0..9.
std::unique_ptr<kernels::MediaWorkload> makeSmallWorkload(int Index) {
  switch (Index) {
  case 0:
    return kernels::createLinearFilter(64, 32);
  case 1:
    return kernels::createSepiaTone(64, 32);
  case 2:
    return kernels::createFGT(64, 32);
  case 3:
    return kernels::createBicubic(64, 32, 3);
  case 4:
    return kernels::createKalman(64, 32, 3);
  case 5:
    return kernels::createFMD(64, 32, 12);
  case 6:
    return kernels::createAlphaBlend(64, 32, 3);
  case 7:
    return kernels::createBOB(64, 32, 4);
  case 8:
    return kernels::createADVDI(64, 32, 4);
  default:
    return kernels::createProcAmp(64, 32, 3);
  }
}

const char *const Table2Names[] = {"LinearFilter", "SepiaTone", "FGT",
                                   "Bicubic",      "Kalman",    "FMD",
                                   "AlphaBlend",   "BOB",       "ADVDI",
                                   "ProcAmp"};

/// Host-lane instruction counts per kernel (halt counted, running off the
/// end not). They drive the host lane's simulated cost and the cluster's
/// steal decisions, so they are pinned exactly.
const uint64_t Table2OrphanInstructions[] = {
    31664, 9088, 9136, 87960, 28824, 41784, 124080, 14368, 26656, 30360};

class HostLaneTable2Test : public ::testing::TestWithParam<int> {};

} // namespace

TEST_P(HostLaneTable2Test, DrainedWorkloadMatchesHostReference) {
  exo::ExoPlatform Platform;
  chi::Runtime RT(Platform);
  std::unique_ptr<kernels::MediaWorkload> WL = makeSmallWorkload(GetParam());
  chi::ProgramBuilder PB;
  cantFail(WL->compile(PB));
  fatbin::FatBinary Binary = PB.take();
  cantFail(RT.loadBinary(Binary));
  cantFail(WL->setup(RT));
  for (unsigned K = 0; K < Platform.config().Gma.NumEus; ++K)
    Platform.device().setEuQuarantine(K, true);

  Error E = WL->verify(RT);
  ASSERT_FALSE(static_cast<bool>(E)) << E.message();
  const exo::ProxyStats &PS = Platform.proxy().stats();
  EXPECT_GT(PS.OrphansEmulated, 0u);
  EXPECT_EQ(PS.OrphanInstructions, Table2OrphanInstructions[GetParam()]);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, HostLaneTable2Test,
                         ::testing::Range(0, 10),
                         [](const ::testing::TestParamInfo<int> &Info) {
                           return std::string(Table2Names[Info.param]);
                         });

//===----------------------------------------------------------------------===//
// Spec parsing
//===----------------------------------------------------------------------===//

TEST(FaultLabTest, SpecParsing) {
  auto I = fault::FaultInjector::parse("atr-transient:0.25,eu-hard-fail:1");
  ASSERT_TRUE(static_cast<bool>(I)) << I.message();
  EXPECT_DOUBLE_EQ(I->rate(fault::FaultKind::AtrTransient), 0.25);
  EXPECT_DOUBLE_EQ(I->rate(fault::FaultKind::EuHardFail), 1.0);
  EXPECT_DOUBLE_EQ(I->rate(fault::FaultKind::MailboxDrop), 0.0);
  EXPECT_TRUE(I->armed());

  auto All = fault::FaultInjector::parse("all:0.5");
  ASSERT_TRUE(static_cast<bool>(All)) << All.message();
  for (unsigned K = 0; K < fault::NumFaultKinds; ++K)
    EXPECT_DOUBLE_EQ(All->rate(static_cast<fault::FaultKind>(K)), 0.5);

  EXPECT_FALSE(
      static_cast<bool>(fault::FaultInjector::parse("bogus-kind:0.5")));
  EXPECT_FALSE(
      static_cast<bool>(fault::FaultInjector::parse("atr-fatal:1.5")));
  EXPECT_FALSE(static_cast<bool>(fault::FaultInjector::parse("atr-fatal")));
}

TEST(FaultLabTest, SiteIdRendering) {
  fault::FaultSite S;
  S.Kind = fault::FaultKind::AtrTransient;
  S.Key = 0x42;
  S.Occurrence = 3;
  EXPECT_EQ(S.str(), "atr-transient@0x42#3");
}
