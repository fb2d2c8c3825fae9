//===- tests/parallel_sim_test.cpp - Epoch-schedule goldens ---------------===//
//
// Pins the exact output of the GMA epoch schedule (DESIGN.md §9):
// refill, advance, then resolve in (issue time, EU, seq) order. Every
// run here is deterministic, so each observable — run statistics to the
// last bit of every double, surface memory, shred spans, proxy calls —
// is compared against a golden recorded from the engine. A change to
// any timing constant, arbitration order or stat merge shows up as a
// failure here rather than as silent drift in the paper's figures.
//
// Two sets of goldens:
//  - three stress workloads that exercise every category of buffered
//    interaction the resolve phase arbitrates (ATR misses under cache,
//    bus and TLB contention; CEH exceptions; xmit/wait, spawn and the
//    shared sampler);
//  - all ten Table 2 kernels at scale 0.1 on the cycle backend.
//
// To re-record after a deliberate timing-model change, run the test and
// copy the "actual" values it prints into the tables below.
//
//===----------------------------------------------------------------------===//

#include "gma/GmaDevice.h"

#include "chi/ProgramBuilder.h"
#include "chi/Runtime.h"
#include "exo/ExoPlatform.h"
#include "kernels/Workloads.h"
#include "mem/AddressSpace.h"
#include "xasm/Assembler.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

using namespace exochi;
using namespace exochi::gma;

namespace {

/// ATR/CEH proxy mirroring the one in gma_test.cpp: demand-pages through
/// an Ia32AddressSpace and emulates f64 adds.
class TestProxy : public ProxySignalHandler {
public:
  explicit TestProxy(mem::Ia32AddressSpace &AS) : AS(AS) {}

  Expected<mem::TimeNs> onTranslationMiss(mem::VirtAddr Va, bool IsWrite,
                                          mem::GpuMemType MemType,
                                          mem::Tlb &Tlb) override {
    ++Misses;
    mem::PageFault F;
    auto T = AS.translate(Va, IsWrite, &F);
    if (!T) {
      if (!AS.handleFault(F))
        return Error::make("unserviceable fault");
      T = AS.translate(Va, IsWrite);
      if (!T)
        return T.takeError();
    }
    auto Pte = mem::transcodePteIa32ToGpu(T->Pte, MemType);
    if (!Pte)
      return Pte.takeError();
    Tlb.insert(mem::pageNumber(Va), *Pte);
    return 500.0;
  }

  Expected<mem::TimeNs> onException(const ExceptionInfo &Info,
                                    ShredRegView &Regs) override {
    ++Exceptions;
    if (Info.Kind != ExceptionKind::UnsupportedType ||
        Info.Instr.Op != isa::Opcode::Add ||
        Info.Instr.Ty != isa::ElemType::F64)
      return Error::make("test proxy only emulates f64 add");
    const isa::Instruction &I = Info.Instr;
    for (unsigned L = 0; L < I.Width; ++L) {
      auto ReadF64 = [&](const isa::Operand &O) {
        unsigned R = O.Reg0 + 2 * L;
        uint64_t Bits = Regs.readReg(R) |
                        (static_cast<uint64_t>(Regs.readReg(R + 1)) << 32);
        double D;
        std::memcpy(&D, &Bits, 8);
        return D;
      };
      double Result = ReadF64(I.Src0) + ReadF64(I.Src1);
      uint64_t Bits;
      std::memcpy(&Bits, &Result, 8);
      unsigned R = I.Dst.Reg0 + 2 * L;
      Regs.writeReg(R, static_cast<uint32_t>(Bits));
      Regs.writeReg(R + 1, static_cast<uint32_t>(Bits >> 32));
    }
    return 2000.0;
  }

  mem::Ia32AddressSpace &AS;
  unsigned Misses = 0;
  unsigned Exceptions = 0;
};

/// Fresh platform per run: nothing carries over between runs.
struct Rig {
  explicit Rig(GmaConfig Config = GmaConfig())
      : AS(PM), Device(Config, PM, Bus), Proxy(AS) {
    Device.setProxyHandler(&Proxy);
    Device.setTracer(&Tracer);
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

  mem::PhysicalMemory PM;
  mem::MemoryBus Bus;
  mem::Ia32AddressSpace AS;
  mem::VirtualAllocator Allocator;
  GmaDevice Device;
  TestProxy Proxy;
  TraceRecorder Tracer;
};

/// Every observable of a run, reduced to a printable golden: all run
/// stats (doubles in %a, so the comparison is bit-exact), an FNV-1a hash
/// of the surface memory and of every span, the span count, the last
/// span, and the proxy's miss and exception counts.
struct Golden {
  std::string Stats;
  uint64_t MemoryHash = 0;
  size_t SpanCount = 0;
  uint64_t SpanHash = 0;
  std::string LastSpan;
  unsigned ProxyMisses = 0;
  unsigned ProxyExceptions = 0;
};

uint64_t fnv1a(uint64_t H, const void *Data, size_t Bytes) {
  const auto *P = static_cast<const uint8_t *>(Data);
  for (size_t K = 0; K < Bytes; ++K)
    H = (H ^ P[K]) * 0x100000001b3ull;
  return H;
}

constexpr uint64_t FnvBasis = 0xcbf29ce484222325ull;

std::string statsLine(const GmaRunStats &S) {
  char Buf[640];
  std::snprintf(
      Buf, sizeof(Buf),
      "backend=%d start=%a finish=%a shreds=%llu instrs=%llu memops=%llu "
      "ld=%llu st=%llu tlb=%llu proxy=%llu exc=%llu hits=%llu misses=%llu "
      "sampler=%llu issue=%a stall=%a faults=%llu offlined=%llu "
      "redispatched=%llu host=%llu mbox_drop=%llu mbox_dup=%llu "
      "preempted=%llu",
      static_cast<int>(S.Backend), S.StartNs, S.FinishNs,
      (unsigned long long)S.ShredsExecuted,
      (unsigned long long)S.Instructions, (unsigned long long)S.MemoryOps,
      (unsigned long long)S.BytesLoaded, (unsigned long long)S.BytesStored,
      (unsigned long long)S.TlbMisses, (unsigned long long)S.ProxyCalls,
      (unsigned long long)S.ExceptionsHandled,
      (unsigned long long)S.CacheHits, (unsigned long long)S.CacheMisses,
      (unsigned long long)S.SamplerOps, S.IssueCycles, S.ProxyStallNs,
      (unsigned long long)S.FaultsInjected,
      (unsigned long long)S.EusOfflined,
      (unsigned long long)S.ShredsRedispatched,
      (unsigned long long)S.HostRedispatches,
      (unsigned long long)S.MailboxDropped,
      (unsigned long long)S.MailboxDuplicated,
      (unsigned long long)S.ShredsPreempted);
  std::string Out = Buf;
  for (unsigned Eu : S.OfflinedEus)
    Out += " offlined_eu=" + std::to_string(Eu);
  return Out;
}

std::string spanLine(const ShredSpan &S) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf), "eu=%u slot=%u shred=%u %s [%a, %a]", S.Eu,
                S.Slot, S.ShredId, S.Kernel.c_str(), S.StartNs, S.EndNs);
  return Buf;
}

Golden capture(Rig &R, mem::VirtAddr Base, uint64_t Bytes) {
  Golden G;
  G.Stats = statsLine(R.Device.stats());
  std::vector<uint8_t> Memory(Bytes);
  R.AS.read(Base, Memory.data(), Bytes);
  G.MemoryHash = fnv1a(FnvBasis, Memory.data(), Memory.size());
  const std::vector<ShredSpan> &Spans = R.Tracer.spans();
  G.SpanCount = Spans.size();
  G.SpanHash = FnvBasis;
  for (const ShredSpan &S : Spans) {
    std::string L = spanLine(S);
    G.SpanHash = fnv1a(G.SpanHash, L.data(), L.size());
  }
  if (!Spans.empty())
    G.LastSpan = spanLine(Spans.back());
  G.ProxyMisses = R.Proxy.Misses;
  G.ProxyExceptions = R.Proxy.Exceptions;
  return G;
}

void expectGolden(const Golden &Actual, const Golden &Pinned) {
  char Literal[1024];
  std::snprintf(Literal, sizeof(Literal),
                "actual: {\"%s\",\n 0x%llxull, %zu, 0x%llxull,\n \"%s\", "
                "%u, %u}",
                Actual.Stats.c_str(), (unsigned long long)Actual.MemoryHash,
                Actual.SpanCount, (unsigned long long)Actual.SpanHash,
                Actual.LastSpan.c_str(), Actual.ProxyMisses,
                Actual.ProxyExceptions);
  SCOPED_TRACE(Literal);
  EXPECT_EQ(Actual.Stats, Pinned.Stats);
  EXPECT_EQ(Actual.MemoryHash, Pinned.MemoryHash);
  EXPECT_EQ(Actual.SpanCount, Pinned.SpanCount);
  EXPECT_EQ(Actual.SpanHash, Pinned.SpanHash);
  EXPECT_EQ(Actual.LastSpan, Pinned.LastSpan);
  EXPECT_EQ(Actual.ProxyMisses, Pinned.ProxyMisses);
  EXPECT_EQ(Actual.ProxyExceptions, Pinned.ProxyExceptions);
}

} // namespace

//===----------------------------------------------------------------------===//
// Workload 1: ATR-miss-heavy vector add
//===----------------------------------------------------------------------===//

// Many shreds streaming over multiple pages: every page's first touch
// raises an ATR proxy call, and the shared cache, bus, and TLB are under
// constant contention — the arbitration-order stress case.
TEST(ParallelSimTest, VectorAddWithAtrMissesIsBitIdentical) {
  constexpr unsigned N = 4096; // 16 KiB per surface = 4 pages each
  Rig R;
  mem::VirtAddr A = R.alloc(N * 4), B = R.alloc(N * 4), C = R.alloc(N * 4);
  for (unsigned K = 0; K < N; ++K) {
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
  Surfaces->push_back({A, N, 1, isa::ElemType::I32, SurfaceMode::Input,
                       mem::GpuMemType::Cached});
  Surfaces->push_back({B, N, 1, isa::ElemType::I32, SurfaceMode::Input,
                       mem::GpuMemType::Cached});
  Surfaces->push_back({C, N, 1, isa::ElemType::I32, SurfaceMode::Output,
                       mem::GpuMemType::Cached});
  for (unsigned I = 0; I < N / 8; ++I) {
    ShredDescriptor D;
    D.KernelId = Kid;
    D.Params = {static_cast<int32_t>(I)};
    D.Surfaces = Surfaces;
    R.Device.enqueueShred(std::move(D));
  }

  auto Exit = R.Device.run(0.0);
  ASSERT_TRUE(static_cast<bool>(Exit)) << Exit.message();
  EXPECT_EQ(*Exit, RunExit::QueueDrained);
  EXPECT_GT(R.Device.stats().TlbMisses, 0u);
  for (unsigned K = 0; K < N; ++K)
    ASSERT_EQ(R.AS.load<int32_t>(C + K * 4),
              static_cast<int32_t>(K * 3 + 7000 - K))
        << "element " << K;

  const Golden Pinned = {
      "backend=0 start=0x0p+0 finish=0x1.37e590b21642dp+13 shreds=512 "
      "instrs=3072 memops=1536 ld=32768 st=16384 tlb=12 proxy=12 exc=0 "
      "hits=768 misses=512 sampler=0 issue=0x1.1p+12 stall=0x1.77p+12 "
      "faults=0 offlined=0 redispatched=0 host=0 mbox_drop=0 mbox_dup=0 "
      "preempted=0",
      0xbeeb4a904f7887e5ull, 512, 0xead9715e8a1c5a2bull,
      "eu=0 slot=1 shred=497 vecadd "
      "[0x1.2d779488a2bc1p+13, 0x1.37e590b21642dp+13]",
      12, 0};
  expectGolden(capture(R, C, N * 4), Pinned);
}

//===----------------------------------------------------------------------===//
// Workload 2: CEH exceptions (f64 emulation through the proxy)
//===----------------------------------------------------------------------===//

// Every shred raises an unsupported-type exception that the proxy
// emulates; exception resolution order feeds back into timing through
// the proxy stall, so a change in resolve order would change stats.
TEST(ParallelSimTest, CehExceptionStormIsBitIdentical) {
  constexpr unsigned Shreds = 24;
  Rig R;
  // Per shred: 4 f64 slots (in a, in b, out, pad).
  mem::VirtAddr Buf = R.alloc(Shreds * 4 * 8);
  for (unsigned S = 0; S < Shreds; ++S) {
    double A = 1.25 * (S + 1), B = 2.5 + S;
    R.AS.write(Buf + (S * 4 + 0) * 8, &A, 8);
    R.AS.write(Buf + (S * 4 + 1) * 8, &B, 8);
  }

  xasm::SymbolBindings Binds;
  Binds.bindScalar("base", 0);
  Binds.bindSurface("buf", 0);
  uint32_t Kid = R.loadKernel(R"(
    add.1.dw vr30 = base, 0
    add.1.dw vr31 = base, 1
    add.1.dw vr32 = base, 2
    ld.1.df [vr0..vr1] = (buf, vr30, 0)
    ld.1.df [vr2..vr3] = (buf, vr31, 0)
    add.1.df [vr4..vr5] = [vr0..vr1], [vr2..vr3]
    st.1.df (buf, vr32, 0) = [vr4..vr5]
    halt
  )",
                              Binds, "f64add");

  auto Surfaces = std::make_shared<SurfaceTable>();
  Surfaces->push_back({Buf, Shreds * 4, 1, isa::ElemType::F64,
                       SurfaceMode::InputOutput, mem::GpuMemType::Cached});
  for (unsigned S = 0; S < Shreds; ++S) {
    ShredDescriptor D;
    D.KernelId = Kid;
    D.Params = {static_cast<int32_t>(S * 4)};
    D.Surfaces = Surfaces;
    R.Device.enqueueShred(std::move(D));
  }

  auto Exit = R.Device.run(0.0);
  ASSERT_TRUE(static_cast<bool>(Exit)) << Exit.message();
  EXPECT_EQ(R.Device.stats().ExceptionsHandled, Shreds);
  for (unsigned S = 0; S < Shreds; ++S) {
    double Result = 0;
    R.AS.read(Buf + (S * 4 + 2) * 8, &Result, 8);
    ASSERT_DOUBLE_EQ(Result, 1.25 * (S + 1) + 2.5 + S) << "shred " << S;
  }

  const Golden Pinned = {
      "backend=0 start=0x0p+0 finish=0x1.5a3fb64f1081p+11 shreds=24 "
      "instrs=192 memops=72 ld=384 st=192 tlb=1 proxy=25 exc=24 hits=60 "
      "misses=12 sampler=0 issue=0x1.08p+8 stall=0x1.f4p+8 faults=0 "
      "offlined=0 redispatched=0 host=0 mbox_drop=0 mbox_dup=0 preempted=0",
      0xd5526df28b8b6235ull, 24, 0x291a4e3ac67b96ebull,
      "eu=5 slot=0 shred=21 f64add "
      "[0x0p+0, 0x1.5a3fb64f1081p+11]",
      1, 24};
  expectGolden(capture(R, Buf, Shreds * 4 * 8), Pinned);
}

//===----------------------------------------------------------------------===//
// Workload 3: xmit/wait pairs + spawn + shared sampler
//===----------------------------------------------------------------------===//

// Cross-shred synchronization, dynamic shred creation, and the shared
// fixed-function sampler in one run: every category of buffered
// interaction the resolve phase arbitrates.
TEST(ParallelSimTest, SyncSpawnSamplerMixIsBitIdentical) {
  constexpr unsigned Pairs = 8;
  Rig R;
  // tex: 2x2 RGBA8 gradient; out: one i32 per pair + one per child.
  mem::VirtAddr Tex = R.alloc(4 * 4);
  R.AS.store<uint32_t>(Tex + 0, 0xff000000u);
  R.AS.store<uint32_t>(Tex + 4, 0xff0000c8u);
  R.AS.store<uint32_t>(Tex + 8, 0xff00c800u);
  R.AS.store<uint32_t>(Tex + 12, 0xff00c8c8u);
  mem::VirtAddr Out = R.alloc(4 * Pairs * 4);

  // role 0 (producer, slot 2P+1): sample, store the red channel, send
  // 777 to its consumer, spawn a child tagged 1000+slot. role 1
  // (consumer, slot 2P): wait for the value and store it. Spawned
  // children arrive with a single param >= 1000: they sample and store
  // at slot (tag - 1000) + 2*Pairs.
  xasm::SymbolBindings Binds;
  Binds.bindScalar("role", 0);
  Binds.bindScalar("peer", 1);
  Binds.bindScalar("slot", 2);
  Binds.bindSurface("tex", 0);
  Binds.bindSurface("out", 1);
  uint32_t Kid = R.loadKernel(R"(
    cmp.ge.1.dw p3 = role, 1000
    br p3, child
    cmp.eq.1.dw p1 = role, 1
    br p1, consumer
    ; producer
    mov.1.f vr4 = 0.5
    mov.1.f vr5 = 0.5
    sample.4.f [vr8..vr11] = (tex, vr4, vr5)
    cvt.1.dw.f vr16 = vr8
    xmit peer, vr20 = 777
    add.1.dw vr30 = slot, 1000
    spawn vr30
    st.1.dw (out, slot, 0) = vr16
    halt
  consumer:
    wait vr20
    st.1.dw (out, slot, 0) = vr20
    halt
  child:
    mov.1.f vr4 = 0.5
    mov.1.f vr5 = 0.5
    sample.4.f [vr8..vr11] = (tex, vr4, vr5)
    cvt.1.dw.f vr16 = vr8
    sub.1.dw vr2 = role, 1000
    add.1.dw vr2 = vr2, 16
    st.1.dw (out, vr2, 0) = vr16
    halt
  )",
                              Binds, "mix");

  auto Surfaces = std::make_shared<SurfaceTable>();
  Surfaces->push_back({Tex, 2, 2, isa::ElemType::I32, SurfaceMode::Input,
                       mem::GpuMemType::Cached});
  Surfaces->push_back({Out, 4 * Pairs, 1, isa::ElemType::I32,
                       SurfaceMode::Output, mem::GpuMemType::Cached});

  for (unsigned P = 0; P < Pairs; ++P) {
    ShredDescriptor Consumer;
    Consumer.KernelId = Kid;
    Consumer.Params = {1, 0, static_cast<int32_t>(2 * P)};
    Consumer.Surfaces = Surfaces;
    uint32_t ConsumerId = R.Device.enqueueShred(std::move(Consumer));

    ShredDescriptor Producer;
    Producer.KernelId = Kid;
    Producer.Params = {0, static_cast<int32_t>(ConsumerId),
                       static_cast<int32_t>(2 * P + 1)};
    Producer.Surfaces = Surfaces;
    R.Device.enqueueShred(std::move(Producer));
  }

  auto Exit = R.Device.run(0.0);
  ASSERT_TRUE(static_cast<bool>(Exit)) << Exit.message();
  EXPECT_EQ(*Exit, RunExit::QueueDrained);
  // Pairs producers + Pairs consumers + Pairs spawned children.
  EXPECT_EQ(R.Device.stats().ShredsExecuted, 3u * Pairs);
  EXPECT_EQ(R.Device.stats().SamplerOps, 2u * Pairs);
  for (unsigned P = 0; P < Pairs; ++P)
    ASSERT_EQ(R.AS.load<int32_t>(Out + (2 * P) * 4), 777) << "pair " << P;

  const Golden Pinned = {
      "backend=0 start=0x0p+0 finish=0x1.3f1f16a509986p+10 shreds=24 "
      "instrs=240 memops=56 ld=256 st=96 tlb=2 proxy=2 exc=0 hits=53 "
      "misses=1 sampler=16 issue=0x1.08p+8 stall=0x1.f4p+9 faults=0 "
      "offlined=0 redispatched=0 host=0 mbox_drop=0 mbox_dup=0 preempted=0",
      0xe62d6b31827807a5ull, 24, 0xd65f88e16c85c2c9ull,
      "eu=0 slot=1 shred=2 mix "
      "[0x0p+0, 0x1.3f1f16a509986p+10]",
      2, 0};
  expectGolden(capture(R, Out, 4 * Pairs * 4), Pinned);
}

//===----------------------------------------------------------------------===//
// The ten Table 2 kernels at scale 0.1 on the cycle backend
//===----------------------------------------------------------------------===//

namespace {

/// The simulated time and the counters the paper's figures are built
/// from, for one full-workload dispatch.
struct Table2Golden {
  const char *Name;
  double FinishNs;
  uint64_t Instructions;
  double IssueCycles;
  uint64_t CacheMisses;
  uint64_t TlbMisses;
  uint64_t ProxyCalls;
};

const Table2Golden Table2Goldens[] = {
    {"LinearFilter", 0x1.460bf22ed304bp+13, 47488, 0x1.438p+15, 266, 9, 9},
    {"SepiaTone", 0x1.6f88719b713a4p+12, 13632, 0x1.ca4p+13, 252, 9, 9},
    {"FGT", 0x1.3d806e8967092p+14, 27232, 0x1.7e7p+14, 451, 17, 17},
    {"Bicubic", 0x1.5dd3b4c60b40ap+16, 263880, 0x1.00fbcp+18, 505, 34, 34},
    {"Kalman", 0x1.72226617cbb6dp+14, 43440, 0x1.2a14p+15, 772, 29, 29},
    {"FMD", 0x1.2db18bb4c6067p+15, 78150, 0x1.2fdep+16, 3612, 63, 63},
    {"AlphaBlend", 0x1.3141c794887e2p+17, 372240, 0x1.8414cp+18, 1586, 53,
     53},
    {"BOB", 0x1.63d9bd37a6ea8p+14, 32328, 0x1.0d5ep+15, 782, 51, 51},
    {"ADVDI", 0x1.0fbce4bfe75ap+15, 59976, 0x1.b85ep+15, 1407, 51, 51},
    {"ProcAmp", 0x1.0ce8c60b8371p+15, 91080, 0x1.482fp+16, 1447, 51, 51},
};

std::string table2Line(const char *Name, const GmaRunStats &S) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf), "{\"%s\", %a, %llu, %a, %llu, %llu, %llu},",
                Name, S.FinishNs, (unsigned long long)S.Instructions,
                S.IssueCycles, (unsigned long long)S.CacheMisses,
                (unsigned long long)S.TlbMisses,
                (unsigned long long)S.ProxyCalls);
  return Buf;
}

} // namespace

class ScheduleTable2Test : public ::testing::TestWithParam<int> {};

TEST_P(ScheduleTable2Test, CycleBackendMatchesPinnedGolden) {
  const Table2Golden &G = Table2Goldens[GetParam()];
  auto Workloads = kernels::createTable2Workloads(0.1);
  kernels::MediaWorkload &WL = *Workloads[GetParam()];
  exo::ExoPlatform Platform;
  chi::Runtime RT(Platform);
  chi::ProgramBuilder PB;
  cantFail(WL.compile(PB));
  fatbin::FatBinary Binary = PB.take();
  cantFail(RT.loadBinary(Binary));
  cantFail(WL.setup(RT));
  RT.setFeature(chi::Feature::Backend, 0);

  auto H = WL.dispatchDevice(RT, 0, WL.totalStrips());
  ASSERT_TRUE(static_cast<bool>(H)) << H.message();
  const GmaRunStats &S = RT.regionStats(*H)->Device;
  ASSERT_EQ(S.Backend, BackendKind::Cycle);
  cantFail(WL.hostCompute(0, WL.totalStrips()));
  Error E = WL.compareSharedToReference(RT);
  EXPECT_FALSE(static_cast<bool>(E)) << E.message();

  SCOPED_TRACE("actual: " + table2Line(G.Name, S));
  EXPECT_EQ(S.FinishNs, G.FinishNs);
  EXPECT_EQ(S.Instructions, G.Instructions);
  EXPECT_EQ(S.IssueCycles, G.IssueCycles);
  EXPECT_EQ(S.CacheMisses, G.CacheMisses);
  EXPECT_EQ(S.TlbMisses, G.TlbMisses);
  EXPECT_EQ(S.ProxyCalls, G.ProxyCalls);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, ScheduleTable2Test,
                         ::testing::Range(0, 10),
                         [](const ::testing::TestParamInfo<int> &Info) {
                           return std::string(Table2Goldens[Info.param].Name);
                         });
