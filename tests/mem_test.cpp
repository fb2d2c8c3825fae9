//===- tests/mem_test.cpp - Unit tests for src/mem --------------------------===//

#include "mem/AddressSpace.h"
#include "mem/CacheModel.h"
#include "mem/MemoryBus.h"
#include "mem/PageTable.h"
#include "mem/PhysicalMemory.h"
#include "mem/Tlb.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <optional>
#include <tuple>

using namespace exochi;
using namespace exochi::mem;

TEST(PhysicalMemoryTest, FramesAreZeroFilled) {
  PhysicalMemory PM;
  uint64_t F = PM.allocFrame();
  const uint8_t *D = PM.frameData(F);
  for (unsigned K = 0; K < PageSize; ++K)
    EXPECT_EQ(D[K], 0);
}

TEST(PhysicalMemoryTest, CrossFrameReadWrite) {
  PhysicalMemory PM;
  uint64_t F1 = PM.allocFrame();
  uint64_t F2 = PM.allocFrame();
  ASSERT_EQ(F2, F1 + 1); // sequential allocation gives adjacency
  PhysAddr Base = (F1 << PageShift) + PageSize - 8;
  uint8_t In[16], Out[16] = {};
  for (unsigned K = 0; K < 16; ++K)
    In[K] = static_cast<uint8_t>(K * 3 + 1);
  PM.write(Base, In, 16);
  PM.read(Base, Out, 16);
  for (unsigned K = 0; K < 16; ++K)
    EXPECT_EQ(Out[K], In[K]);
}

TEST(PhysicalMemoryTest, Word32RoundTrip) {
  PhysicalMemory PM;
  uint64_t F = PM.allocFrame();
  PhysAddr A = (F << PageShift) + 128;
  PM.write32(A, 0xdeadbeef);
  EXPECT_EQ(PM.read32(A), 0xdeadbeefu);
}

TEST(PhysicalMemoryTest, FramesNumberDenselyFromOne) {
  // Frame 0 is the "null" frame: never handed out, never allocated.
  PhysicalMemory PM;
  EXPECT_FALSE(PM.isAllocated(0));
  EXPECT_EQ(PM.allocatedFrames(), 0u);
  for (uint64_t K = 1; K <= 300; ++K) {
    EXPECT_FALSE(PM.isAllocated(K));
    EXPECT_EQ(PM.allocFrame(), K);
    EXPECT_TRUE(PM.isAllocated(K));
    EXPECT_EQ(PM.allocatedFrames(), K);
  }
  EXPECT_FALSE(PM.isAllocated(0));
  EXPECT_FALSE(PM.isAllocated(301));
  // Growing the frame table leaves earlier frames' data where it was.
  uint8_t *First = PM.frameData(1);
  First[7] = 0x5a;
  for (unsigned K = 0; K < 1000; ++K)
    (void)PM.allocFrame();
  EXPECT_EQ(PM.frameData(1), First);
  EXPECT_EQ(PM.frameData(1)[7], 0x5a);
}

TEST(Ia32PteTest, EncodeDecode) {
  uint32_t Pte = ia32::makePte(0x1234, /*Writable=*/true, /*User=*/true);
  EXPECT_TRUE(ia32::isPresent(Pte));
  EXPECT_TRUE(ia32::isWritable(Pte));
  EXPECT_TRUE(ia32::isUser(Pte));
  EXPECT_EQ(ia32::frameOf(Pte), 0x1234u);

  uint32_t Ro = ia32::makePte(7, /*Writable=*/false, /*User=*/true);
  EXPECT_FALSE(ia32::isWritable(Ro));
}

TEST(GpuPteTest, EncodeDecode) {
  GpuPte P = GpuPte::make(0xabcd, /*Writable=*/true, GpuMemType::Cached);
  EXPECT_TRUE(P.valid());
  EXPECT_TRUE(P.writable());
  EXPECT_EQ(P.frame(), 0xabcdu);
  EXPECT_EQ(P.memType(), GpuMemType::Cached);
  EXPECT_FALSE(GpuPte().valid());
}

TEST(AtrTranscodeTest, PreservesFrameAndWritability) {
  uint32_t Pte = ia32::makePte(0x777, /*Writable=*/true, /*User=*/true);
  auto G = transcodePteIa32ToGpu(Pte, GpuMemType::WriteCombining);
  ASSERT_TRUE(static_cast<bool>(G));
  EXPECT_EQ(G->frame(), 0x777u);
  EXPECT_TRUE(G->writable());
  EXPECT_EQ(G->memType(), GpuMemType::WriteCombining);

  // The two formats are genuinely different: same frame, different raw bits.
  EXPECT_NE(static_cast<uint64_t>(Pte), G->Raw);
}

TEST(AtrTranscodeTest, RejectsNotPresent) {
  auto G = transcodePteIa32ToGpu(0, GpuMemType::Cached);
  EXPECT_FALSE(static_cast<bool>(G));
}

TEST(AtrTranscodeTest, RejectsSupervisorPages) {
  uint32_t Pte = ia32::makePte(1, /*Writable=*/true, /*User=*/false);
  auto G = transcodePteIa32ToGpu(Pte, GpuMemType::Cached);
  EXPECT_FALSE(static_cast<bool>(G));
}

TEST(AddressSpaceTest, MapAndTranslate) {
  PhysicalMemory PM;
  Ia32AddressSpace AS(PM);
  AS.mapPage(0x40000000, /*Writable=*/true);
  auto T = AS.translate(0x40000123, /*IsWrite=*/false);
  ASSERT_TRUE(static_cast<bool>(T));
  EXPECT_EQ(pageOffset(T->Phys), 0x123u);
  EXPECT_TRUE(ia32::isPresent(T->Pte));
}

TEST(AddressSpaceTest, UnmappedFaults) {
  PhysicalMemory PM;
  Ia32AddressSpace AS(PM);
  PageFault F;
  auto T = AS.translate(0x50000000, /*IsWrite=*/false, &F);
  EXPECT_FALSE(static_cast<bool>(T));
  EXPECT_EQ(F.Kind, FaultKind::NotPresent);
  EXPECT_FALSE(AS.handleFault(F)); // wild access: not serviceable
}

TEST(AddressSpaceTest, DemandPagingServicesFault) {
  PhysicalMemory PM;
  Ia32AddressSpace AS(PM);
  AS.reserve(0x60000000, 1 << 20, /*Writable=*/true, "heap");

  PageFault F;
  auto T = AS.translate(0x60001234, /*IsWrite=*/true, &F);
  ASSERT_FALSE(static_cast<bool>(T));
  EXPECT_EQ(F.Kind, FaultKind::DemandPage);
  EXPECT_TRUE(AS.handleFault(F));
  EXPECT_EQ(AS.demandFaults(), 1u);

  auto T2 = AS.translate(0x60001234, /*IsWrite=*/true);
  ASSERT_TRUE(static_cast<bool>(T2));
}

TEST(AddressSpaceTest, WriteProtectionFault) {
  PhysicalMemory PM;
  Ia32AddressSpace AS(PM);
  AS.mapPage(0x40000000, /*Writable=*/false);
  PageFault F;
  auto T = AS.translate(0x40000000, /*IsWrite=*/true, &F);
  EXPECT_FALSE(static_cast<bool>(T));
  EXPECT_EQ(F.Kind, FaultKind::WriteProtection);
  EXPECT_FALSE(AS.handleFault(F));
}

TEST(AddressSpaceTest, AccessedAndDirtyBitsSet) {
  PhysicalMemory PM;
  Ia32AddressSpace AS(PM);
  AS.mapPage(0x40000000, /*Writable=*/true);
  uint32_t Before = AS.rawPte(0x40000000);
  EXPECT_FALSE(Before & ia32::PteAccessed);

  (void)AS.translate(0x40000000, /*IsWrite=*/false);
  uint32_t AfterRead = AS.rawPte(0x40000000);
  EXPECT_TRUE(AfterRead & ia32::PteAccessed);
  EXPECT_FALSE(AfterRead & ia32::PteDirty);

  (void)AS.translate(0x40000000, /*IsWrite=*/true);
  uint32_t AfterWrite = AS.rawPte(0x40000000);
  EXPECT_TRUE(AfterWrite & ia32::PteDirty);
}

// Region lookup is a binary search over Start-sorted regions, whatever
// order they were reserved in: a region's first and last byte resolve to
// it, one past its end does not, and where two regions touch, the byte
// after the first belongs to the second (with its permissions).
TEST(AddressSpaceTest, RegionLookupAfterOutOfOrderReserves) {
  PhysicalMemory PM;
  Ia32AddressSpace AS(PM);
  AS.reserve(0x30000000, 2 * PageSize, /*Writable=*/true, "c");
  AS.reserve(0x10000000, PageSize, /*Writable=*/true, "a");
  AS.reserve(0x20003000, PageSize, /*Writable=*/true, "b-rw");
  AS.reserve(0x20000000, 3 * PageSize, /*Writable=*/false, "b-ro");

  auto kindAt = [&](VirtAddr VA) {
    PageFault F;
    EXPECT_FALSE(static_cast<bool>(AS.translate(VA, /*IsWrite=*/false, &F)));
    return F.Kind;
  };
  const std::pair<VirtAddr, uint64_t> Spans[] = {
      {0x10000000, PageSize}, {0x20000000, 4 * PageSize},
      {0x30000000, 2 * PageSize}};
  for (auto [Start, Size] : Spans) {
    EXPECT_EQ(kindAt(Start - 1), FaultKind::NotPresent) << std::hex << Start;
    EXPECT_EQ(kindAt(Start), FaultKind::DemandPage) << std::hex << Start;
    EXPECT_EQ(kindAt(Start + Size - 1), FaultKind::DemandPage)
        << std::hex << Start;
    EXPECT_EQ(kindAt(Start + Size), FaultKind::NotPresent)
        << std::hex << Start;
  }

  // The last byte of read-only "b-ro" refuses a write fault; the next
  // byte is the first of writable "b-rw".
  PageFault W;
  W.Kind = FaultKind::DemandPage;
  W.IsWrite = true;
  W.Addr = 0x20002fff;
  EXPECT_FALSE(AS.handleFault(W));
  W.Addr = 0x20003000;
  EXPECT_TRUE(AS.handleFault(W));
}

TEST(AddressSpaceTest, ReadWriteThroughVirtualMapping) {
  PhysicalMemory PM;
  Ia32AddressSpace AS(PM);
  AS.reserve(0x70000000, 1 << 16, /*Writable=*/true, "buf");

  // Spans multiple pages; exercises demand paging inside write().
  std::vector<uint8_t> In(10000), Out(10000);
  Rng R(99);
  for (auto &B : In)
    B = R.nextByte();
  AS.write(0x70000ff0, In.data(), In.size());
  AS.read(0x70000ff0, Out.data(), Out.size());
  EXPECT_EQ(In, Out);
  EXPECT_GT(AS.demandFaults(), 1u);
}

TEST(AddressSpaceTest, SharedFrameSeenByBothMappings) {
  // Two virtual pages mapped to one frame see each other's writes — the
  // foundation of the shared-virtual-memory model.
  PhysicalMemory PM;
  Ia32AddressSpace AS(PM);
  uint64_t Frame = PM.allocFrame();
  AS.mapPageToFrame(0x10000000, Frame, /*Writable=*/true);
  AS.mapPageToFrame(0x20000000, Frame, /*Writable=*/true);
  uint32_t V = 0xc0ffee;
  AS.write(0x10000010, &V, 4);
  uint32_t Got = 0;
  AS.read(0x20000010, &Got, 4);
  EXPECT_EQ(Got, 0xc0ffeeu);
}

TEST(TlbTest, HitAfterInsert) {
  Tlb T(4);
  EXPECT_FALSE(T.lookup(5).has_value());
  T.insert(5, GpuPte::make(50, true, GpuMemType::Cached));
  auto E = T.lookup(5);
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(E->frame(), 50u);
  EXPECT_EQ(T.hits(), 1u);
  EXPECT_EQ(T.misses(), 1u);
}

TEST(TlbTest, LruEviction) {
  Tlb T(2);
  T.insert(1, GpuPte::make(10, true, GpuMemType::Cached));
  T.insert(2, GpuPte::make(20, true, GpuMemType::Cached));
  (void)T.lookup(1); // 2 becomes LRU
  T.insert(3, GpuPte::make(30, true, GpuMemType::Cached));
  EXPECT_TRUE(T.lookup(1).has_value());
  EXPECT_FALSE(T.lookup(2).has_value());
  EXPECT_TRUE(T.lookup(3).has_value());
  EXPECT_EQ(T.evictions(), 1u);
}

TEST(TlbTest, InvalidateAll) {
  Tlb T(8);
  for (uint64_t K = 0; K < 8; ++K)
    T.insert(K, GpuPte::make(K, true, GpuMemType::Cached));
  T.invalidateAll();
  EXPECT_EQ(T.size(), 0u);
  for (uint64_t K = 0; K < 8; ++K)
    EXPECT_FALSE(T.lookup(K).has_value());
}

TEST(TlbTest, InvalidateSingle) {
  Tlb T(8);
  T.insert(3, GpuPte::make(3, true, GpuMemType::Cached));
  T.insert(4, GpuPte::make(4, true, GpuMemType::Cached));
  T.invalidate(3);
  EXPECT_FALSE(T.lookup(3).has_value());
  EXPECT_TRUE(T.lookup(4).has_value());
}

namespace {

/// Reference LRU TLB: a list of (vpn, pte), most recently used first.
struct LruModel {
  explicit LruModel(unsigned Capacity) : Capacity(Capacity) {}

  std::list<std::pair<uint64_t, GpuPte>>::iterator find(uint64_t Vpn) {
    return std::find_if(Entries.begin(), Entries.end(),
                        [&](const auto &E) { return E.first == Vpn; });
  }
  std::optional<GpuPte> lookup(uint64_t Vpn) {
    auto It = find(Vpn);
    if (It == Entries.end()) {
      ++Misses;
      return std::nullopt;
    }
    ++Hits;
    Entries.splice(Entries.begin(), Entries, It);
    return It->second;
  }
  void insert(uint64_t Vpn, GpuPte Pte) {
    auto It = find(Vpn);
    if (It != Entries.end()) {
      It->second = Pte;
      Entries.splice(Entries.begin(), Entries, It);
      return;
    }
    if (Entries.size() >= Capacity) {
      Entries.pop_back();
      ++Evictions;
    }
    Entries.emplace_front(Vpn, Pte);
  }
  void invalidate(uint64_t Vpn) {
    auto It = find(Vpn);
    if (It != Entries.end())
      Entries.erase(It);
  }

  unsigned Capacity;
  std::list<std::pair<uint64_t, GpuPte>> Entries;
  uint64_t Hits = 0, Misses = 0, Evictions = 0;
};

/// Runs 20,000 seeded lookup/insert/invalidate/invalidateAll steps on a
/// Tlb and the list model, checking every returned PTE and every counter.
/// Page K is VPN K * \p VpnSpread, so a spread of 1024 makes the pages
/// collide in any lookup structure keyed by the low VPN bits.
void checkTlbAgainstListModel(unsigned Capacity, uint64_t Seed,
                              uint64_t VpnSpread) {
  Tlb T(Capacity);
  LruModel M(Capacity);
  Rng R(Seed);
  // Twice the capacity plus a few pages, so hits, misses and evictions
  // all happen.
  const uint64_t Pages = 2 * Capacity + 3;
  for (unsigned Step = 0; Step < 20000; ++Step) {
    uint64_t Vpn = R.nextBelow(Pages) * VpnSpread;
    uint64_t Op = R.nextBelow(100);
    SCOPED_TRACE(testing::Message() << "step " << Step << " vpn " << Vpn);
    if (Op < 55) {
      std::optional<GpuPte> Got = T.lookup(Vpn), Want = M.lookup(Vpn);
      ASSERT_EQ(Got.has_value(), Want.has_value());
      if (Want) {
        ASSERT_EQ(Got->Raw, Want->Raw);
      }
    } else if (Op < 90) {
      GpuPte Pte = GpuPte::make(R.nextBelow(1u << 20), R.nextBelow(2) == 0,
                                GpuMemType::Cached);
      T.insert(Vpn, Pte);
      M.insert(Vpn, Pte);
    } else if (Op < 99) {
      T.invalidate(Vpn);
      M.invalidate(Vpn);
    } else {
      T.invalidateAll();
      M.Entries.clear();
    }
    ASSERT_EQ(T.hits(), M.Hits);
    ASSERT_EQ(T.misses(), M.Misses);
    ASSERT_EQ(T.evictions(), M.Evictions);
    ASSERT_EQ(T.size(), M.Entries.size());
  }
}

} // namespace

class TlbModelTest
    : public ::testing::TestWithParam<std::tuple<unsigned, uint64_t>> {};

TEST_P(TlbModelTest, MatchesListLruModel) {
  auto [Capacity, Seed] = GetParam();
  checkTlbAgainstListModel(Capacity, Seed, 1);
}

// Every page lands on the same low VPN bits, and invalidate moves the
// last entry into the freed slot, so a lookup keyed by those bits keeps
// finding entries that have moved or been replaced.
TEST_P(TlbModelTest, MatchesListLruModelOnCollidingPages) {
  auto [Capacity, Seed] = GetParam();
  checkTlbAgainstListModel(Capacity, Seed, 1024);
}

INSTANTIATE_TEST_SUITE_P(Capacities, TlbModelTest,
                         ::testing::Combine(::testing::Values(1u, 2u, 256u),
                                            ::testing::Values(1u, 2u, 3u)));

TEST(MemoryBusTest, LatencyPlusBandwidth) {
  MemoryBusParams P;
  P.BandwidthBytesPerNs = 8.0;
  P.AccessLatencyNs = 100.0;
  MemoryBus Bus(P);
  // 800 bytes at 8 B/ns = 100 ns transfer + 100 ns latency.
  EXPECT_DOUBLE_EQ(Bus.request(0.0, 800), 200.0);
}

TEST(MemoryBusTest, BandwidthSerializesRequests) {
  MemoryBusParams P;
  P.BandwidthBytesPerNs = 1.0;
  P.AccessLatencyNs = 0.0;
  MemoryBus Bus(P);
  EXPECT_DOUBLE_EQ(Bus.request(0.0, 100), 100.0);
  // Issued at t=0 but the bus is busy until t=100.
  EXPECT_DOUBLE_EQ(Bus.request(0.0, 100), 200.0);
  EXPECT_EQ(Bus.totalBytes(), 200u);
}

TEST(MemoryBusTest, IdleBusStartsImmediately) {
  MemoryBus Bus;
  double T1 = Bus.request(1000.0, 64);
  EXPECT_GT(T1, 1000.0);
  EXPECT_DOUBLE_EQ(Bus.freeAt(), 1000.0 + 64 / Bus.params().BandwidthBytesPerNs);
}

TEST(CacheModelTest, HitAfterMiss) {
  CacheModel C(1024, 64, 2);
  EXPECT_FALSE(C.access(0, false).Hit);
  EXPECT_TRUE(C.access(32, false).Hit); // same line
  EXPECT_FALSE(C.access(64, false).Hit);
}

TEST(CacheModelTest, DirtyTrackingAndFlush) {
  CacheModel C(1024, 64, 2);
  C.access(0, true);
  C.access(64, true);
  C.access(128, false);
  EXPECT_EQ(C.dirtyBytes(), 128u);
  EXPECT_EQ(C.flushAll(), 128u);
  EXPECT_EQ(C.dirtyBytes(), 0u);
  EXPECT_FALSE(C.access(0, false).Hit); // flushed lines invalidated
}

TEST(CacheModelTest, EvictionWritesBackDirtyVictim) {
  CacheModel C(128, 64, 1); // 2 sets, direct mapped
  C.access(0, true);        // set 0, dirty
  auto R = C.access(128, false); // maps to set 0, evicts dirty line
  EXPECT_FALSE(R.Hit);
  EXPECT_TRUE(R.WritebackVictim);
  EXPECT_EQ(C.dirtyBytes(), 0u);
}

TEST(CacheModelTest, LruWithinSet) {
  CacheModel C(256, 64, 2); // 2 sets, 2 ways
  C.access(0, false);       // set 0
  C.access(128, false);     // set 0
  C.access(0, false);       // refresh line 0
  C.access(256, false);     // evicts 128
  EXPECT_TRUE(C.access(0, false).Hit);
  EXPECT_FALSE(C.access(128, false).Hit);
}

// An address splits into tag and set by a shift and a mask, so a line
// size or set count that is not a power of two must stop construction
// with a message, in release builds too.
TEST(CacheModelTest, RejectsGeometryThatIsNotAPowerOfTwo) {
  EXPECT_DEATH(CacheModel(192, 64, 1), "set count must be powers of two");
  EXPECT_DEATH(CacheModel(384, 96, 2), "set count must be powers of two");
  EXPECT_DEATH(CacheModel(32, 64, 1), "gives 0 sets");
}

namespace {

/// Reference cache: per set, a list of (tag, dirty), most recently used
/// first, at most Ways long.
struct ListCacheModel {
  ListCacheModel(uint64_t SizeBytes, uint64_t LineBytes, unsigned Ways)
      : LineBytes(LineBytes), Ways(Ways),
        Sets(SizeBytes / (LineBytes * Ways)) {}

  CacheAccessResult access(uint64_t Addr, bool IsWrite) {
    uint64_t Tag = Addr / LineBytes;
    auto &S = Sets[Tag % Sets.size()];
    CacheAccessResult R;
    auto It = std::find_if(S.begin(), S.end(),
                           [&](const auto &L) { return L.first == Tag; });
    if (It != S.end()) {
      R.Hit = true;
      ++Hits;
      if (IsWrite && !It->second) {
        It->second = true;
        ++Dirty;
      }
      S.splice(S.begin(), S, It);
      return R;
    }
    ++Misses;
    if (S.size() == Ways) {
      if (S.back().second) {
        R.WritebackVictim = true;
        --Dirty;
      }
      S.pop_back();
    }
    S.emplace_front(Tag, IsWrite);
    Dirty += IsWrite;
    return R;
  }

  uint64_t flushAll() {
    uint64_t Bytes = Dirty * LineBytes;
    for (auto &S : Sets)
      S.clear();
    Dirty = 0;
    return Bytes;
  }

  uint64_t LineBytes;
  unsigned Ways;
  std::vector<std::list<std::pair<uint64_t, bool>>> Sets;
  uint64_t Hits = 0, Misses = 0, Dirty = 0;
};

} // namespace

// Seeded streams of reads and writes at the GMA device cache's geometry
// (128 KiB, 64 B lines, 8 ways) and at the small geometries of the tests
// above. Half the accesses re-touch one of the last few lines and half go
// anywhere in three times the cache, with an occasional flush; every
// result and counter must match the list model.
TEST(CacheModelTest, MatchesNaiveLruModel) {
  struct Geometry {
    uint64_t Size, Line;
    unsigned Ways;
  };
  for (Geometry G : {Geometry{128 * 1024, 64, 8}, Geometry{1024, 64, 2},
                     Geometry{256, 64, 2}, Geometry{128, 64, 1}}) {
    for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
      SCOPED_TRACE(testing::Message() << G.Size << " B, " << G.Line
                                      << " B lines, " << G.Ways
                                      << " ways, seed " << Seed);
      CacheModel C(G.Size, G.Line, G.Ways);
      ListCacheModel M(G.Size, G.Line, G.Ways);
      Rng R(Seed);
      uint64_t Recent[8] = {};
      for (unsigned Step = 0; Step < 30000; ++Step) {
        uint64_t Addr = R.nextBelow(2) == 0
                            ? Recent[R.nextBelow(8)] + R.nextBelow(G.Line)
                            : R.nextBelow(3 * G.Size);
        Recent[Step % 8] = Addr / G.Line * G.Line;
        bool IsWrite = R.nextBelow(3) == 0;
        if (R.nextBelow(5000) == 0) {
          ASSERT_EQ(C.flushAll(), M.flushAll()) << "step " << Step;
          continue;
        }
        CacheAccessResult Got = C.access(Addr, IsWrite),
                          Want = M.access(Addr, IsWrite);
        ASSERT_EQ(Got.Hit, Want.Hit) << "step " << Step;
        ASSERT_EQ(Got.WritebackVictim, Want.WritebackVictim)
            << "step " << Step;
        ASSERT_EQ(C.hits(), M.Hits) << "step " << Step;
        ASSERT_EQ(C.misses(), M.Misses) << "step " << Step;
        ASSERT_EQ(C.dirtyBytes(), M.Dirty * G.Line) << "step " << Step;
      }
      EXPECT_GT(C.hits(), 0u);
      EXPECT_GT(M.Misses, M.Sets.size() * G.Ways); // evictions happened
    }
  }
}
