//===- mem/CacheModel.h - Set-associative cache timing model ---------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Set-associative LRU cache model: the GMA device's shared data cache,
/// deciding whether a memory op stalls to DRAM. It tracks tags only —
/// data always lives in PhysicalMemory. (The IA32 side has no cache
/// model: the NonCCShared flush cost of paper Section 5.2 is bounded by
/// the dirty bytes the run wrote and the L2 capacity, in chi::Runtime.)
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_MEM_CACHEMODEL_H
#define EXOCHI_MEM_CACHEMODEL_H

#include "support/Error.h"
#include "support/Format.h"

#include <bit>
#include <cstdint>
#include <vector>

namespace exochi {
namespace mem {

/// Outcome of a cache access.
struct CacheAccessResult {
  bool Hit = false;
  bool WritebackVictim = false; ///< A dirty line was evicted.
};

/// Tag-only set-associative cache with LRU replacement and write-back,
/// write-allocate policy.
///
/// The line size and the set count (size / (line size * ways)) must be
/// powers of two, so an address splits into tag and set with a shift and
/// a mask; construction aborts with a message otherwise. The lines of all
/// sets sit in one array, set S at [S * Ways, (S + 1) * Ways).
///
/// LRU stamps, dirty counts, and hit/miss counters make every access a
/// mutation, so the order of accesses is part of the result. The GMA
/// engine makes every access from its resolve phase, in the canonical
/// order (DESIGN.md, "Epoch schedule & determinism contract").
class CacheModel {
public:
  CacheModel(uint64_t SizeBytes, uint64_t LineBytes, unsigned Ways)
      : Ways(Ways), NumSets(Ways && LineBytes
                                ? SizeBytes / (LineBytes * Ways)
                                : 0),
        LineShift(static_cast<unsigned>(std::countr_zero(LineBytes))),
        SetMask(NumSets - 1), Lines(NumSets * Ways) {
    if (!std::has_single_bit(LineBytes) || !std::has_single_bit(NumSets))
      exochiUnreachable(
          formatString("CacheModel: %llu bytes in %llu-byte lines and %u "
                       "ways gives %llu sets; the line size and the set "
                       "count must be powers of two",
                       static_cast<unsigned long long>(SizeBytes),
                       static_cast<unsigned long long>(LineBytes), Ways,
                       static_cast<unsigned long long>(NumSets))
              .c_str());
  }

  /// Accesses the line containing \p Addr. \p IsWrite marks it dirty.
  CacheAccessResult access(uint64_t Addr, bool IsWrite) {
    uint64_t Tag = Addr >> LineShift;
    Line *Set = &Lines[(Tag & SetMask) * Ways];
    CacheAccessResult R;

    for (unsigned W = 0; W < Ways; ++W) {
      Line &L = Set[W];
      if (L.Tag == Tag) {
        R.Hit = true;
        if (IsWrite && !L.Dirty) {
          L.Dirty = true;
          ++NumDirty;
        }
        L.LruStamp = ++Clock;
        ++NumHits;
        return R;
      }
    }

    ++NumMisses;
    Line &L = Set[lruWay(Set)];
    if (L.Dirty) {
      R.WritebackVictim = true;
      --NumDirty;
    }
    L.Dirty = IsWrite;
    if (IsWrite)
      ++NumDirty;
    L.Tag = Tag;
    L.LruStamp = ++Clock;
    return R;
  }

  /// Writes back and invalidates every line; returns the number of dirty
  /// bytes written back (the cost basis for cache-flush modelling).
  uint64_t flushAll() {
    uint64_t DirtyBytes = dirtyBytes();
    for (Line &L : Lines)
      L = Line();
    NumDirty = 0;
    return DirtyBytes;
  }

  /// Current number of dirty bytes resident in the cache.
  uint64_t dirtyBytes() const { return NumDirty << LineShift; }

  uint64_t hits() const { return NumHits; }
  uint64_t misses() const { return NumMisses; }
  uint64_t lineBytes() const { return uint64_t(1) << LineShift; }
  /// log2 of lineBytes(): the line of address A is A >> lineShift().
  unsigned lineShift() const { return LineShift; }

private:
  /// Tag of an invalid line. A tag is an address shifted right by the
  /// line shift, and no simulated physical address comes near it.
  static constexpr uint64_t NoTag = ~uint64_t(0);

  struct Line {
    uint64_t Tag = NoTag;
    uint64_t LruStamp = 0;
    bool Dirty = false; ///< never set on an invalid line
  };

  /// The first invalid way of \p Set, else its least recently used one.
  unsigned lruWay(const Line *Set) const {
    unsigned Best = 0;
    for (unsigned W = 0; W < Ways; ++W) {
      if (Set[W].Tag == NoTag)
        return W;
      if (Set[W].LruStamp < Set[Best].LruStamp)
        Best = W;
    }
    return Best;
  }

  unsigned Ways;
  uint64_t NumSets;
  unsigned LineShift;
  uint64_t SetMask;
  std::vector<Line> Lines;
  uint64_t Clock = 0;
  uint64_t NumDirty = 0;
  uint64_t NumHits = 0;
  uint64_t NumMisses = 0;
};

} // namespace mem
} // namespace exochi

#endif // EXOCHI_MEM_CACHEMODEL_H
