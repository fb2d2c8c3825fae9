//===- mem/CacheModel.h - Set-associative cache timing model ---------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Set-associative LRU cache model used two ways: (1) as the GMA device's
/// shared data cache deciding whether a memory op stalls to DRAM, and
/// (2) as the IA32 L2 model whose dirty-line population determines cache
/// flush cost in the NonCCShared memory configuration (paper Section 5.2).
/// It tracks tags only — data always lives in PhysicalMemory.
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_MEM_CACHEMODEL_H
#define EXOCHI_MEM_CACHEMODEL_H

#include <cassert>
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
/// LRU stamps, dirty counts, and hit/miss counters make every access a
/// mutation, so the order of accesses is part of the result. The GMA
/// engine makes every access from its resolve phase, in the canonical
/// order (DESIGN.md, "Epoch schedule & determinism contract").
class CacheModel {
public:
  CacheModel(uint64_t SizeBytes, uint64_t LineBytes, unsigned Ways)
      : LineBytes(LineBytes), Ways(Ways),
        NumSets(SizeBytes / (LineBytes * Ways)), Sets(NumSets) {
    assert(NumSets > 0 && "cache too small for geometry");
    for (Set &S : Sets)
      S.Lines.resize(Ways);
  }

  /// Accesses the line containing \p Addr. \p IsWrite marks it dirty.
  CacheAccessResult access(uint64_t Addr, bool IsWrite) {
    uint64_t Tag = Addr / LineBytes;
    Set &S = Sets[Tag % NumSets];
    CacheAccessResult R;

    for (unsigned W = 0; W < Ways; ++W) {
      Line &L = S.Lines[W];
      if (L.Valid && L.Tag == Tag) {
        R.Hit = true;
        if (IsWrite && !L.Dirty) {
          L.Dirty = true;
          ++NumDirty;
        }
        touch(S, W);
        ++NumHits;
        return R;
      }
    }

    ++NumMisses;
    unsigned Victim = lruWay(S);
    Line &L = S.Lines[Victim];
    if (L.Valid && L.Dirty) {
      R.WritebackVictim = true;
      --NumDirty;
    }
    L.Valid = true;
    L.Dirty = IsWrite;
    if (IsWrite)
      ++NumDirty;
    L.Tag = Tag;
    touch(S, Victim);
    return R;
  }

  /// Writes back and invalidates every line; returns the number of dirty
  /// bytes written back (the cost basis for cache-flush modelling).
  uint64_t flushAll() {
    uint64_t DirtyBytes = NumDirty * LineBytes;
    for (Set &S : Sets)
      for (Line &L : S.Lines)
        L = Line();
    NumDirty = 0;
    return DirtyBytes;
  }

  /// Current number of dirty bytes resident in the cache.
  uint64_t dirtyBytes() const { return NumDirty * LineBytes; }

  uint64_t hits() const { return NumHits; }
  uint64_t misses() const { return NumMisses; }
  uint64_t lineBytes() const { return LineBytes; }

private:
  struct Line {
    bool Valid = false;
    bool Dirty = false;
    uint64_t Tag = 0;
    uint64_t LruStamp = 0;
  };
  struct Set {
    std::vector<Line> Lines;
  };

  void touch(Set &S, unsigned Way) { S.Lines[Way].LruStamp = ++Clock; }

  unsigned lruWay(const Set &S) const {
    unsigned Best = 0;
    for (unsigned W = 0; W < Ways; ++W) {
      const Line &L = S.Lines[W];
      if (!L.Valid)
        return W;
      if (L.LruStamp < S.Lines[Best].LruStamp)
        Best = W;
    }
    return Best;
  }

  uint64_t LineBytes;
  unsigned Ways;
  uint64_t NumSets;
  std::vector<Set> Sets;
  uint64_t Clock = 0;
  uint64_t NumDirty = 0;
  uint64_t NumHits = 0;
  uint64_t NumMisses = 0;
};

} // namespace mem
} // namespace exochi

#endif // EXOCHI_MEM_CACHEMODEL_H
