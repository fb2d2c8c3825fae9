//===- mem/Tlb.h - Exo-sequencer TLB (GPU PTE format) ----------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fully-associative LRU TLB holding GPU-format PTEs. Each GMA execution
/// unit owns one; misses suspend the shred and raise the ATR proxy request
/// handled by the IA32 sequencer (src/exo).
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_MEM_TLB_H
#define EXOCHI_MEM_TLB_H

#include "mem/PageTable.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

namespace exochi {
namespace mem {

/// Fully-associative, LRU-replacement translation lookaside buffer keyed
/// by virtual page number, holding GPU-format entries. Each entry is
/// stamped with the clock of its last use, so a hit only restamps it, and
/// an eviction scans for the oldest stamp. The entries sit in one dense
/// array because a cold TLB on a large working set evicts on nearly every
/// miss.
///
/// A small direct-mapped table of hints, indexed by the low VPN bits,
/// remembers the slot a VPN was last found in. A hint is only a guess:
/// lookup trusts it when the entry in that slot still holds the VPN, and
/// otherwise asks the Vpn -> slot map. Entries hold distinct VPNs, so a
/// confirmed hint names the one entry the map would.
class Tlb {
public:
  explicit Tlb(unsigned Capacity) : Capacity(Capacity) {}

  /// Looks up \p Vpn; refreshes its LRU stamp on hit.
  std::optional<GpuPte> lookup(uint64_t Vpn) {
    uint32_t &Hint = Hints[Vpn & (NumHints - 1)];
    if (Hint >= Entries.size() || Entries[Hint].Vpn != Vpn) {
      auto It = Slots.find(Vpn);
      if (It == Slots.end()) {
        ++NumMisses;
        return std::nullopt;
      }
      Hint = static_cast<uint32_t>(It->second);
    }
    ++NumHits;
    Entry &E = Entries[Hint];
    E.LastUse = ++Clock;
    return E.Pte;
  }

  /// Inserts or replaces the entry for \p Vpn, evicting the LRU entry when
  /// full.
  void insert(uint64_t Vpn, GpuPte Pte) {
    auto It = Slots.find(Vpn);
    if (It == Slots.end()) {
      size_t Slot = Entries.size();
      if (Slot < Capacity) {
        Entries.emplace_back();
      } else {
        Slot = std::min_element(Entries.begin(), Entries.end(),
                                [](const Entry &A, const Entry &B) {
                                  return A.LastUse < B.LastUse;
                                }) -
               Entries.begin();
        Slots.erase(Entries[Slot].Vpn);
        ++NumEvictions;
      }
      It = Slots.emplace(Vpn, Slot).first;
    }
    Entries[It->second] = {Vpn, Pte, ++Clock};
    Hints[Vpn & (NumHints - 1)] = static_cast<uint32_t>(It->second);
  }

  /// Drops every entry (e.g. on address-space change).
  void invalidateAll() {
    Slots.clear();
    Entries.clear();
  }

  /// Drops the entry for \p Vpn if present; the last entry moves into its
  /// slot so the array stays dense.
  void invalidate(uint64_t Vpn) {
    auto It = Slots.find(Vpn);
    if (It == Slots.end())
      return;
    size_t Slot = It->second;
    Slots.erase(It);
    if (Slot + 1 < Entries.size()) {
      Entries[Slot] = Entries.back();
      Slots[Entries[Slot].Vpn] = Slot;
    }
    Entries.pop_back();
  }

  unsigned capacity() const { return Capacity; }
  uint64_t size() const { return Entries.size(); }
  uint64_t hits() const { return NumHits; }
  uint64_t misses() const { return NumMisses; }
  uint64_t evictions() const { return NumEvictions; }

private:
  struct Entry {
    uint64_t Vpn = 0;
    GpuPte Pte;
    uint64_t LastUse = 0; ///< Clock at the last lookup hit or insert
  };

  /// Lookup hints: a power of two, so a hint is indexed by a mask.
  static constexpr unsigned NumHints = 64;

  unsigned Capacity;
  std::vector<Entry> Entries;                ///< dense, in no order
  std::unordered_map<uint64_t, size_t> Slots; ///< Vpn -> index in Entries
  std::array<uint32_t, NumHints> Hints{}; ///< low Vpn bits -> likely slot
  uint64_t Clock = 0;
  uint64_t NumHits = 0;
  uint64_t NumMisses = 0;
  uint64_t NumEvictions = 0;
};

} // namespace mem
} // namespace exochi

#endif // EXOCHI_MEM_TLB_H
