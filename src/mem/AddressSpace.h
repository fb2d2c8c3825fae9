//===- mem/AddressSpace.h - IA32 virtual address space ---------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared virtual address space of an EXOCHI process. The page
/// directory and page tables are stored inside the simulated physical
/// memory in the IA32 two-level format; the IA32 sequencer (and, through
/// ATR, the exo-sequencers) translate virtual addresses by walking them.
/// Demand paging is modelled: reserve() creates a lazily-populated region
/// whose pages are allocated on first fault, exactly the event that drives
/// the paper's ATR proxy-execution path.
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_MEM_ADDRESSSPACE_H
#define EXOCHI_MEM_ADDRESSSPACE_H

#include "mem/PageTable.h"
#include "mem/PhysicalMemory.h"
#include "support/Error.h"

#include <cstdint>
#include <string>
#include <vector>

namespace exochi {
namespace mem {

/// Why a translation attempt failed.
enum class FaultKind {
  NotPresent,      ///< No mapping and no reserved region: a real bug.
  DemandPage,      ///< Page is inside a reserved region, needs allocation.
  WriteProtection, ///< Write to a read-only mapping.
};

/// Returns a human-readable name for \p K (for fault diagnostics).
inline const char *faultKindName(FaultKind K) {
  switch (K) {
  case FaultKind::NotPresent:
    return "not-present";
  case FaultKind::DemandPage:
    return "demand-page";
  case FaultKind::WriteProtection:
    return "write-protection";
  }
  return "unknown";
}

/// Description of a translation fault, delivered to the OS/proxy layer.
struct PageFault {
  VirtAddr Addr = 0;
  bool IsWrite = false;
  FaultKind Kind = FaultKind::NotPresent;
};

/// Result of a successful translation.
struct Translation {
  PhysAddr Phys = 0;
  uint32_t Pte = 0; ///< The raw IA32 PTE (input to ATR transcoding).
};

/// An IA32-format virtual address space backed by simulated physical
/// memory.
///
/// All structures (directory, tables) live in PhysicalMemory frames so the
/// walk performed here is the same walk the ATR proxy performs on behalf
/// of an exo-sequencer.
class Ia32AddressSpace {
public:
  explicit Ia32AddressSpace(PhysicalMemory &PM);

  /// Physical frame of the page directory (the simulated CR3).
  uint64_t cr3Frame() const { return DirFrame; }

  /// Maps the single page containing \p VA to a fresh frame.
  void mapPage(VirtAddr VA, bool Writable);

  /// Maps the page containing \p VA to an existing \p Frame.
  void mapPageToFrame(VirtAddr VA, uint64_t Frame, bool Writable);

  /// Removes the mapping for the page containing \p VA (if any).
  void unmapPage(VirtAddr VA);

  /// Declares [VA, VA+Size) as a demand-paged region: pages are allocated
  /// on first access via handleFault(). \p Name is kept for diagnostics.
  void reserve(VirtAddr VA, uint64_t Size, bool Writable, std::string Name);

  /// Walks the page tables. On failure returns the fault via \p FaultOut
  /// and an error. Sets the accessed (and, for writes, dirty) PTE bits on
  /// success, as the hardware walker would.
  Expected<Translation> translate(VirtAddr VA, bool IsWrite,
                                  PageFault *FaultOut = nullptr);

  /// OS fault handler: services \p F if it is a demand-paging fault,
  /// allocating and mapping a fresh frame. Returns false for faults that
  /// cannot be serviced (true protection violations / wild accesses).
  bool handleFault(const PageFault &F);

  /// Reads the raw IA32 PTE for \p VA (0 when unmapped). Used by ATR.
  uint32_t rawPte(VirtAddr VA) const;

  /// Copies data through the virtual mapping, faulting pages in on demand
  /// (models the IA32 sequencer touching memory under the OS). Aborts on
  /// unserviceable faults.
  void read(VirtAddr VA, void *Out, uint64_t Size);
  void write(VirtAddr VA, const void *In, uint64_t Size);

  /// Typed convenience accessors over read()/write().
  template <typename T> T load(VirtAddr VA) {
    T V;
    read(VA, &V, sizeof(T));
    return V;
  }
  template <typename T> void store(VirtAddr VA, const T &V) {
    write(VA, &V, sizeof(T));
  }

  /// Number of demand-paging faults serviced so far.
  uint64_t demandFaults() const { return NumDemandFaults; }

  PhysicalMemory &physical() { return PM; }

private:
  struct Region {
    VirtAddr Start;
    uint64_t Size;
    bool Writable;
    std::string Name;
  };

  /// Returns the physical address of the PTE slot for \p VA, allocating
  /// the page table if \p Alloc. Returns 0 when absent and !Alloc.
  PhysAddr pteSlot(VirtAddr VA, bool Alloc);
  PhysAddr pteSlotConst(VirtAddr VA) const;
  /// The reserved region containing \p VA, or null (binary search).
  const Region *findRegion(VirtAddr VA) const;

  PhysicalMemory &PM;
  uint64_t DirFrame;
  /// Sorted by Start; reserve() keeps the regions disjoint.
  std::vector<Region> Regions;
  uint64_t NumDemandFaults = 0;
};

/// Bump allocator handing out virtual address ranges for named buffers in
/// the shared virtual address space. Page-granular so distinct buffers
/// never share a page (keeps flush accounting per-buffer exact).
class VirtualAllocator {
public:
  /// The top of the 32-bit IA32 address space. Past it the page walk's
  /// directory index wraps, and new pages would alias the PTEs of live
  /// buffers.
  static constexpr VirtAddr Limit = 1ull << 32;

  explicit VirtualAllocator(VirtAddr Base = 0x10000000ull) : Next(Base) {}

  /// Whether \p Size more bytes (rounded up to whole pages) fit below
  /// Limit. The allocator never reuses addresses, so callers that
  /// allocate per request must check this and report exhaustion.
  bool fits(uint64_t Size) const { return Limit - Next >= roundUp(Size); }

  /// Reserves \p Size bytes (rounded up to whole pages) and returns the
  /// start address. The range must fit().
  VirtAddr allocate(uint64_t Size) {
    assert(fits(Size) && "IA32 address space exhausted");
    VirtAddr A = Next;
    Next += roundUp(Size);
    return A;
  }

private:
  static uint64_t roundUp(uint64_t Size) {
    return (Size + PageSize - 1) / PageSize * PageSize;
  }


  VirtAddr Next;
};

} // namespace mem
} // namespace exochi

#endif // EXOCHI_MEM_ADDRESSSPACE_H
