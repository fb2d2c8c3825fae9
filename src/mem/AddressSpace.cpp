//===- mem/AddressSpace.cpp ------------------------------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//

#include "mem/AddressSpace.h"

#include "support/Format.h"

#include <algorithm>

using namespace exochi;
using namespace exochi::mem;

Ia32AddressSpace::Ia32AddressSpace(PhysicalMemory &PM)
    : PM(PM), DirFrame(PM.allocFrame()) {}

PhysAddr Ia32AddressSpace::pteSlot(VirtAddr VA, bool Alloc) {
  assert(VA < (1ull << 32) && "IA32 address space is 32-bit");
  PhysAddr DirBase = DirFrame << PageShift;
  PhysAddr PdeAddr = DirBase + ia32::dirIndex(VA) * 4;
  uint32_t Pde = PM.read32(PdeAddr);
  if (!ia32::isPresent(Pde)) {
    if (!Alloc)
      return 0;
    uint64_t TableFrame = PM.allocFrame();
    Pde = ia32::makePte(TableFrame, /*Writable=*/true, /*User=*/true);
    PM.write32(PdeAddr, Pde);
  }
  PhysAddr TableBase = ia32::frameOf(Pde) << PageShift;
  return TableBase + ia32::tableIndex(VA) * 4;
}

PhysAddr Ia32AddressSpace::pteSlotConst(VirtAddr VA) const {
  return const_cast<Ia32AddressSpace *>(this)->pteSlot(VA, /*Alloc=*/false);
}

void Ia32AddressSpace::mapPage(VirtAddr VA, bool Writable) {
  mapPageToFrame(VA, PM.allocFrame(), Writable);
}

void Ia32AddressSpace::mapPageToFrame(VirtAddr VA, uint64_t Frame,
                                      bool Writable) {
  PhysAddr Slot = pteSlot(VA, /*Alloc=*/true);
  PM.write32(Slot, ia32::makePte(Frame, Writable, /*User=*/true));
}

void Ia32AddressSpace::unmapPage(VirtAddr VA) {
  PhysAddr Slot = pteSlot(VA, /*Alloc=*/false);
  if (Slot != 0)
    PM.write32(Slot, 0);
}

/// The first region starting above \p VA in the Start-sorted \p Regions.
template <typename RegionVec>
static auto firstAbove(RegionVec &Regions, VirtAddr VA) {
  return std::upper_bound(
      Regions.begin(), Regions.end(), VA,
      [](VirtAddr A, const auto &R) { return A < R.Start; });
}

void Ia32AddressSpace::reserve(VirtAddr VA, uint64_t Size, bool Writable,
                               std::string Name) {
  assert(pageOffset(VA) == 0 && "regions must be page-aligned");
  auto It = firstAbove(Regions, VA);
  assert((It == Regions.end() || VA + Size <= It->Start) &&
         "region overlaps the next one");
  assert((It == Regions.begin() ||
          std::prev(It)->Start + std::prev(It)->Size <= VA) &&
         "region overlaps the previous one");
  // Bump-allocated buffers arrive in address order, so this appends.
  Regions.insert(It, {VA, Size, Writable, std::move(Name)});
}

const Ia32AddressSpace::Region *
Ia32AddressSpace::findRegion(VirtAddr VA) const {
  auto It = firstAbove(Regions, VA);
  if (It == Regions.begin())
    return nullptr;
  --It;
  return VA - It->Start < It->Size ? &*It : nullptr;
}

Expected<Translation> Ia32AddressSpace::translate(VirtAddr VA, bool IsWrite,
                                                  PageFault *FaultOut) {
  PageFault F;
  F.Addr = VA;
  F.IsWrite = IsWrite;

  PhysAddr Slot = pteSlot(VA, /*Alloc=*/false);
  uint32_t Pte = (Slot != 0) ? PM.read32(Slot) : 0;
  if (Slot == 0 || !ia32::isPresent(Pte)) {
    F.Kind = findRegion(VA) ? FaultKind::DemandPage : FaultKind::NotPresent;
    if (FaultOut)
      *FaultOut = F;
    return Error::make(
        formatString("page fault at 0x%llx (%s)",
                     static_cast<unsigned long long>(VA),
                     F.Kind == FaultKind::DemandPage ? "demand" : "unmapped"));
  }
  if (IsWrite && !ia32::isWritable(Pte)) {
    F.Kind = FaultKind::WriteProtection;
    if (FaultOut)
      *FaultOut = F;
    return Error::make(formatString("write-protection fault at 0x%llx",
                                    static_cast<unsigned long long>(VA)));
  }

  // Hardware walker side effects: accessed / dirty bits.
  uint32_t NewPte = Pte | ia32::PteAccessed | (IsWrite ? ia32::PteDirty : 0u);
  if (NewPte != Pte)
    PM.write32(Slot, NewPte);

  Translation T;
  T.Pte = NewPte;
  T.Phys = (ia32::frameOf(Pte) << PageShift) | pageOffset(VA);
  return T;
}

bool Ia32AddressSpace::handleFault(const PageFault &F) {
  if (F.Kind != FaultKind::DemandPage)
    return false;
  const Region *R = findRegion(F.Addr);
  if (!R)
    return false;
  if (F.IsWrite && !R->Writable)
    return false;
  mapPage(F.Addr & ~PageOffsetMask, R->Writable);
  ++NumDemandFaults;
  return true;
}

uint32_t Ia32AddressSpace::rawPte(VirtAddr VA) const {
  PhysAddr Slot = pteSlotConst(VA);
  return Slot != 0 ? PM.read32(Slot) : 0;
}

void Ia32AddressSpace::read(VirtAddr VA, void *Out, uint64_t Size) {
  uint8_t *Dst = static_cast<uint8_t *>(Out);
  while (Size > 0) {
    uint64_t Chunk = std::min(Size, PageSize - pageOffset(VA));
    PageFault F;
    auto T = translate(VA, /*IsWrite=*/false, &F);
    if (!T) {
      if (!handleFault(F))
        exochiUnreachable("unserviceable fault in Ia32AddressSpace::read");
      T = translate(VA, /*IsWrite=*/false);
      assert(T && "translation must succeed after fault service");
    }
    PM.read(T->Phys, Dst, Chunk);
    VA += Chunk;
    Dst += Chunk;
    Size -= Chunk;
  }
}

void Ia32AddressSpace::write(VirtAddr VA, const void *In, uint64_t Size) {
  const uint8_t *Src = static_cast<const uint8_t *>(In);
  while (Size > 0) {
    uint64_t Chunk = std::min(Size, PageSize - pageOffset(VA));
    PageFault F;
    auto T = translate(VA, /*IsWrite=*/true, &F);
    if (!T) {
      if (!handleFault(F))
        exochiUnreachable("unserviceable fault in Ia32AddressSpace::write");
      T = translate(VA, /*IsWrite=*/true);
      assert(T && "translation must succeed after fault service");
    }
    PM.write(T->Phys, Src, Chunk);
    VA += Chunk;
    Src += Chunk;
    Size -= Chunk;
  }
}
