//===- mem/PhysicalMemory.h - Simulated physical memory -------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Simulated byte-addressable physical memory with a page-frame allocator.
/// Page tables, application data, and shred work queues all live here so
/// that the ATR page-table walks in src/exo operate on real (simulated)
/// memory rather than host pointers.
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_MEM_PHYSICALMEMORY_H
#define EXOCHI_MEM_PHYSICALMEMORY_H

#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

namespace exochi {
namespace mem {

using PhysAddr = uint64_t;
using VirtAddr = uint64_t;

/// Page size shared by the IA32 and GPU page-table formats.
constexpr uint64_t PageSize = 4096;
constexpr uint64_t PageShift = 12;
constexpr uint64_t PageOffsetMask = PageSize - 1;

/// Returns the page frame / page number containing \p A.
constexpr uint64_t pageNumber(uint64_t A) { return A >> PageShift; }

/// Returns the offset of \p A within its page.
constexpr uint64_t pageOffset(uint64_t A) { return A & PageOffsetMask; }

/// Simulated physical memory.
///
/// Frames are allocated on demand by allocFrame() and are zero-filled.
/// Accessing an unallocated frame is a programmatic error (assert): every
/// physical access in the simulator must go through an allocated mapping.
class PhysicalMemory {
public:
  PhysicalMemory() : Frames(1) {}
  PhysicalMemory(const PhysicalMemory &) = delete;
  PhysicalMemory &operator=(const PhysicalMemory &) = delete;

  /// Allocates a fresh zero-filled frame and returns its frame number.
  uint64_t allocFrame() {
    Frames.push_back(std::make_unique<Page>());
    return Frames.size() - 1;
  }

  /// Returns true when \p Frame has been allocated.
  bool isAllocated(uint64_t Frame) const {
    return Frame != 0 && Frame < Frames.size();
  }

  /// Returns the number of allocated frames.
  uint64_t allocatedFrames() const { return Frames.size() - 1; }

  /// Raw pointer to the 4 KiB of data backing \p Frame.
  uint8_t *frameData(uint64_t Frame) {
    assert(isAllocated(Frame) && "access to unallocated physical frame");
    return Frames[Frame]->Bytes;
  }
  const uint8_t *frameData(uint64_t Frame) const {
    assert(isAllocated(Frame) && "access to unallocated physical frame");
    return Frames[Frame]->Bytes;
  }

  /// Copies \p Size bytes at physical address \p A into \p Out. The range
  /// may span frames.
  void read(PhysAddr A, void *Out, uint64_t Size) const {
    uint8_t *Dst = static_cast<uint8_t *>(Out);
    while (Size > 0) {
      uint64_t Ofs = pageOffset(A);
      uint64_t Chunk = std::min(Size, PageSize - Ofs);
      std::memcpy(Dst, frameData(pageNumber(A)) + Ofs, Chunk);
      A += Chunk;
      Dst += Chunk;
      Size -= Chunk;
    }
  }

  /// Copies \p Size bytes from \p In to physical address \p A.
  void write(PhysAddr A, const void *In, uint64_t Size) {
    const uint8_t *Src = static_cast<const uint8_t *>(In);
    while (Size > 0) {
      uint64_t Ofs = pageOffset(A);
      uint64_t Chunk = std::min(Size, PageSize - Ofs);
      std::memcpy(frameData(pageNumber(A)) + Ofs, Src, Chunk);
      A += Chunk;
      Src += Chunk;
      Size -= Chunk;
    }
  }

  /// Reads a 32-bit little-endian word at \p A (must not span frames).
  uint32_t read32(PhysAddr A) const {
    assert(pageOffset(A) + 4 <= PageSize && "unaligned cross-page read32");
    uint32_t V;
    std::memcpy(&V, frameData(pageNumber(A)) + pageOffset(A), 4);
    return V;
  }

  /// Writes a 32-bit little-endian word at \p A (must not span frames).
  void write32(PhysAddr A, uint32_t V) {
    assert(pageOffset(A) + 4 <= PageSize && "unaligned cross-page write32");
    std::memcpy(frameData(pageNumber(A)) + pageOffset(A), &V, 4);
  }

private:
  struct Page {
    uint8_t Bytes[PageSize] = {};
  };

  /// Indexed by frame number. Frames number densely from 1 and are never
  /// freed; slot 0 stays empty because frame 0 is reserved as "null".
  std::vector<std::unique_ptr<Page>> Frames;
};

} // namespace mem
} // namespace exochi

#endif // EXOCHI_MEM_PHYSICALMEMORY_H
