//===- isa/Decoded.cpp ----------------------------------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//

#include "isa/Decoded.h"
#include "isa/OpTable.h"

#include <cstring>
#include <mutex>
#include <unordered_map>

using namespace exochi;
using namespace exochi::isa;

DecodedOperand isa::decodeOperand(const Operand &O, ElemType ElemTy) {
  DecodedOperand D;
  switch (O.Kind) {
  case OperandKind::Reg:
  case OperandKind::RegRange: {
    D.IsImm = false;
    D.Reg0 = O.Reg0;
    unsigned PerLane = ElemTy == ElemType::F64 ? 2 : 1;
    // Scalar broadcast: an operand naming no more registers than one
    // lane consumes feeds every lane from Reg0.
    D.Stride = O.regCount() <= PerLane ? 0 : static_cast<uint8_t>(PerLane);
    break;
  }
  case OperandKind::Pred:
    // Predicate index; read through the predicate file, never strided.
    D.IsImm = false;
    D.Reg0 = O.Reg0;
    D.Stride = 0;
    break;
  case OperandKind::Imm:
  case OperandKind::Surface:
  case OperandKind::Label:
    D.IsImm = true;
    D.Imm = O.Imm;
    break;
  case OperandKind::None:
    // A missing source reads as 0 in both interpreters.
    D.IsImm = true;
    D.Imm = 0;
    break;
  }
  return D;
}

double isa::decodedIssueCycles(const Instruction &I) {
  const OpInfo &Row = opInfo(I.Op);
  return Row.WidthType && I.Width > 8 ? 2 * Row.IssueCycles
                                      : Row.IssueCycles;
}

namespace {

DecodedInsn decodeInsn(const Instruction &I) {
  DecodedInsn D;
  // Scalar index operands are one register, a broadcast in any type.
  const ElemType SrcTy = immTypeOf(I);
  D.Dst = decodeOperand(I.Dst, I.Ty);
  D.Src0 = decodeOperand(I.Src0, SrcTy);
  D.Src1 = decodeOperand(I.Src1, SrcTy);
  D.Src2 = decodeOperand(I.Src2, SrcTy);
  D.IssueCycles = decodedIssueCycles(I);
  return D;
}

/// FNV-1a over the semantic fields of the instruction stream.
uint64_t hashCode(const std::vector<Instruction> &Code) {
  uint64_t H = 1469598103934665603ull;
  auto Mix = [&H](uint64_t V) {
    H ^= V;
    H *= 1099511628211ull;
  };
  auto MixOp = [&](const Operand &O) {
    Mix(static_cast<uint64_t>(O.Kind));
    Mix(O.Reg0);
    Mix(O.Reg1);
    Mix(static_cast<uint32_t>(O.Imm));
  };
  Mix(Code.size());
  for (const Instruction &I : Code) {
    Mix(static_cast<uint64_t>(I.Op));
    Mix(static_cast<uint64_t>(I.Ty));
    Mix(static_cast<uint64_t>(I.SrcTy));
    Mix(I.Width);
    Mix(I.PredReg);
    Mix(I.PredNegate);
    Mix(static_cast<uint64_t>(I.Cmp));
    MixOp(I.Dst);
    MixOp(I.Src0);
    MixOp(I.Src1);
    MixOp(I.Src2);
  }
  return H;
}

struct CacheEntry {
  std::vector<Instruction> Code; // full key, guarding hash collisions
  std::shared_ptr<const DecodedKernel> Decoded;
};

struct Cache {
  std::mutex M;
  std::unordered_multimap<uint64_t, CacheEntry> Map;
};

Cache &cache() {
  static Cache C;
  return C;
}

/// Streams-cached bound: far above any realistic kernel population; on
/// overflow the cache resets rather than growing without limit.
constexpr size_t MaxCachedKernels = 1024;

} // namespace

std::shared_ptr<const DecodedKernel>
isa::decodeKernel(const std::vector<Instruction> &Code) {
  uint64_t H = hashCode(Code);
  Cache &C = cache();
  std::lock_guard<std::mutex> Lock(C.M);
  auto [It, End] = C.Map.equal_range(H);
  for (; It != End; ++It)
    if (It->second.Code == Code)
      return It->second.Decoded;

  auto K = std::make_shared<DecodedKernel>();
  K->Insns.reserve(Code.size());
  for (const Instruction &I : Code)
    K->Insns.push_back(decodeInsn(I));

  if (C.Map.size() >= MaxCachedKernels)
    C.Map.clear();
  CacheEntry E;
  E.Code = Code;
  E.Decoded = K;
  C.Map.emplace(H, std::move(E));
  return K;
}

size_t isa::decodedKernelCacheSize() {
  Cache &C = cache();
  std::lock_guard<std::mutex> Lock(C.M);
  return C.Map.size();
}
