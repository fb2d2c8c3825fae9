//===- xopt/Range.h - Saturating integer interval domain -------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The integer interval domain of the xopt value analysis
/// (xopt/Values.h), which XVerify and XCost both read. A Range is a
/// closed interval [Lo, Hi] of int64_t values where the extreme
/// representable values act as -inf/+inf sentinels; every operation
/// saturates toward the sentinels, so an overflowing computation
/// degrades to "unbounded" instead of wrapping. All operations are sound
/// over-approximations of the corresponding concrete integer operation.
///
/// Register values on the device are 32-bit (narrower types stored
/// sign-extended). typeRange() gives the values a register can hold
/// after a write of each integer type; the value analysis widens any
/// integer result that escapes it to the whole range, which models the
/// architectural truncation.
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_XOPT_RANGE_H
#define EXOCHI_XOPT_RANGE_H

#include "isa/Isa.h"

#include <algorithm>
#include <cstdint>

namespace exochi {
namespace xopt {

/// A closed interval of 64-bit integers with +-inf sentinels.
struct Range {
  static constexpr int64_t NegInf = INT64_MIN;
  static constexpr int64_t PosInf = INT64_MAX;

  int64_t Lo = NegInf;
  int64_t Hi = PosInf;

  static Range full() { return Range(); }
  static Range point(int64_t V) { return {V, V}; }
  static Range of(int64_t Lo, int64_t Hi) { return {Lo, Hi}; }

  bool isFull() const { return Lo == NegInf && Hi == PosInf; }
  bool isPoint() const { return Lo == Hi; }
  /// Both endpoints are finite.
  bool isBounded() const { return Lo != NegInf && Hi != PosInf; }

  bool contains(int64_t V) const { return Lo <= V && V <= Hi; }
  bool containsZero() const { return contains(0); }
  bool intersects(const Range &O) const { return Lo <= O.Hi && O.Lo <= Hi; }
  /// Every value of *this lies inside \p O.
  bool within(const Range &O) const { return O.Lo <= Lo && Hi <= O.Hi; }

  bool operator==(const Range &O) const { return Lo == O.Lo && Hi == O.Hi; }
  bool operator!=(const Range &O) const { return !(*this == O); }

  /// Smallest interval containing both (the lattice join).
  static Range hull(const Range &A, const Range &B) {
    return {std::min(A.Lo, B.Lo), std::max(A.Hi, B.Hi)};
  }

  /// Widens *this against a previous value: any endpoint that moved since
  /// \p Prev jumps straight to its sentinel, guaranteeing termination of
  /// ascending fixpoint chains.
  Range widenedFrom(const Range &Prev) const {
    return {Lo < Prev.Lo ? NegInf : Lo, Hi > Prev.Hi ? PosInf : Hi};
  }

  /// Saturates a 128-bit exact result back into the sentinel scheme.
  static int64_t sat(__int128 V) {
    if (V <= static_cast<__int128>(NegInf))
      return NegInf;
    if (V >= static_cast<__int128>(PosInf))
      return PosInf;
    return static_cast<int64_t>(V);
  }

  /// A sentinel endpoint stays a sentinel under addition of any finite
  /// delta (so [0, +inf] + [1, 1] = [1, +inf], not an overflow).
  static int64_t addEnd(int64_t A, int64_t B) {
    if (A == NegInf || B == NegInf)
      return NegInf;
    if (A == PosInf || B == PosInf)
      return PosInf;
    return sat(static_cast<__int128>(A) + B);
  }

  static Range add(const Range &A, const Range &B) {
    return {addEnd(A.Lo, B.Lo), addEnd(A.Hi, B.Hi)};
  }

  static Range neg(const Range &A) {
    int64_t Lo = A.Hi == PosInf ? NegInf : sat(-static_cast<__int128>(A.Hi));
    int64_t Hi = A.Lo == NegInf ? PosInf : sat(-static_cast<__int128>(A.Lo));
    return {Lo, Hi};
  }

  static Range sub(const Range &A, const Range &B) { return add(A, neg(B)); }

  /// One endpoint product with inf*0 = 0 (an empty footprint scaled by
  /// anything is empty).
  static int64_t mulEnd(int64_t A, int64_t B) {
    if (A == 0 || B == 0)
      return 0;
    bool Neg = (A < 0) != (B < 0);
    if (A == NegInf || A == PosInf || B == NegInf || B == PosInf)
      return Neg ? NegInf : PosInf;
    return sat(static_cast<__int128>(A) * B);
  }

  static Range mul(const Range &A, const Range &B) {
    int64_t C[4] = {mulEnd(A.Lo, B.Lo), mulEnd(A.Lo, B.Hi),
                    mulEnd(A.Hi, B.Lo), mulEnd(A.Hi, B.Hi)};
    return {*std::min_element(C, C + 4), *std::max_element(C, C + 4)};
  }

  static Range min(const Range &A, const Range &B) {
    return {std::min(A.Lo, B.Lo), std::min(A.Hi, B.Hi)};
  }

  static Range max(const Range &A, const Range &B) {
    return {std::max(A.Lo, B.Lo), std::max(A.Hi, B.Hi)};
  }

  static Range abs(const Range &A) {
    if (A.Lo >= 0)
      return A;
    if (A.Hi <= 0)
      return neg(A);
    Range N = neg(Range{A.Lo, A.Lo});
    return {0, std::max(A.Hi, N.Hi)};
  }

  /// (a + b + 1) >> 1, the integer Avg op.
  static Range avg(const Range &A, const Range &B) {
    Range S = add(add(A, B), point(1));
    auto Half = [](int64_t V) {
      return V == NegInf || V == PosInf ? V : (V >> 1);
    };
    return {Half(S.Lo), Half(S.Hi)};
  }

  /// Left shift by a constant amount in [0, 63].
  static Range shlConst(const Range &A, unsigned Sh) {
    return mul(A, point(static_cast<int64_t>(1) << std::min(Sh, 62u)));
  }

  /// Arithmetic right shift by a constant amount.
  static Range asrConst(const Range &A, unsigned Sh) {
    Sh = std::min(Sh, 63u);
    auto Shift = [Sh](int64_t V) {
      return V == NegInf || V == PosInf ? V : (V >> Sh);
    };
    return {Shift(A.Lo), Shift(A.Hi)};
  }
};

/// True for the integer element types (b, w, dw).
inline bool isIntType(isa::ElemType Ty) {
  return Ty == isa::ElemType::I8 || Ty == isa::ElemType::I16 ||
         Ty == isa::ElemType::I32;
}

/// The values a register written with integer type \p Ty can hold
/// (int32 for every non-narrow type: registers are 32 bits wide).
inline Range typeRange(isa::ElemType Ty) {
  switch (Ty) {
  case isa::ElemType::I8:
    return Range::of(-128, 127);
  case isa::ElemType::I16:
    return Range::of(-32768, 32767);
  default:
    return Range::of(INT32_MIN, INT32_MAX);
  }
}

} // namespace xopt
} // namespace exochi

#endif // EXOCHI_XOPT_RANGE_H
