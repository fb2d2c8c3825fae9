//===- xopt/Verify.h - XVerify: race / sync / bounds verifier --------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// XVerify, the deep static verifier for XGMA kernels (DESIGN.md §10).
/// Where xopt::lintKernel checks intra-shred register hygiene, XVerify
/// checks the properties EXOCHI's programming model leaves to the kernel
/// author:
///
///  1. Value-range checks. The shared value analysis (xopt/Values.h)
///     tracks every register as an interval plus an optional affine
///     dependence on the shred id (`value = SidCoef * sid + base`).
///     Surface accesses are checked against the bound descriptors:
///     provable out-of-bounds accesses are errors, bounded possible
///     violations are warnings. Integer divides whose divisor interval is
///     exactly {0} are errors; bounded divisor intervals containing 0
///     warn (the CEH fault path).
///
///  2. Inter-shred race detection. Each store/load footprint on a surface
///     is summarized symbolically in the shred id. Two accesses from
///     distinct shred ids that can overlap — and are not ordered by an
///     Xmit -> Wait edge on a common sync register — are reported as
///     may-races. Footprints derived from scalar parameters are treated
///     as partitioned by contract (the dispatcher hands each shred its
///     own y0/rows/x0/cols) and never race; see DESIGN.md §10 for why
///     this is the load-bearing soundness trade-off.
///
///  3. Sync-protocol checks. `wait` on a register no `xmit` in the kernel
///     ever signals (guaranteed deadlock once reached), `wait` whose only
///     matching `xmit`s are behind the wait itself (self-wait cycle),
///     `xmit` to a provably invalid shred id (ids are 1-based), and
///     unconditional self-`spawn` (every path respawns the kernel, so
///     the shred tree never quiesces).
///
/// Findings land in the same LintReport container the lint uses, so the
/// chi::LintPolicy machinery (Collect / RejectOnWarning) applies to both
/// passes uniformly.
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_XOPT_VERIFY_H
#define EXOCHI_XOPT_VERIFY_H

#include "isa/Isa.h"
#include "xopt/Lint.h"
#include "xopt/Range.h"

#include <map>
#include <string>
#include <vector>

namespace exochi {
namespace xopt {

/// Compile-time knowledge about one bound surface. Anything unknown stays
/// at its "no information" default and the corresponding checks degrade
/// to the always-sound subset (negative indices, slot validity).
struct SurfaceGeometry {
  static constexpr int64_t Unknown = -1;
  int64_t Width = Unknown;  ///< elements per row
  int64_t Height = Unknown; ///< rows (1 for 1-D surfaces)

  /// Total element count, or Unknown when either extent is unknown.
  int64_t totalElements() const {
    return Width == Unknown || Height == Unknown ? Unknown : Width * Height;
  }
};

/// Everything the verifier may assume about the dispatch environment of a
/// kernel. ProgramBuilder fills in the ABI-derived facts (parameter and
/// surface slot counts); tools with access to a live dispatch can add
/// surface geometry and parameter ranges for sharper verdicts.
struct VerifySpec {
  /// Number of scalar parameters preloaded into vr0.. at dispatch.
  unsigned NumScalarParams = 0;

  static constexpr int32_t UnknownSurfaceCount = -1;
  /// Number of bound surface slots; accesses to slots >= this are errors.
  int32_t NumSurfaceSlots = UnknownSurfaceCount;

  /// Known geometry per surface slot (absent slots: unknown geometry).
  std::map<int32_t, SurfaceGeometry> Surfaces;

  /// Known value ranges per scalar parameter index (absent: full range).
  std::map<unsigned, Range> ParamRanges;

  /// Assumed shred-id range. Ids are 1-based (GmaDevice::NextShredId);
  /// the default upper bound is a documented "any realistic dispatch"
  /// assumption, not a hardware limit.
  int64_t SidLo = 1;
  int64_t SidHi = int64_t(1) << 24;
};

/// Runs XVerify on \p Code under the assumptions in \p Spec. The report's
/// Kernel field is set to \p KernelName. The pass assumes \p Code already
/// passed structural validation (isa::validate via the assembler).
LintReport verifyKernel(const std::vector<isa::Instruction> &Code,
                        const VerifySpec &Spec,
                        std::string KernelName = std::string());

} // namespace xopt
} // namespace exochi

#endif // EXOCHI_XOPT_VERIFY_H
