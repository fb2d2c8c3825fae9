//===- gma/Ceh.h - IA32 emulation of faulting exo-sequencer instructions ---===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instruction emulation behind collaborative exception handling
/// (paper Section 3.3): what the IA32 sequencer computes when an
/// exo-sequencer instruction faults. One definition serves both places
/// that need it — the CEH proxy (exo::ExoProxyHandler::onException),
/// which writes the results back into the faulting shred's register
/// file, and the IA32 host lane (xjit::HostLane), which hits the same
/// instructions while running an orphaned shred itself.
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_GMA_CEH_H
#define EXOCHI_GMA_CEH_H

#include "gma/Gma.h"

namespace exochi {
namespace gma {

/// How the structured-exception-handling layer treats integer divide by
/// zero raised on an exo-sequencer (the application-level handler of
/// paper Section 3.3).
enum class DivZeroPolicy : uint8_t {
  Fault,     ///< terminate the shred (default OS behaviour)
  WriteZero, ///< the handler writes 0 into the offending lanes and resumes
};

/// Emulates a double-precision (df) ALU/compare/select/convert
/// instruction with IEEE-double semantics through \p Regs.
Error emulateF64(const isa::Instruction &I, ShredRegView &Regs);

/// Handles an integer divide that faulted on a zero divisor, under policy
/// \p P. WriteZero recomputes every enabled lane in 64-bit arithmetic
/// (sign-extended to the element type, as the interpreters do) and writes
/// 0 where the divisor is 0; predicated-off lanes keep their destination
/// registers. Fault returns the terminating error.
Error emulateDivZero(const isa::Instruction &I, ShredRegView &Regs,
                     DivZeroPolicy P);

} // namespace gma
} // namespace exochi

#endif // EXOCHI_GMA_CEH_H
