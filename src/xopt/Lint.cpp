//===- xopt/Lint.cpp --------------------------------------------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//

#include "xopt/Lint.h"

#include "support/Format.h"
#include "xopt/Cfg.h"

#include <set>

using namespace exochi;
using namespace exochi::isa;
using namespace exochi::xopt;

const char *xopt::severityName(Severity S) {
  switch (S) {
  case Severity::Note:
    return "note";
  case Severity::Warning:
    return "warning";
  case Severity::Error:
    return "error";
  }
  return "unknown";
}

std::string LintDiag::render(const std::string &Kernel) const {
  if (Kernel.empty())
    return Instr == NoInstr ? Msg : formatString("%u: %s", Instr, Msg.c_str());
  if (Instr == NoInstr)
    return formatString("%s: %s", Kernel.c_str(), Msg.c_str());
  return formatString("%s:%u: %s", Kernel.c_str(), Instr, Msg.c_str());
}

bool LintReport::clean() const {
  for (const LintDiag &D : Diags)
    if (D.Sev != Severity::Note)
      return false;
  return true;
}

size_t LintReport::count(Severity S) const {
  size_t N = 0;
  for (const LintDiag &D : Diags)
    if (D.Sev == S)
      ++N;
  return N;
}

std::vector<std::string> LintReport::warnings() const {
  std::vector<std::string> Out;
  for (const LintDiag &D : Diags)
    if (D.Sev != Severity::Note)
      Out.push_back(D.render(Kernel));
  return Out;
}

std::vector<std::string> LintReport::notes() const {
  std::vector<std::string> Out;
  for (const LintDiag &D : Diags)
    if (D.Sev == Severity::Note)
      Out.push_back(D.render(Kernel));
  return Out;
}

const LintDiag *LintReport::firstProblem() const {
  for (const LintDiag &D : Diags)
    if (D.Sev != Severity::Note)
      return &D;
  return nullptr;
}

void LintReport::append(LintReport Other) {
  for (LintDiag &D : Other.Diags)
    Diags.push_back(std::move(D));
}

LintReport xopt::lintKernel(const std::vector<Instruction> &Code,
                            unsigned NumScalarParams,
                            std::string KernelName) {
  LintReport Report;
  Report.Kernel = std::move(KernelName);
  if (Code.empty()) {
    Report.note(NoInstr, "kernel is empty (immediate halt)");
    return Report;
  }

  std::vector<UseDef> UD;
  UD.reserve(Code.size());
  for (const Instruction &I : Code)
    UD.push_back(useDef(I));

  const Cfg G(Code);
  // A reachable instruction other than halt that leads to the exit falls
  // off the end.
  bool FallOff = false;
  for (uint32_t Idx = 0; Idx < Code.size(); ++Idx)
    if (G.reachable(Idx) && Code[Idx].Op != Opcode::Halt)
      for (uint32_t S : G.succs(Idx))
        FallOff |= S == G.exit();

  // Unreachable code, grouped into maximal blocks so a skipped region
  // reads as one finding instead of one note per instruction.
  for (uint32_t Idx = 0; Idx < Code.size();) {
    if (G.reachable(Idx)) {
      ++Idx;
      continue;
    }
    uint32_t End = Idx;
    while (End + 1 < Code.size() && !G.reachable(End + 1))
      ++End;
    if (End == Idx)
      Report.note(Idx, formatString("instruction is unreachable: %s",
                                    disassemble(Code[Idx]).c_str()));
    else
      Report.note(Idx,
                  formatString("unreachable block: instructions %u..%u can "
                               "never execute",
                               Idx, End));
    Idx = End + 1;
  }
  if (FallOff)
    Report.note(NoInstr,
                "control can fall off the end of the kernel (implicit halt)");

  // Definite initialization: forward fixpoint with intersection meet.
  LocSet Entry;
  for (unsigned P = 0; P < NumScalarParams && P < NumVRegs; ++P)
    Entry.set(P);

  // InitIn[i]: locations definitely written on every path reaching i.
  LocSet All;
  All.set(); // top element for the meet
  std::vector<LocSet> InitIn(Code.size(), All);
  InitIn[0] = Entry;

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t Idx = 0; Idx < Code.size(); ++Idx) {
      if (!G.reachable(Idx))
        continue;
      // Initialization facts are monotone (a write is never undone), so
      // the entry facts hold on every path and In[0] is just the ABI set
      // even when instruction 0 is a loop target.
      LocSet In;
      if (Idx == 0) {
        In = Entry;
      } else {
        In = All;
        for (uint32_t P : G.preds(Idx))
          In &= InitIn[P] | UD[P].Def;
      }
      if (In != InitIn[Idx]) {
        InitIn[Idx] = In;
        Changed = true;
      }
    }
  }

  // Report uses of possibly-uninitialized locations (deduplicated).
  std::set<std::pair<uint32_t, unsigned>> Seen;
  for (uint32_t Idx = 0; Idx < Code.size(); ++Idx) {
    if (!G.reachable(Idx))
      continue;
    LocSet Missing = UD[Idx].Use & ~InitIn[Idx];
    for (unsigned L = 0; L < NumLocs; ++L) {
      if (!Missing.test(L) || !Seen.insert({Idx, L}).second)
        continue;
      std::string Loc = L < NumVRegs
                            ? formatString("vr%u", L)
                            : formatString("p%u", L - NumVRegs);
      Report.warn(Idx,
                  formatString("may read uninitialized %s: %s", Loc.c_str(),
                               disassemble(Code[Idx]).c_str()));
    }
  }

  // Dead stores to registers: an unpredicated, side-effect-free
  // instruction none of whose results is ever read afterwards. (A value
  // only feeding itself around a loop stays live through its own use, so
  // genuine accumulators are not flagged.)
  std::vector<LocSet> Live = liveOut(Code);
  for (uint32_t Idx = 0; Idx < Code.size(); ++Idx) {
    if (!G.reachable(Idx))
      continue;
    const Instruction &I = Code[Idx];
    if (UD[Idx].HasSideEffects || I.PredReg != NoPred)
      continue;
    if (UD[Idx].Def.none() || (UD[Idx].Def & Live[Idx]).any())
      continue;
    Report.note(Idx, formatString("dead store: result of `%s` is never read",
                                  disassemble(I).c_str()));
  }

  // Unused scalar parameters.
  LocSet UsedAnywhere;
  for (const UseDef &U : UD)
    UsedAnywhere |= U.Use;
  for (unsigned P = 0; P < NumScalarParams && P < NumVRegs; ++P)
    if (!UsedAnywhere.test(P))
      Report.note(NoInstr,
                  formatString("scalar parameter in vr%u is never read", P));

  return Report;
}
