//===- xasm/Assembler.cpp ----------------------------------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//

#include "xasm/Assembler.h"

#include "isa/OpTable.h"
#include "support/Format.h"
#include "support/StringUtils.h"

#include <cctype>
#include <cstring>

using namespace exochi;
using namespace exochi::isa;
using namespace exochi::xasm;

namespace {

/// A branch whose label is not yet resolved.
struct PendingBranch {
  uint32_t InstrIndex;
  std::string Label;
  uint32_t Line;
};

/// Cursor-based parser for one instruction line.
class LineParser {
public:
  /// \p ImmTy types numeric literals: integer literals in F32-typed
  /// instructions are converted to float bit patterns so `mul.8.f d = s, 2`
  /// multiplies by 2.0f.
  LineParser(std::string_view Text, uint32_t Line,
             const SymbolBindings &Binds, ElemType ImmTy)
      : Text(Text), Line(Line), Binds(Binds), ImmTy(ImmTy) {}

  Error error(const std::string &Msg) const {
    return Error::make(formatString("line %u: %s", Line, Msg.c_str()));
  }

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t'))
      ++Pos;
  }

  bool atEnd() {
    skipWs();
    return Pos >= Text.size();
  }

  bool consume(char C) {
    skipWs();
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool consumeStr(const char *S) {
    skipWs();
    size_t Len = std::strlen(S);
    if (Text.substr(Pos, Len) == S) {
      Pos += Len;
      return true;
    }
    return false;
  }

  /// Parses an identifier; empty view when none present.
  std::string_view parseIdent() {
    skipWs();
    size_t Start = Pos;
    if (Pos < Text.size() && isIdentStart(Text[Pos])) {
      ++Pos;
      while (Pos < Text.size() && isIdentChar(Text[Pos]))
        ++Pos;
    }
    return Text.substr(Start, Pos - Start);
  }

  /// Parses a numeric literal (int or float) into \p Out as an operand
  /// immediate, float-typed literals become F32 bit patterns.
  bool parseNumber(Operand &Out) {
    skipWs();
    size_t Start = Pos;
    if (Pos < Text.size() && (Text[Pos] == '-' || Text[Pos] == '+'))
      ++Pos;
    bool SawDigit = false, SawDot = false, SawExp = false;
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (C >= '0' && C <= '9') {
        SawDigit = true;
        ++Pos;
      } else if (C == '.' && Pos + 1 < Text.size() && Text[Pos + 1] != '.') {
        // A single '.' continues a float literal; ".." is the range token.
        SawDot = true;
        ++Pos;
      } else if ((C == 'e' || C == 'E') && SawDigit && !SawExp) {
        SawExp = true;
        ++Pos;
        if (Pos < Text.size() && (Text[Pos] == '-' || Text[Pos] == '+'))
          ++Pos;
      } else if ((C == 'x' || C == 'X') && Pos == Start + 1 &&
                 Text[Start] == '0') {
        ++Pos;
        while (Pos < Text.size() && std::isxdigit(static_cast<unsigned char>(
                                        Text[Pos])))
          ++Pos;
        break;
      } else {
        break;
      }
    }
    if (!SawDigit) {
      Pos = Start;
      return false;
    }
    std::string_view Tok = Text.substr(Start, Pos - Start);
    if (SawDot || SawExp) {
      auto D = parseDouble(Tok);
      if (!D)
        return false;
      float F = static_cast<float>(*D);
      int32_t Bits;
      std::memcpy(&Bits, &F, 4);
      Out = Operand::imm(Bits);
      return true;
    }
    auto V = parseInt(Tok);
    if (!V)
      return false;
    if (ImmTy == ElemType::F32 || ImmTy == ElemType::F64) {
      // Float-typed immediates are stored as F32 bit patterns; the CEH
      // emulator widens them for df instructions.
      float F = static_cast<float>(*V);
      int32_t Bits;
      std::memcpy(&Bits, &F, 4);
      Out = Operand::imm(Bits);
      return true;
    }
    Out = Operand::imm(static_cast<int32_t>(*V));
    return true;
  }

  /// Parses `vrN` or `[vrA..vrB]` or `pN` or number or bound symbol.
  /// \p LabelName receives the identifier when it resolves to nothing —
  /// the caller decides whether an unresolved name is a label or an error.
  Expected<Operand> parseOperand(std::string *LabelName = nullptr) {
    skipWs();
    if (Pos >= Text.size())
      return error("expected operand");

    if (Text[Pos] == '[') {
      ++Pos;
      auto Lo = parseVReg();
      if (!Lo)
        return Lo.takeError();
      if (!consumeStr(".."))
        return error("expected '..' in register range");
      auto Hi = parseVReg();
      if (!Hi)
        return Hi.takeError();
      if (!consume(']'))
        return error("expected ']' closing register range");
      if (*Hi < *Lo)
        return error("register range is descending");
      return Operand::regRange(*Lo, *Hi);
    }

    Operand Num;
    if (parseNumber(Num))
      return Num;

    std::string_view Id = parseIdent();
    if (Id.empty())
      return error(formatString("unexpected character '%c'", Text[Pos]));

    // Register names.
    if (Id.size() > 2 && Id.substr(0, 2) == "vr") {
      auto N = parseInt(Id.substr(2));
      if (N && *N >= 0 && *N < static_cast<int64_t>(NumVRegs))
        return Operand::reg(static_cast<uint8_t>(*N));
      return error(formatString("bad vector register '%.*s'",
                                static_cast<int>(Id.size()), Id.data()));
    }
    if (Id.size() > 1 && Id[0] == 'p' && std::isdigit(static_cast<unsigned char>(Id[1]))) {
      auto N = parseInt(Id.substr(1));
      if (N && *N >= 0 && *N < static_cast<int64_t>(NumPRegs))
        return Operand::pred(static_cast<uint8_t>(*N));
      return error(formatString("bad predicate register '%.*s'",
                                static_cast<int>(Id.size()), Id.data()));
    }
    if (Id.size() > 4 && Id.substr(0, 4) == "surf") {
      auto N = parseInt(Id.substr(4));
      if (N && *N >= 0)
        return Operand::surface(static_cast<int32_t>(*N));
    }

    // Bound source-level symbol.
    if (const SymbolBinding *B = Binds.lookup(Id)) {
      if (B->K == SymbolBinding::Kind::ScalarReg)
        return Operand::reg(B->Reg);
      return Operand::surface(B->Slot);
    }

    if (LabelName) {
      *LabelName = std::string(Id);
      return Operand::label(-1); // resolved in the second pass
    }
    return error(formatString("unknown symbol '%.*s'",
                              static_cast<int>(Id.size()), Id.data()));
  }

  Expected<uint8_t> parseVReg() {
    std::string_view Id = parseIdent();
    if (Id.size() > 2 && Id.substr(0, 2) == "vr")
      if (auto N = parseInt(Id.substr(2));
          N && *N >= 0 && *N < static_cast<int64_t>(NumVRegs))
        return static_cast<uint8_t>(*N);
    return error("expected vector register");
  }

  Expected<uint8_t> parsePReg(bool *Negate) {
    skipWs();
    if (Negate && Pos < Text.size() && Text[Pos] == '!') {
      *Negate = true;
      ++Pos;
    }
    std::string_view Id = parseIdent();
    if (Id.size() > 1 && Id[0] == 'p')
      if (auto N = parseInt(Id.substr(1));
          N && *N >= 0 && *N < static_cast<int64_t>(NumPRegs))
        return static_cast<uint8_t>(*N);
    return error("expected predicate register");
  }

  std::string_view remaining() {
    skipWs();
    return Text.substr(Pos);
  }

private:
  std::string_view Text;
  size_t Pos = 0;
  uint32_t Line;
  const SymbolBindings &Binds;
  ElemType ImmTy;
};

std::optional<Opcode> opcodeFromName(std::string_view Name) {
  for (const OpInfo &Row : OpTable)
    if (Name == Row.Name)
      return Row.Op;
  return std::nullopt;
}

std::optional<ElemType> elemTypeFromName(std::string_view Name) {
  for (unsigned K = 0; K <= static_cast<unsigned>(ElemType::F64); ++K) {
    ElemType Ty = static_cast<ElemType>(K);
    if (Name == elemTypeName(Ty))
      return Ty;
  }
  return std::nullopt;
}

std::optional<CmpOp> cmpOpFromName(std::string_view Name) {
  for (unsigned K = 0; K <= static_cast<unsigned>(CmpOp::Ge); ++K) {
    CmpOp C = static_cast<CmpOp>(K);
    if (Name == cmpOpName(C))
      return C;
  }
  return std::nullopt;
}

/// Strips ';' and '//' comments.
std::string_view stripComment(std::string_view L) {
  size_t Semi = L.find(';');
  if (Semi != std::string_view::npos)
    L = L.substr(0, Semi);
  size_t Slash = L.find("//");
  if (Slash != std::string_view::npos)
    L = L.substr(0, Slash);
  return L;
}

} // namespace

Expected<AssembledKernel> xasm::assembleKernel(std::string_view Source,
                                               const SymbolBindings &Binds) {
  AssembledKernel K;
  std::vector<PendingBranch> Pending;

  std::vector<std::string_view> Lines = splitLines(Source);
  for (size_t LineIdx = 0; LineIdx < Lines.size(); ++LineIdx) {
    uint32_t LineNo = static_cast<uint32_t>(LineIdx + 1);
    std::string_view L = trim(stripComment(Lines[LineIdx]));
    if (L.empty())
      continue;

    // Label definition: `name:`.
    if (L.back() == ':') {
      std::string_view Name = trim(L.substr(0, L.size() - 1));
      if (Name.empty() || !isIdentStart(Name[0]))
        return Error::make(formatString("line %u: malformed label", LineNo));
      std::string NameStr(Name);
      if (K.Labels.count(NameStr))
        return Error::make(
            formatString("line %u: duplicate label '%s'", LineNo,
                         NameStr.c_str()));
      K.Labels[NameStr] = static_cast<uint32_t>(K.Code.size());
      continue;
    }

    Instruction I;

    // Optional predication prefix `(pN)` / `(!pN)`.
    std::string_view Body = L;
    if (Body[0] == '(') {
      size_t Close = Body.find(')');
      if (Close == std::string_view::npos)
        return Error::make(
            formatString("line %u: unterminated predication prefix", LineNo));
      std::string_view P = trim(Body.substr(1, Close - 1));
      if (!P.empty() && P[0] == '!') {
        I.PredNegate = true;
        P = trim(P.substr(1));
      }
      if (P.size() < 2 || P[0] != 'p')
        return Error::make(
            formatString("line %u: malformed predication prefix", LineNo));
      auto N = parseInt(P.substr(1));
      if (!N || *N < 0 || *N >= static_cast<int64_t>(NumPRegs))
        return Error::make(
            formatString("line %u: bad predicate register", LineNo));
      I.PredReg = static_cast<uint8_t>(*N);
      Body = trim(Body.substr(Close + 1));
    }

    // Mnemonic: `base[.cond].width.type[.srctype]`.
    size_t MnEnd = Body.find_first_of(" \t");
    std::string_view Mnemonic =
        MnEnd == std::string_view::npos ? Body : Body.substr(0, MnEnd);
    std::string_view Rest =
        MnEnd == std::string_view::npos ? std::string_view()
                                        : trim(Body.substr(MnEnd));

    std::vector<std::string_view> Parts = split(Mnemonic, '.');
    auto Op = opcodeFromName(Parts[0]);
    if (!Op)
      return Error::make(formatString("line %u: unknown mnemonic '%.*s'",
                                      LineNo,
                                      static_cast<int>(Parts[0].size()),
                                      Parts[0].data()));
    I.Op = *Op;

    const OpInfo &Row = opInfo(I.Op);
    if (I.PredReg != NoPred && Row.needsPred())
      return Error::make(formatString(
          "line %u: %s names its predicate as an operand, not a prefix",
          LineNo, Row.Name));
    size_t PartIdx = 1;
    if (I.Op == Opcode::Cmp) {
      if (Parts.size() < 2)
        return Error::make(
            formatString("line %u: cmp needs a condition suffix", LineNo));
      auto C = cmpOpFromName(Parts[PartIdx]);
      if (!C)
        return Error::make(formatString("line %u: bad cmp condition", LineNo));
      I.Cmp = *C;
      ++PartIdx;
    }
    if (Row.WidthType) {
      if (Parts.size() < PartIdx + 2)
        return Error::make(formatString(
            "line %u: mnemonic needs .width.type suffixes", LineNo));
      auto W = parseInt(Parts[PartIdx]);
      if (!W || *W < 1 || *W > static_cast<int64_t>(MaxWidth))
        return Error::make(formatString("line %u: bad SIMD width", LineNo));
      I.Width = static_cast<uint8_t>(*W);
      auto Ty = elemTypeFromName(Parts[PartIdx + 1]);
      if (!Ty)
        return Error::make(formatString("line %u: bad element type", LineNo));
      I.Ty = *Ty;
      PartIdx += 2;
      if (Row.Src == SrcType::Cvt) {
        if (Parts.size() < PartIdx + 1)
          return Error::make(formatString(
              "line %u: cvt needs .dsttype.srctype suffixes", LineNo));
        auto STy = elemTypeFromName(Parts[PartIdx]);
        if (!STy)
          return Error::make(
              formatString("line %u: bad cvt source type", LineNo));
        I.SrcTy = *STy;
        ++PartIdx;
      }
    }
    if (PartIdx != Parts.size())
      return Error::make(
          formatString("line %u: trailing mnemonic suffixes", LineNo));

    // Operands, in the row's syntax.
    LineParser P(Rest, LineNo, Binds, immTypeOf(I));
    Operand *Slots[4] = {&I.Dst, &I.Src0, &I.Src1, &I.Src2};
    for (const char *S = Row.Syntax; *S; ++S) {
      int Slot = syntaxSlot(*S);
      if (*S == ' ') {
        continue;
      } else if (*S == 'P') {
        bool Neg = false;
        auto PR = P.parsePReg(&Neg);
        if (!PR)
          return PR.takeError();
        I.PredReg = *PR;
        I.PredNegate = Neg;
      } else if (Slot >= 0) {
        // An identifier that names nothing is a label where the row wants
        // one, else an unknown symbol.
        std::string Label;
        bool WantsLabel = Row.Slots[Slot].Role == SlotRole::Label;
        auto O = P.parseOperand(WantsLabel ? &Label : nullptr);
        if (!O)
          return O.takeError();
        *Slots[Slot] = *O;
        if (O->Kind == OperandKind::Label)
          Pending.push_back(
              {static_cast<uint32_t>(K.Code.size()), Label, LineNo});
      } else if (!P.consume(*S)) {
        return P.error(formatString("expected '%c' in %s", *S, Row.Name));
      }
    }

    if (!P.atEnd())
      return Error::make(formatString("line %u: trailing text '%.*s'", LineNo,
                                      static_cast<int>(P.remaining().size()),
                                      P.remaining().data()));

    K.Code.push_back(I);
    K.Lines.push_back(LineNo);
  }

  // Second pass: resolve branch targets.
  for (const PendingBranch &B : Pending) {
    auto It = K.Labels.find(B.Label);
    if (It == K.Labels.end())
      return Error::make(formatString("line %u: undefined label '%s'", B.Line,
                                      B.Label.c_str()));
    K.Code[B.InstrIndex].Src0 = Operand::label(
        static_cast<int32_t>(It->second));
  }

  // Final structural validation.
  for (size_t Idx = 0; Idx < K.Code.size(); ++Idx) {
    if (std::string V = validate(K.Code[Idx]); !V.empty())
      return Error::make(
          formatString("line %u: %s", K.Lines[Idx], V.c_str()));
    const Instruction &I = K.Code[Idx];
    if (I.Src0.Kind == OperandKind::Label &&
        (I.Src0.Imm < 0 ||
         I.Src0.Imm > static_cast<int32_t>(K.Code.size())))
      return Error::make(
          formatString("line %u: branch target out of range", K.Lines[Idx]));
  }

  return K;
}
