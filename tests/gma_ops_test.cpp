//===- tests/gma_ops_test.cpp - Systematic ISA operation semantics ------------===//
//
// For every ALU opcode and element type, runs a 4-wide instruction on the
// device over random register inputs and checks the result against an
// independent host-side reference of the documented semantics (64-bit
// intermediates, sign-extension to the element type, logical vs arithmetic
// shifts, saturating conversions, IEEE f32).
//
//===----------------------------------------------------------------------===//

#include "exo/ExoPlatform.h"
#include "support/Format.h"
#include "support/Random.h"
#include "xasm/Assembler.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

using namespace exochi;
using namespace exochi::isa;

namespace {

/// Runs `OP.4.TY [vr8..vr11] = [vr0..vr3], [vr4..vr7]` (or unary) with the
/// given 8 input register values and returns vr8..vr11 after execution.
std::vector<uint32_t> runOp(const std::string &Mnemonic, bool Unary,
                            const std::vector<uint32_t> &Inputs) {
  exo::ExoPlatform P;
  exo::SharedBuffer Out = P.allocateShared(64, "out");

  std::string Src;
  if (Unary)
    Src = formatString("  %s [vr8..vr11] = [vr0..vr3]\n", Mnemonic.c_str());
  else
    Src = formatString("  %s [vr8..vr11] = [vr0..vr3], [vr4..vr7]\n",
                       Mnemonic.c_str());
  Src += "  mov.1.dw vr30 = 0\n"
         "  st.4.dw (out, vr30, 0) = [vr8..vr11]\n"
         "  halt\n";
  xasm::SymbolBindings Binds;
  Binds.bindSurface("out", 0);
  auto K = xasm::assembleKernel(Src, Binds);
  EXPECT_TRUE(static_cast<bool>(K)) << K.message() << Src;

  gma::KernelImage Img;
  Img.Code = K->Code;
  uint32_t Kid = P.device().registerKernel(std::move(Img));

  auto Table = std::make_shared<gma::SurfaceTable>();
  gma::SurfaceBinding S;
  S.Base = Out.Base;
  S.Width = 16;
  Table->push_back(S);

  gma::ShredDescriptor D;
  D.KernelId = Kid;
  for (uint32_t V : Inputs)
    D.Params.push_back(static_cast<int32_t>(V));
  D.Surfaces = Table;
  P.device().enqueueShred(std::move(D));
  auto Exit = P.device().run(0.0);
  EXPECT_TRUE(static_cast<bool>(Exit)) << Exit.message();

  std::vector<uint32_t> R(4);
  P.read(Out.Base, R.data(), 16);
  return R;
}

int64_t signExtendTo(int64_t V, ElemType Ty) {
  switch (Ty) {
  case ElemType::I8:
    return static_cast<int8_t>(V);
  case ElemType::I16:
    return static_cast<int16_t>(V);
  default:
    return static_cast<int32_t>(V);
  }
}

struct OpCase {
  const char *Base;
  bool Unary;
  /// Integer reference (64-bit intermediates, then sign-extend).
  int64_t (*IntRef)(int64_t, int64_t);
  /// Float reference (nullptr when the op is integer-only).
  float (*F32Ref)(float, float);
};

const OpCase Cases[] = {
    {"add", false, [](int64_t A, int64_t B) { return A + B; },
     [](float A, float B) { return A + B; }},
    {"sub", false, [](int64_t A, int64_t B) { return A - B; },
     [](float A, float B) { return A - B; }},
    {"mul", false, [](int64_t A, int64_t B) { return A * B; },
     [](float A, float B) { return A * B; }},
    {"min", false,
     [](int64_t A, int64_t B) { return std::min(A, B); },
     [](float A, float B) { return std::min(A, B); }},
    {"max", false,
     [](int64_t A, int64_t B) { return std::max(A, B); },
     [](float A, float B) { return std::max(A, B); }},
    {"avg", false,
     [](int64_t A, int64_t B) { return (A + B + 1) >> 1; },
     [](float A, float B) { return (A + B) * 0.5f; }},
    {"abs", true, [](int64_t A, int64_t) { return A < 0 ? -A : A; },
     [](float A, float) { return std::fabs(A); }},
    {"and", false, [](int64_t A, int64_t B) { return A & B; }, nullptr},
    {"or", false, [](int64_t A, int64_t B) { return A | B; }, nullptr},
    {"xor", false, [](int64_t A, int64_t B) { return A ^ B; }, nullptr},
    {"not", true, [](int64_t A, int64_t) { return ~A; }, nullptr},
    {"shl", false, [](int64_t A, int64_t B) { return A << (B & 31); },
     nullptr},
    {"shr", false,
     [](int64_t A, int64_t B) {
       return static_cast<int64_t>(static_cast<uint32_t>(A) >> (B & 31));
     },
     nullptr},
    {"asr", false,
     [](int64_t A, int64_t B) {
       return static_cast<int64_t>(static_cast<int32_t>(A) >> (B & 31));
     },
     nullptr},
    {"mov", true, [](int64_t A, int64_t) { return A; },
     [](float A, float) { return A; }},
};

/// Without a PrintTo, gtest prints a case as its raw bytes, and the
/// discovered ctest names include that print; the names are kept as they
/// have been. The three explicit zero bytes after Ty leave the compiler
/// no padding there, whose contents would differ between builds.
struct TypedCase {
  unsigned OpIdx;
  ElemType Ty;
  uint8_t Zero[3] = {};
};

std::vector<TypedCase> allTypedCases() {
  std::vector<TypedCase> Out;
  const ElemType IntTys[] = {ElemType::I8, ElemType::I16, ElemType::I32};
  for (unsigned K = 0; K < std::size(Cases); ++K) {
    for (ElemType Ty : IntTys)
      Out.push_back({K, Ty});
    if (Cases[K].F32Ref)
      Out.push_back({K, ElemType::F32});
  }
  return Out;
}

std::string typedCaseName(const ::testing::TestParamInfo<TypedCase> &Info) {
  return formatString("%s_%s", Cases[Info.param.OpIdx].Base,
                      Info.param.Ty == ElemType::F32
                          ? "f"
                          : elemTypeName(Info.param.Ty));
}

} // namespace

class OpSemanticsTest : public ::testing::TestWithParam<TypedCase> {};

TEST_P(OpSemanticsTest, MatchesReference) {
  const OpCase &C = Cases[GetParam().OpIdx];
  ElemType Ty = GetParam().Ty;
  std::string Mnemonic =
      formatString("%s.4.%s", C.Base, elemTypeName(Ty));

  Rng R(0xd00d + GetParam().OpIdx * 131 + static_cast<unsigned>(Ty));
  for (unsigned Trial = 0; Trial < 8; ++Trial) {
    std::vector<uint32_t> In(8);
    for (auto &V : In) {
      if (Ty == ElemType::F32) {
        float F = static_cast<float>(R.nextInRange(-1000, 1000)) * 0.25f;
        std::memcpy(&V, &F, 4);
      } else {
        // Values pre-sign-extended to the element type, as the ABI and
        // prior typed instructions would leave them.
        V = static_cast<uint32_t>(
            signExtendTo(static_cast<int64_t>(R.next()), Ty));
      }
    }

    auto Got = runOp(Mnemonic, C.Unary, In);
    for (unsigned L = 0; L < 4; ++L) {
      if (Ty == ElemType::F32) {
        float A, B, G;
        std::memcpy(&A, &In[L], 4);
        std::memcpy(&B, &In[4 + L], 4);
        std::memcpy(&G, &Got[L], 4);
        float Want = C.F32Ref(A, B);
        EXPECT_EQ(std::memcmp(&G, &Want, 4), 0)
            << Mnemonic << " lane " << L << ": got " << G << " want "
            << Want;
      } else {
        int64_t A = static_cast<int32_t>(In[L]);
        int64_t B = static_cast<int32_t>(In[4 + L]);
        uint32_t Want = static_cast<uint32_t>(
            signExtendTo(C.IntRef(A, B), Ty));
        EXPECT_EQ(Got[L], Want)
            << Mnemonic << " lane " << L << " A=" << A << " B=" << B;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, OpSemanticsTest,
                         ::testing::ValuesIn(allTypedCases()),
                         typedCaseName);

//===----------------------------------------------------------------------===//
// Mac, Div, Cvt, Cmp and broadcast specifics
//===----------------------------------------------------------------------===//

TEST(OpSpecificsTest, MacAccumulates) {
  // vr8..vr11 start as params too: dst = dst + s0*s1.
  std::vector<uint32_t> In = {3, 4, 5, 6, 10, 20, 30, 40};
  auto Got = runOp("mac.4.dw", false, In);
  // Inputs map vr0..vr7; dst vr8..vr11 initialized to 0 (params only fill
  // vr0..vr7), so mac == mul here.
  EXPECT_EQ(Got[0], 30u);
  EXPECT_EQ(Got[3], 240u);
}

TEST(OpSpecificsTest, DivTruncatesTowardZero) {
  std::vector<uint32_t> In = {static_cast<uint32_t>(-7), 7,
                              static_cast<uint32_t>(-9), 100,
                              2, 2, 4, 7};
  auto Got = runOp("div.4.dw", false, In);
  EXPECT_EQ(static_cast<int32_t>(Got[0]), -3); // C++ trunc semantics
  EXPECT_EQ(static_cast<int32_t>(Got[1]), 3);
  EXPECT_EQ(static_cast<int32_t>(Got[2]), -2);
  EXPECT_EQ(static_cast<int32_t>(Got[3]), 14);
}

TEST(OpSpecificsTest, CvtSaturatesNarrowInteger) {
  exo::ExoPlatform P;
  exo::SharedBuffer Out = P.allocateShared(64, "out");
  xasm::SymbolBindings Binds;
  Binds.bindSurface("out", 0);
  auto K = cantFail(xasm::assembleKernel(
      "  cvt.4.b.dw [vr8..vr11] = [vr0..vr3]\n"
      "  mov.1.dw vr30 = 0\n"
      "  st.4.dw (out, vr30, 0) = [vr8..vr11]\n"
      "  halt\n",
      Binds));
  gma::KernelImage Img;
  Img.Code = K.Code;
  uint32_t Kid = P.device().registerKernel(std::move(Img));
  auto Table = std::make_shared<gma::SurfaceTable>();
  gma::SurfaceBinding S;
  S.Base = Out.Base;
  S.Width = 16;
  Table->push_back(S);
  gma::ShredDescriptor D;
  D.KernelId = Kid;
  D.Params = {300, -300, 17, -128};
  D.Surfaces = Table;
  P.device().enqueueShred(std::move(D));
  ASSERT_TRUE(static_cast<bool>(P.device().run(0.0)));
  EXPECT_EQ(P.load<int32_t>(Out.Base + 0), 127);   // saturated up
  EXPECT_EQ(P.load<int32_t>(Out.Base + 4), -128);  // saturated down
  EXPECT_EQ(P.load<int32_t>(Out.Base + 8), 17);    // in range
  EXPECT_EQ(P.load<int32_t>(Out.Base + 12), -128); // boundary
}

TEST(OpSpecificsTest, CvtFloatIntRoundTrip) {
  std::vector<uint32_t> In(8, 0);
  float F = -2.75f;
  std::memcpy(&In[0], &F, 4);
  // cvt.4.dw.f truncates toward zero.
  auto Got = runOp("cvt.4.dw.f", true, In);
  EXPECT_EQ(static_cast<int32_t>(Got[0]), -2);
}

TEST(OpSpecificsTest, ScalarBroadcastAppliesToAllLanes) {
  exo::ExoPlatform P;
  exo::SharedBuffer Out = P.allocateShared(64, "out");
  xasm::SymbolBindings Binds;
  Binds.bindSurface("out", 0);
  Binds.bindScalar("k", 4);
  auto K = cantFail(xasm::assembleKernel(
      "  add.4.dw [vr8..vr11] = [vr0..vr3], k\n"
      "  mov.1.dw vr30 = 0\n"
      "  st.4.dw (out, vr30, 0) = [vr8..vr11]\n"
      "  halt\n",
      Binds));
  gma::KernelImage Img;
  Img.Code = K.Code;
  uint32_t Kid = P.device().registerKernel(std::move(Img));
  auto Table = std::make_shared<gma::SurfaceTable>();
  gma::SurfaceBinding S;
  S.Base = Out.Base;
  S.Width = 16;
  Table->push_back(S);
  gma::ShredDescriptor D;
  D.KernelId = Kid;
  D.Params = {10, 20, 30, 40, 7}; // vr4 = k = 7
  D.Surfaces = Table;
  P.device().enqueueShred(std::move(D));
  ASSERT_TRUE(static_cast<bool>(P.device().run(0.0)));
  EXPECT_EQ(P.load<int32_t>(Out.Base + 0), 17);
  EXPECT_EQ(P.load<int32_t>(Out.Base + 12), 47);
}

TEST(OpSpecificsTest, CmpConditionsPerLane) {
  for (auto [Cond, Expect] :
       std::vector<std::pair<const char *, std::array<int, 4>>>{
           {"eq", {0, 1, 0, 0}},
           {"ne", {1, 0, 1, 1}},
           {"lt", {1, 0, 0, 0}},
           {"le", {1, 1, 0, 0}},
           {"gt", {0, 0, 1, 1}},
           {"ge", {0, 1, 1, 1}}}) {
    exo::ExoPlatform P;
    exo::SharedBuffer Out = P.allocateShared(64, "out");
    xasm::SymbolBindings Binds;
    Binds.bindSurface("out", 0);
    std::string Src =
        formatString("  cmp.%s.4.dw p1 = [vr0..vr3], [vr4..vr7]\n", Cond);
    Src += "  mov.4.dw [vr8..vr11] = 0\n"
           "  sel.4.dw p1, [vr8..vr11] = 1, 0\n"
           "  mov.1.dw vr30 = 0\n"
           "  st.4.dw (out, vr30, 0) = [vr8..vr11]\n"
           "  halt\n";
    auto K = cantFail(xasm::assembleKernel(Src, Binds));
    gma::KernelImage Img;
    Img.Code = K.Code;
    uint32_t Kid = P.device().registerKernel(std::move(Img));
    auto Table = std::make_shared<gma::SurfaceTable>();
    gma::SurfaceBinding S;
    S.Base = Out.Base;
    S.Width = 16;
    Table->push_back(S);
    gma::ShredDescriptor D;
    D.KernelId = Kid;
    D.Params = {1, 5, 9, 100, 2, 5, 3, 50}; // lanes: <, ==, >, >
    D.Surfaces = Table;
    P.device().enqueueShred(std::move(D));
    ASSERT_TRUE(static_cast<bool>(P.device().run(0.0)));
    for (unsigned L = 0; L < 4; ++L)
      EXPECT_EQ(P.load<int32_t>(Out.Base + L * 4), Expect[L])
          << Cond << " lane " << L;
  }
}

TEST(OpSpecificsTest, NarrowTypesWrapInStores) {
  // I16 add wraps mod 2^16 and stores sign-extended registers whose low
  // bytes hit memory.
  std::vector<uint32_t> In = {0x7fff, 0xffff8000u, 0, 0,
                              1, static_cast<uint32_t>(-1), 0, 0};
  auto Got = runOp("add.4.w", false, In);
  EXPECT_EQ(static_cast<int32_t>(Got[0]), -32768); // 0x7fff+1 wraps
  EXPECT_EQ(static_cast<int32_t>(Got[1]), 0x7fff); // -32768-1 wraps
}
