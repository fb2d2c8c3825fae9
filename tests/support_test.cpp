//===- tests/support_test.cpp - Unit tests for src/support -----------------===//

#include "support/Error.h"
#include "support/Format.h"
#include "support/Json.h"
#include "support/Random.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

using namespace exochi;

TEST(ErrorTest, SuccessIsFalsy) {
  Error E = Error::success();
  EXPECT_FALSE(E);
  EXPECT_EQ(E.message(), "");
}

TEST(ErrorTest, FailureCarriesMessage) {
  Error E = Error::make("boom");
  EXPECT_TRUE(static_cast<bool>(E));
  EXPECT_EQ(E.message(), "boom");
}

TEST(ExpectedTest, HoldsValue) {
  Expected<int> E(42);
  ASSERT_TRUE(static_cast<bool>(E));
  EXPECT_EQ(*E, 42);
}

TEST(ExpectedTest, HoldsError) {
  Expected<int> E(Error::make("nope"));
  EXPECT_FALSE(static_cast<bool>(E));
  EXPECT_EQ(E.message(), "nope");
  Error Err = E.takeError();
  EXPECT_TRUE(static_cast<bool>(Err));
}

TEST(FormatTest, FormatsLikePrintf) {
  EXPECT_EQ(formatString("x=%d y=%s", 7, "hi"), "x=7 y=hi");
  EXPECT_EQ(formatString("%05.2f", 3.14159), "03.14");
  EXPECT_EQ(formatString("empty"), "empty");
}

TEST(StringUtilsTest, Trim) {
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n"), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StringUtilsTest, Split) {
  auto P = split("a,b,,c", ',');
  ASSERT_EQ(P.size(), 4u);
  EXPECT_EQ(P[0], "a");
  EXPECT_EQ(P[1], "b");
  EXPECT_EQ(P[2], "");
  EXPECT_EQ(P[3], "c");
}

TEST(StringUtilsTest, SplitLinesHandlesCrLf) {
  auto L = splitLines("one\r\ntwo\nthree");
  ASSERT_EQ(L.size(), 3u);
  EXPECT_EQ(L[0], "one");
  EXPECT_EQ(L[1], "two");
  EXPECT_EQ(L[2], "three");
}

TEST(StringUtilsTest, ParseInt) {
  EXPECT_EQ(parseInt("42").value(), 42);
  EXPECT_EQ(parseInt("-7").value(), -7);
  EXPECT_EQ(parseInt("0x10").value(), 16);
  EXPECT_FALSE(parseInt("").has_value());
  EXPECT_FALSE(parseInt("12abc").has_value());
  EXPECT_FALSE(parseInt("abc").has_value());
}

TEST(StringUtilsTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(parseDouble("2.5").value(), 2.5);
  EXPECT_DOUBLE_EQ(parseDouble("-1e3").value(), -1000.0);
  EXPECT_FALSE(parseDouble("1.2.3").has_value());
}

TEST(RngTest, Deterministic) {
  Rng A(123), B(123);
  for (int K = 0; K < 100; ++K)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, RangesRespected) {
  Rng R(7);
  for (int K = 0; K < 1000; ++K) {
    int64_t V = R.nextInRange(-5, 5);
    EXPECT_GE(V, -5);
    EXPECT_LE(V, 5);
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
    EXPECT_LT(R.nextBelow(10), 10u);
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int K = 0; K < 64; ++K)
    if (A.next() == B.next())
      ++Same;
  EXPECT_LT(Same, 4);
}

namespace {

struct JsonRow {
  unsigned Lane = 0;
  bool Host = false;
  double Ns = 0;

  static constexpr auto jsonFields() {
    using S = JsonRow;
    return json::fields("lane", &S::Lane, "host", &S::Host, "ns", &S::Ns,
                        "twice", [](const S &R) { return R.Lane * 2; });
  }
};

struct JsonDoc {
  std::string Name;
  uint64_t Count = 0;
  std::optional<double> Tail;
  std::vector<JsonRow> Rows;
  std::vector<std::vector<int>> Grid;

  static constexpr auto jsonFields() {
    using S = JsonDoc;
    return json::fields("name", &S::Name, "count", &S::Count, "tail",
                        &S::Tail, "rows", &S::Rows, "grid", &S::Grid);
  }
};

} // namespace

TEST(JsonTest, EscapesQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(json::escape("plain"), "plain");
  EXPECT_EQ(json::escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json::escape("\n\t\r"), "\\n\\t\\r");
  EXPECT_EQ(json::escape(std::string("\x01\x1f\0", 3)),
            "\\u0001\\u001f\\u0000");
  // Bytes from 0x20 up, UTF-8 included, pass through unchanged.
  EXPECT_EQ(json::escape("\x7f \xc3\xa9"), "\x7f \xc3\xa9");
  EXPECT_EQ(json::render(std::string("k\"\n")), "\"k\\\"\\n\"");
}

TEST(JsonTest, IntegersPrintExactly) {
  EXPECT_EQ(json::render(std::numeric_limits<uint64_t>::max()),
            "18446744073709551615");
  EXPECT_EQ(json::render(std::numeric_limits<int64_t>::min()),
            "-9223372036854775808");
  EXPECT_EQ(json::render(uint8_t{200}), "200");
  EXPECT_EQ(json::render(true), "true");
}

TEST(JsonTest, DoublesPrintShortestRoundTrip) {
  EXPECT_EQ(json::render(0.0), "0");
  EXPECT_EQ(json::render(1062.5), "1062.5");
  EXPECT_EQ(json::render(3734.0), "3734");
  EXPECT_EQ(json::render(0.1), "0.1");
  EXPECT_EQ(json::render(1e21), "1e+21");
  EXPECT_EQ(json::render(-2.5e-7), "-2.5e-07");
  double Odd = 1809.235382308846;
  EXPECT_EQ(std::stod(json::render(Odd)), Odd);
  EXPECT_EQ(json::render(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json::render(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(JsonTest, ListedStructsNestedRowsAndArrays) {
  JsonDoc D;
  D.Name = "x";
  D.Count = std::numeric_limits<uint64_t>::max();
  D.Rows = {{0, false, 1.5}, {2, true, 3}};
  D.Grid = {{1, 2}, {}, {3}};
  EXPECT_EQ(json::render(D),
            "{\"name\": \"x\", \"count\": 18446744073709551615, "
            "\"tail\": null, \"rows\": [{\"lane\": 0, \"host\": false, "
            "\"ns\": 1.5, \"twice\": 0}, {\"lane\": 2, \"host\": true, "
            "\"ns\": 3, \"twice\": 4}], \"grid\": [[1, 2], [], [3]]}");
  D.Tail = 0.25;
  D.Rows.clear();
  EXPECT_NE(json::render(D).find("\"tail\": 0.25, \"rows\": [], "),
            std::string::npos);
}

TEST(JsonTest, StylesCompactAndOneItemPerLine) {
  JsonDoc D;
  D.Rows = {{1, false, 2}};
  json::Writer Lined({.LineDepth = 2});
  Lined.beginObject().member("rows", D.Rows).member("n", 1).endObject();
  EXPECT_EQ(Lined.take(),
            "{\n  \"rows\": [\n    {\"lane\": 1, \"host\": false, \"ns\": 2, "
            "\"twice\": 2}\n  ],\n  \"n\": 1\n}");
  json::Writer Compact({.Compact = true});
  Compact.beginObject().member("a", 1).key("b").beginArray();
  Compact.value("x").raw("{}").endArray().endObject();
  EXPECT_EQ(Compact.take(), "{\"a\":1,\"b\":[\"x\",{}]}");
}
