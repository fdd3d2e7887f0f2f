// Tests for the shared JSON emission helper: escaping (including the
// control characters and quote/backslash cases the old bench escaper
// mishandled), comma placement, and nesting — plus the tokens the parser
// must refuse, which is what json_check promises for BENCH artifacts.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/json_value.h"
#include "util/json_writer.h"

namespace crnkit::util {
namespace {

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(json_escape("fig1/min"), "fig1/min");
}

TEST(JsonEscape, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("\\\""), "\\\\\\\"");
}

TEST(JsonEscape, EscapesControlCharacters) {
  EXPECT_EQ(json_escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
  EXPECT_EQ(json_escape(std::string(1, '\x1f')), "\\u001f");
}

TEST(JsonWriter, FlatObject) {
  JsonWriter w;
  w.begin_object().kv("a", 1).kv("b", "two").kv("c", true).end_object();
  EXPECT_EQ(w.str(), "{\"a\": 1, \"b\": \"two\", \"c\": true}");
}

TEST(JsonWriter, NestedArraysAndObjects) {
  JsonWriter w;
  w.begin_object().key("xs").begin_array();
  w.value(1).value(2);
  w.begin_object().kv("deep", false).end_object();
  w.end_array().kv("n", std::size_t{3}).end_object();
  EXPECT_EQ(w.str(), "{\"xs\": [1, 2, {\"deep\": false}], \"n\": 3}");
}

TEST(JsonWriter, EmptyContainers) {
  JsonWriter w;
  w.begin_object().key("a").begin_array().end_array().key("o")
      .begin_object().end_object().end_object();
  EXPECT_EQ(w.str(), "{\"a\": [], \"o\": {}}");
}

TEST(JsonWriter, FixedPrecisionDoubles) {
  JsonWriter w;
  w.begin_object().kv_fixed("x", 1.0 / 3.0, 3).end_object();
  EXPECT_EQ(w.str(), "{\"x\": 0.333}");
}

TEST(JsonWriter, NonFiniteDoublesEmitNull) {
  // JSON has no NaN/Infinity tokens: a zero-event bench record or a
  // zero-silent-trial rate must serialize as null, not "nan"/"inf".
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  JsonWriter w;
  w.begin_object()
      .kv("nan", nan)
      .kv("inf", inf)
      .kv("neg_inf", -inf)
      .kv_fixed("fixed_nan", nan, 3)
      .kv("fine", 1.5)
      .end_object();
  EXPECT_EQ(w.str(),
            "{\"nan\": null, \"inf\": null, "
            "\"neg_inf\": null, \"fixed_nan\": null, \"fine\": 1.5}");
  EXPECT_NO_THROW((void)JsonValue::parse(w.str()));
}

TEST(JsonValue, RejectsWhatJsonCheckPromisesToCatch) {
  const char* const rejected[] = {
      // Non-finite numbers have no JSON token.
      "NaN", "{\"x\": NaN}", "Infinity", "[Infinity]", "-Infinity",
      "{\"x\": -Infinity}",
      // Truncated object or array.
      "{\"a\": 1", "[1, 2", "{\"a\": [1, 2}",
      // Unterminated string.
      "\"abc", "{\"a\": \"abc}",
      // Trailing garbage.
      "{} x", "[1] ]", "1 2",
      // Bare trailing comma.
      "{\"a\": 1,}", "[1, 2,]",
  };
  for (const char* text : rejected) {
    EXPECT_THROW((void)JsonValue::parse(text), std::invalid_argument)
        << text;
  }
}

TEST(JsonWriter, NonFiniteInsideArrayKeepsCommaDiscipline) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  JsonWriter w;
  w.begin_array().value(1.0).value(nan).value(2.0).end_array();
  EXPECT_EQ(w.str(), "[1, null, 2]");
  EXPECT_NO_THROW((void)JsonValue::parse(w.str()));
}

TEST(JsonWriter, KeysAreEscaped) {
  JsonWriter w;
  w.begin_object().kv("a\"b", 1).end_object();
  EXPECT_EQ(w.str(), "{\"a\\\"b\": 1}");
}

TEST(JsonWriter, RawMemberKeepsCommaDiscipline) {
  JsonWriter w;
  w.begin_object().kv("a", 1).raw_member("\"speedup\": 2.50").kv("b", 2)
      .end_object();
  EXPECT_EQ(w.str(), "{\"a\": 1, \"speedup\": 2.50, \"b\": 2}");
}

}  // namespace
}  // namespace crnkit::util
