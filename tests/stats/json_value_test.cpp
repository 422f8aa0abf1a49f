// The strict JSON parser behind the serve wire protocol:
// hardened grammar (trailing garbage, duplicate keys, non-grammar
// numbers are hard errors) and the dump_json round trip the serve client
// relies on to canonicalise user job specs.
#include "stats/json_value.hpp"

#include <gtest/gtest.h>

#include <string>

namespace dta::stats {
namespace {

TEST(JsonParse, AcceptsCompleteDocuments) {
    EXPECT_TRUE(parse_json("null").ok);
    EXPECT_TRUE(parse_json("true").ok);
    EXPECT_TRUE(parse_json("[1,2,3]").ok);
    EXPECT_TRUE(parse_json("  {\"a\": 1}  ").ok);
    EXPECT_TRUE(parse_json("-0.5e3").ok);
    EXPECT_TRUE(parse_json("\"\\u0041\\n\"").ok);
}

TEST(JsonParse, TrailingGarbageIsAnError) {
    const JsonParseResult r = parse_json("{\"op\":\"ping\"}x");
    EXPECT_FALSE(r.ok);
    // The offset points at the offending byte so wire-protocol error
    // frames can name it.
    EXPECT_EQ(r.offset, 13u);

    EXPECT_FALSE(parse_json("1 2").ok);
    EXPECT_FALSE(parse_json("[] []").ok);
    // Trailing whitespace alone stays fine.
    EXPECT_TRUE(parse_json("1 \n\t ").ok);
}

TEST(JsonParse, DuplicateObjectKeysAreAnError) {
    EXPECT_FALSE(parse_json("{\"op\":\"ping\",\"op\":\"stats\"}").ok);
    // Same key at different nesting levels is fine.
    EXPECT_TRUE(parse_json("{\"a\":{\"a\":1},\"b\":{\"a\":2}}").ok);
}

TEST(JsonParse, NonGrammarNumbersAreErrors) {
    EXPECT_FALSE(parse_json(".5").ok);
    EXPECT_FALSE(parse_json("1.").ok);
    EXPECT_FALSE(parse_json("1e").ok);
    EXPECT_FALSE(parse_json("+1").ok);
    EXPECT_FALSE(parse_json("01").ok);
    EXPECT_FALSE(parse_json("-").ok);
    EXPECT_TRUE(parse_json("0").ok);
    EXPECT_TRUE(parse_json("-0").ok);
    EXPECT_TRUE(parse_json("1e+9").ok);
}

TEST(JsonParse, TruncatedDocumentsAreErrors) {
    EXPECT_FALSE(parse_json("").ok);
    EXPECT_FALSE(parse_json("{\"a\":").ok);
    EXPECT_FALSE(parse_json("[1,").ok);
    EXPECT_FALSE(parse_json("\"unterminated").ok);
}

TEST(JsonDump, RoundTripsThroughTheParser) {
    const std::string doc =
        "{\"name\":\"ci/mmul/orig\",\"cycles\":91513,\"ok\":true,"
        "\"ratio\":0.25,\"tags\":[\"a\",\"b\"],\"none\":null}";
    const JsonParseResult first = parse_json(doc);
    ASSERT_TRUE(first.ok);
    const std::string dumped = dump_json(first.value);
    const JsonParseResult second = parse_json(dumped);
    ASSERT_TRUE(second.ok) << second.error;
    // Compact form is already canonical: dumping again is a fixed point.
    EXPECT_EQ(dump_json(second.value), dumped);
    // Integer-valued numbers keep their integer spelling.
    EXPECT_NE(dumped.find("\"cycles\":91513"), std::string::npos);
}

TEST(JsonDump, EscapesControlCharactersAndQuotes) {
    const std::string dumped =
        dump_json(JsonValue::make_string("a\"b\\c\n\x01"));
    const JsonParseResult back = parse_json(dumped);
    ASSERT_TRUE(back.ok) << back.error;
    EXPECT_EQ(back.value.as_string(), "a\"b\\c\n\x01");
}

TEST(JsonFind, KindFilteredLookup) {
    const JsonParseResult r = parse_json("{\"n\":3,\"s\":\"x\"}");
    ASSERT_TRUE(r.ok);
    EXPECT_NE(r.value.find("n", JsonValue::Kind::kNumber), nullptr);
    EXPECT_EQ(r.value.find("n", JsonValue::Kind::kString), nullptr);
    EXPECT_EQ(r.value.find("missing"), nullptr);
    // find() on a non-object returns null instead of asserting, so
    // lookups chain without intermediate checks.
    EXPECT_EQ(JsonValue::make_number(1).find("x"), nullptr);
}

TEST(JsonValue, ParsesScalarsContainersAndEscapes) {
    const JsonParseResult r = parse_json(
        R"({"s": "a\"b\nA", "n": -2.5e2, "t": true, "f": false,
            "z": null, "arr": [1, [2]], "obj": {"k": 3}})");
    ASSERT_TRUE(r.ok) << r.error;
    const JsonValue& v = r.value;
    EXPECT_EQ(v.find("s")->as_string(), "a\"b\nA");
    EXPECT_DOUBLE_EQ(v.find("n")->as_number(), -250.0);
    EXPECT_TRUE(v.find("t")->as_bool());
    EXPECT_FALSE(v.find("f")->as_bool());
    EXPECT_TRUE(v.find("z")->is_null());
    ASSERT_EQ(v.find("arr")->items().size(), 2u);
    EXPECT_DOUBLE_EQ(v.find("arr")->items()[1].items()[0].as_number(), 2.0);
    EXPECT_DOUBLE_EQ(v.find("obj")->find("k")->as_number(), 3.0);
    EXPECT_EQ(v.find("missing"), nullptr);
    // Kind-filtered lookup.
    EXPECT_EQ(v.find("s", JsonValue::Kind::kNumber), nullptr);
    EXPECT_NE(v.find("n", JsonValue::Kind::kNumber), nullptr);
}

TEST(JsonValue, RejectsMalformedInput) {
    EXPECT_FALSE(parse_json("").ok);
    EXPECT_FALSE(parse_json("{").ok);
    EXPECT_FALSE(parse_json("[1,]").ok);
    EXPECT_FALSE(parse_json("{\"a\": 1,}").ok);
    EXPECT_FALSE(parse_json("\"unterminated").ok);
    EXPECT_FALSE(parse_json("truish").ok);
    EXPECT_FALSE(parse_json("1 2").ok);  // trailing garbage
    EXPECT_FALSE(parse_json("{\"a\" 1}").ok);
    const JsonParseResult r = parse_json("[1, nope]");
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(r.error.empty());
}

TEST(JsonValue, DepthIsBounded) {
    std::string deep;
    for (int i = 0; i < 200; ++i) {
        deep += '[';
    }
    deep += '1';
    for (int i = 0; i < 200; ++i) {
        deep += ']';
    }
    EXPECT_FALSE(parse_json(deep).ok);  // kMaxDepth = 128
}

}  // namespace
}  // namespace dta::stats
