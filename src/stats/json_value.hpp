/// \file json_value.hpp
/// \brief A small owning JSON document model with a recursive-descent
///        parser — the read side that stats/json_report.hpp (write-only)
///        never needed until the serve wire protocol had to *consume* JSON.
///
/// Scope is deliberately narrow: UTF-8 pass-through, numbers as double
/// (with the exact integer range of double, plenty for ns counts and
/// cycle totals), objects as ordered key/value vectors preserving input
/// order.
///
/// The parser is strict — it fronts the serve wire protocol
/// (src/serve/), which makes its input attacker-adjacent for the first
/// time: trailing garbage after the top-level value, duplicate object
/// keys (previously resolved to the first occurrence, silently), and
/// non-grammar numbers (".5", "1.", "1e") are all hard errors.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dta::stats {

/// One parsed JSON value.  A tree of these owns all its storage.
class JsonValue {
public:
    enum class Kind : std::uint8_t {
        kNull,
        kBool,
        kNumber,
        kString,
        kArray,
        kObject
    };

    using Member = std::pair<std::string, JsonValue>;

    JsonValue() = default;

    [[nodiscard]] Kind kind() const { return kind_; }
    [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
    [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
    [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
    [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
    [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
    [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

    [[nodiscard]] bool as_bool() const { return flag_; }
    [[nodiscard]] double as_number() const { return number_; }
    [[nodiscard]] std::uint64_t as_u64() const {
        return number_ < 0 ? 0 : static_cast<std::uint64_t>(number_);
    }
    [[nodiscard]] const std::string& as_string() const { return string_; }
    [[nodiscard]] const std::vector<JsonValue>& items() const {
        return items_;
    }
    [[nodiscard]] const std::vector<Member>& members() const {
        return members_;
    }

    /// First member with key \p key, or null if absent (also on
    /// non-objects, so lookups chain without intermediate checks).
    [[nodiscard]] const JsonValue* find(std::string_view key) const;
    /// find() that also requires the member to have \p kind.
    [[nodiscard]] const JsonValue* find(std::string_view key,
                                        Kind kind) const;

    static JsonValue make_null() { return JsonValue(); }
    static JsonValue make_bool(bool v);
    static JsonValue make_number(double v);
    static JsonValue make_string(std::string v);
    static JsonValue make_array(std::vector<JsonValue> items);
    static JsonValue make_object(std::vector<Member> members);

private:
    Kind kind_ = Kind::kNull;
    bool flag_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> items_;
    std::vector<Member> members_;
};

/// Parse outcome: either a document or a one-line error with the byte
/// offset where parsing stopped.
struct JsonParseResult {
    bool ok = false;
    JsonValue value;
    std::string error;       ///< empty when ok
    std::size_t offset = 0;  ///< byte position of the failure
};

/// Parses one complete JSON document (trailing whitespace allowed,
/// trailing garbage is an error).
[[nodiscard]] JsonParseResult parse_json(std::string_view text);

/// Serialises \p v back to compact JSON (no whitespace).  Integer-valued
/// numbers print without a decimal point; everything else uses shortest
/// round-trip formatting.  dump(parse_json(x).value) is parseable by
/// parse_json — the serve client uses this to embed user-supplied job
/// specs into request frames.
[[nodiscard]] std::string dump_json(const JsonValue& v);

}  // namespace dta::stats
