// A small JSON document model with a recursive-descent parser — the one
// JSON parser in crnkit. The service layer parses line-JSON requests with
// it, the proof cache loads its persisted form through it, json_check and
// bench_compare read BENCH artifacts with it, and tests round-trip every
// CLI/server JSON output through it (parse -> field access), so writer
// and parser stay in agreement about what the versioned schema emits.
//
// Numbers are kept both ways: as the int64 value when the token is an
// exact integer in range, and as the double value always. Object member
// order is preserved (round-trip friendly); duplicate keys keep the last
// value, like every lenient JSON reader.
#ifndef CRNKIT_UTIL_JSON_VALUE_H_
#define CRNKIT_UTIL_JSON_VALUE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace crnkit::util {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses exactly one JSON value spanning the whole input; throws
  /// std::invalid_argument with a byte offset on malformed text.
  [[nodiscard]] static JsonValue parse(const std::string& text);

  JsonValue() = default;

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type_ == Type::kString; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw std::invalid_argument on a type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;

  // --- arrays ---
  [[nodiscard]] const std::vector<JsonValue>& items() const;
  [[nodiscard]] std::size_t size() const { return items().size(); }
  [[nodiscard]] const JsonValue& at(std::size_t index) const;

  // --- objects ---
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>&
  members() const;
  /// Member lookup (last duplicate wins); nullptr when absent.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;
  [[nodiscard]] bool has(const std::string& key) const {
    return find(key) != nullptr;
  }
  /// find() that throws std::invalid_argument naming the missing key.
  [[nodiscard]] const JsonValue& get(const std::string& key) const;

  // --- convenience readers with defaults (absent or null -> fallback) ---
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;

 private:
  friend class JsonParser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::int64_t int_ = 0;
  bool int_exact_ = false;  ///< int_ holds the token's exact integer value
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

}  // namespace crnkit::util

#endif  // CRNKIT_UTIL_JSON_VALUE_H_
