#pragma once
// Minimal JSON document model for the tuning-service wire protocol.
//
// The repo deliberately carries no third-party dependencies, and the
// protocol needs only a small, predictable subset: null, bool, numbers,
// strings, arrays and objects.  Objects preserve insertion order (a
// vector of members, not a map), so encoded frames are deterministic and
// diffable in tests and logs.  Integers are kept exact: a number lexed
// without '.', 'e' or overflow stays an int64 and round-trips digit for
// digit, which is what lets csp::Value configurations cross the wire
// without perturbation.
//
// parse() throws tunespace::ServiceError(kProtocol) on malformed input —
// the same taxonomy the rest of the service stack uses — including
// containers nested deeper than kMaxDepth, so hostile input cannot exhaust
// the parser's stack.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tunespace::util::json {

/// Deepest container nesting parse() accepts.
inline constexpr int kMaxDepth = 128;

class Value;
using Array = std::vector<Value>;
/// Object members in insertion order; keys are expected unique (set()
/// replaces, find() returns the first match).
using Object = std::vector<std::pair<std::string, Value>>;

/// A JSON document node.
class Value {
 public:
  enum class Kind : std::uint8_t { Null, Bool, Int, Double, String, Array, Object };

  Value() : kind_(Kind::Null) {}
  Value(std::nullptr_t) : kind_(Kind::Null) {}                        // NOLINT implicit
  Value(bool v) : kind_(Kind::Bool), bool_(v) {}                     // NOLINT implicit
  Value(int v) : kind_(Kind::Int), int_(v) {}                        // NOLINT implicit
  Value(std::int64_t v) : kind_(Kind::Int), int_(v) {}               // NOLINT implicit
  Value(std::uint64_t v);  // stays exact up to int64 max     NOLINT implicit
  Value(double v) : kind_(Kind::Double), double_(v) {}               // NOLINT implicit
  Value(const char* v) : kind_(Kind::String), string_(v) {}          // NOLINT implicit
  Value(std::string v) : kind_(Kind::String), string_(std::move(v)) {}  // NOLINT
  Value(Array v) : kind_(Kind::Array), array_(std::move(v)) {}       // NOLINT implicit
  Value(Object v) : kind_(Kind::Object), object_(std::move(v)) {}    // NOLINT implicit

  static Value object() { return Value(Object{}); }
  static Value array() { return Value(Array{}); }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_bool() const { return kind_ == Kind::Bool; }
  bool is_int() const { return kind_ == Kind::Int; }
  bool is_number() const { return kind_ == Kind::Int || kind_ == Kind::Double; }
  bool is_string() const { return kind_ == Kind::String; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_object() const { return kind_ == Kind::Object; }

  /// Lenient readers: wrong-kind nodes yield the fallback, so decoders can
  /// treat absent and mistyped fields uniformly.
  bool as_bool(bool fallback = false) const;
  double as_double(double fallback = 0) const;
  std::int64_t as_int(std::int64_t fallback = 0) const;
  std::uint64_t as_uint(std::uint64_t fallback = 0) const;
  const std::string& as_string() const;  ///< empty string for non-strings

  const Array& items() const;      ///< empty for non-arrays
  const Object& members() const;   ///< empty for non-objects

  /// First member with `key`, or nullptr (also for non-objects).
  const Value* find(std::string_view key) const;
  /// Member lookup that tolerates absence: missing keys read as null.
  const Value& at(std::string_view key) const;

  /// Append or replace a member (converts a null node into an object).
  Value& set(std::string key, Value value);
  /// Append an array element (converts a null node into an array).
  Value& push(Value value);

  /// Compact serialization (no whitespace), deterministic member order.
  std::string dump() const;

  /// Parse a complete document; trailing non-whitespace is an error.
  /// Throws tunespace::ServiceError(ErrorCode::kProtocol).
  static Value parse(std::string_view text);

 private:
  Kind kind_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace tunespace::util::json
