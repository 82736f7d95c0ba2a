#pragma once
// A minimal JSON document tree with a parser and a serializer.
//
// The run report (docs/OBSERVABILITY.md), the checkpoint manifest, the
// serve journal and --config files are all written and read back through
// this one codec. It is the smallest dependency-free implementation that
// closes that loop: a value tree (null/bool/number/string/array/object), a strict
// recursive-descent parser, and a deterministic serializer (object members
// keep insertion order, so dump(parse(dump(x))) == dump(x)).
//
// Numbers remember whether they were integral: counters (calls, bytes) are
// 64-bit and must round-trip exactly, while timings are doubles. Integers
// outside int64 range are rejected by the parser; the writers here never
// produce them.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace trinity::util {

/// One JSON value. Cheap to move; copies deep-copy the subtree.
class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  /// Object members in insertion order (deterministic serialization).
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() = default;  ///< null
  Json(bool v) : kind_(Kind::kBool), bool_(v) {}
  Json(double v) : kind_(Kind::kNumber), num_(v) {}
  Json(std::int64_t v) : kind_(Kind::kNumber), num_(static_cast<double>(v)), int_(v), integral_(true) {}
  Json(int v) : Json(static_cast<std::int64_t>(v)) {}
  Json(std::uint64_t v) : Json(static_cast<std::int64_t>(v)) {}
  Json(std::string v) : kind_(Kind::kString), str_(std::move(v)) {}
  Json(const char* v) : Json(std::string(v)) {}

  /// Empty array / object values to build documents incrementally.
  [[nodiscard]] static Json array();
  [[nodiscard]] static Json object();

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }

  // Typed accessors; throw std::runtime_error on a kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  /// Exact integer value; throws when the number was not integral.
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& items() const;
  [[nodiscard]] const Object& members() const;

  /// Appends to an array value (converts a null value to an array first).
  void push_back(Json value);

  /// Sets `key` in an object value, replacing an existing member
  /// (converts a null value to an object first).
  void set(std::string key, Json value);

  /// Member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Json* find(const std::string& key) const;
  /// Member lookup; throws std::runtime_error when absent.
  [[nodiscard]] const Json& at(const std::string& key) const;

  /// Serializes the value. indent < 0 emits the compact single-line form;
  /// indent >= 0 pretty-prints with that many spaces per level.
  [[nodiscard]] std::string dump(int indent = -1) const;

  /// Strict parse of a complete JSON document (trailing non-whitespace is
  /// an error). Throws std::runtime_error with an offset on malformed text.
  [[nodiscard]] static Json parse(std::string_view text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::int64_t int_ = 0;
  bool integral_ = false;
  std::string str_;
  Array array_;
  Object object_;
};

}  // namespace trinity::util
