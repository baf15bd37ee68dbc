#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ks {

/// Minimal JSON value + writer for the benchmark reports (BENCH_*.json).
///
/// Build-only, no parser: the benches construct a JsonValue tree and
/// serialize it. Serialization is deterministic — object keys keep their
/// insertion order and doubles render with a fixed round-trippable format
/// — so the same results always produce byte-identical files, which is
/// what lets CI diff a parallel sweep against a serial one.
class JsonValue {
 public:
  JsonValue() : kind_(Kind::kNull) {}
  JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}  // NOLINT
  JsonValue(std::int64_t n) : kind_(Kind::kInt), int_(n) {}  // NOLINT
  JsonValue(int n) : kind_(Kind::kInt), int_(n) {}  // NOLINT
  JsonValue(std::size_t n)  // NOLINT
      : kind_(Kind::kInt), int_(static_cast<std::int64_t>(n)) {}
  JsonValue(double d) : kind_(Kind::kDouble), double_(d) {}  // NOLINT
  JsonValue(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}  // NOLINT
  JsonValue(const char* s) : kind_(Kind::kString), string_(s) {}  // NOLINT

  static JsonValue Object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }
  static JsonValue Array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }

  /// Object field append. Duplicate keys overwrite in place (order kept).
  void Set(const std::string& key, JsonValue value);

  /// Array element append.
  void Push(JsonValue value);

  /// In-place access to an object field; inserts a null field if missing.
  JsonValue& MutableField(const std::string& key);

  /// String value of an object field; "" when absent or not a string.
  std::string FieldAsString(const std::string& key) const;

  std::size_t size() const {
    return kind_ == Kind::kArray ? items_.size() : fields_.size();
  }

  /// Compact single-line serialization.
  std::string Dump() const;

  /// Pretty serialization with 2-space indentation and a trailing newline —
  /// the on-disk format of BENCH_*.json.
  std::string DumpPretty() const;

 private:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kObject, kArray };

  void Write(std::string& out, int indent, bool pretty) const;

  Kind kind_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<std::pair<std::string, JsonValue>> fields_;
  std::vector<JsonValue> items_;
};

/// Escapes `s` per RFC 8259 (quotes, backslash, control characters).
std::string JsonEscape(const std::string& s);

}  // namespace ks
