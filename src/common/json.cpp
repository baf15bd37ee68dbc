#include "common/json.hpp"

#include <cmath>
#include <cstdio>

namespace ks {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string FormatDouble(double d) {
  // JSON has no NaN/Inf; the benches should never produce them, but a
  // report must stay parseable if one slips through.
  if (std::isnan(d) || std::isinf(d)) return "null";
  // Range first: casting a double outside int64_t's range is undefined.
  if (std::abs(d) < 1e15 &&
      d == static_cast<double>(static_cast<std::int64_t>(d))) {
    return std::to_string(static_cast<std::int64_t>(d)) + ".0";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  // %.17g round-trips exactly; trim to the shortest representation that
  // still round-trips so files stay readable.
  for (int prec = 1; prec < 17; ++prec) {
    char probe[64];
    std::snprintf(probe, sizeof(probe), "%.*g", prec, d);
    double back = 0.0;
    std::sscanf(probe, "%lf", &back);
    if (back == d) return probe;
  }
  return buf;
}

}  // namespace

void JsonValue::Set(const std::string& key, JsonValue value) {
  for (auto& [k, v] : fields_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  fields_.emplace_back(key, std::move(value));
}

void JsonValue::Push(JsonValue value) { items_.push_back(std::move(value)); }

JsonValue& JsonValue::MutableField(const std::string& key) {
  for (auto& [k, v] : fields_) {
    if (k == key) return v;
  }
  fields_.emplace_back(key, JsonValue());
  return fields_.back().second;
}

std::string JsonValue::FieldAsString(const std::string& key) const {
  for (const auto& [k, v] : fields_) {
    if (k == key && v.kind_ == Kind::kString) return v.string_;
  }
  return {};
}

void JsonValue::Write(std::string& out, int indent, bool pretty) const {
  const auto pad = [&](int n) {
    if (pretty) out.append(static_cast<std::size_t>(n) * 2, ' ');
  };
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kInt: out += std::to_string(int_); break;
    case Kind::kDouble: out += FormatDouble(double_); break;
    case Kind::kString:
      out += '"';
      out += JsonEscape(string_);
      out += '"';
      break;
    case Kind::kObject: {
      if (fields_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      if (pretty) out += '\n';
      for (std::size_t i = 0; i < fields_.size(); ++i) {
        pad(indent + 1);
        out += '"';
        out += JsonEscape(fields_[i].first);
        out += pretty ? "\": " : "\":";
        fields_[i].second.Write(out, indent + 1, pretty);
        if (i + 1 < fields_.size()) out += ',';
        if (pretty) out += '\n';
      }
      pad(indent);
      out += '}';
      break;
    }
    case Kind::kArray: {
      if (items_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      if (pretty) out += '\n';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        pad(indent + 1);
        items_[i].Write(out, indent + 1, pretty);
        if (i + 1 < items_.size()) out += ',';
        if (pretty) out += '\n';
      }
      pad(indent);
      out += ']';
      break;
    }
  }
}

std::string JsonValue::Dump() const {
  std::string out;
  Write(out, 0, /*pretty=*/false);
  return out;
}

std::string JsonValue::DumpPretty() const {
  std::string out;
  Write(out, 0, /*pretty=*/true);
  out += '\n';
  return out;
}

}  // namespace ks
