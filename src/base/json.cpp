#include "src/base/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace qhip {

namespace {

[[noreturn]] void malformed(const std::string& msg) {
  throw CodedError(ErrorCode::kMalformedInput, "json: " + msg);
}

// RFC 8259's number grammar, -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
// — stricter than strtod, which also takes "+1", ".5", "1.", "01" or "1.e5".
bool is_json_number(const std::string& t) {
  std::size_t i = 0;
  const auto digits = [&] {
    const std::size_t from = i;
    while (i < t.size() && std::isdigit(static_cast<unsigned char>(t[i]))) ++i;
    return i > from;
  };
  if (i < t.size() && t[i] == '-') ++i;
  if (i < t.size() && t[i] == '0') {
    ++i;
  } else if (!digits()) {
    return false;
  }
  if (i < t.size() && t[i] == '.' && (++i, !digits())) return false;
  if (i < t.size() && (t[i] == 'e' || t[i] == 'E')) {
    ++i;
    if (i < t.size() && (t[i] == '+' || t[i] == '-')) ++i;
    if (!digits()) return false;
  }
  return i == t.size();
}

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  JsonPtr parse() {
    JsonPtr v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    malformed(msg + " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_lit(const char* lit) {
    std::size_t n = 0;
    while (lit[n]) ++n;
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonPtr value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      if (++depth_ > kJsonMaxDepth) {
        fail("nesting deeper than " + std::to_string(kJsonMaxDepth));
      }
      JsonPtr v = c == '{' ? object() : array();
      --depth_;
      return v;
    }
    if (c == '"') return JsonValue::make_string(string());
    if (c == 't') {
      if (!consume_lit("true")) fail("bad literal");
      return JsonValue::make_bool(true);
    }
    if (c == 'f') {
      if (!consume_lit("false")) fail("bad literal");
      return JsonValue::make_bool(false);
    }
    if (c == 'n') {
      if (!consume_lit("null")) fail("bad literal");
      return JsonValue::make_null();
    }
    return number();
  }

  JsonPtr object() {
    expect('{');
    JsonPtr obj = JsonValue::make_object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      // Appended without set()'s dedupe scan, which would make an object
      // quadratic in its key count; find() returns the last duplicate.
      obj->members.emplace_back(std::move(key), value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return obj;
      }
      fail("expected ',' or '}' in object");
    }
  }

  JsonPtr array() {
    expect('[');
    JsonPtr arr = JsonValue::make_array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr->items.push_back(value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return arr;
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("short \\u escape");
          unsigned v = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            v <<= 4;
            if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // The wire schema is ASCII; encode BMP code points as UTF-8.
          if (v < 0x80) {
            out.push_back(static_cast<char>(v));
          } else if (v < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (v >> 6)));
            out.push_back(static_cast<char>(0x80 | (v & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (v >> 12)));
            out.push_back(static_cast<char>(0x80 | ((v >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (v & 0x3F)));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonPtr number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string tok = s_.substr(start, pos_ - start);
    if (!is_json_number(tok)) {
      pos_ = start;
      fail("malformed number '" + tok + "'");
    }
    // strtod reads every grammatical token whole.
    JsonPtr n = JsonValue::make_number(std::strtod(tok.c_str(), nullptr));
    n->raw_number = tok;
    return n;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // open arrays/objects around pos_
};

void dump_into(const JsonValue& v, std::string* out) {
  switch (v.type) {
    case JsonType::kNull: *out += "null"; return;
    case JsonType::kBool: *out += v.boolean ? "true" : "false"; return;
    case JsonType::kNumber:
      *out += v.raw_number.empty() ? json_double(v.number) : v.raw_number;
      return;
    case JsonType::kString:
      out->push_back('"');
      json_escape(v.str, out);
      out->push_back('"');
      return;
    case JsonType::kArray: {
      out->push_back('[');
      bool first = true;
      for (const auto& e : v.items) {
        if (!first) out->push_back(',');
        first = false;
        dump_into(*e, out);
      }
      out->push_back(']');
      return;
    }
    case JsonType::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [k, e] : v.members) {
        if (!first) out->push_back(',');
        first = false;
        out->push_back('"');
        json_escape(k, out);
        *out += "\":";
        dump_into(*e, out);
      }
      out->push_back('}');
      return;
    }
  }
}

}  // namespace

JsonPtr JsonValue::make_null() { return std::make_shared<JsonValue>(); }

JsonPtr JsonValue::make_bool(bool b) {
  JsonPtr v = std::make_shared<JsonValue>();
  v->type = JsonType::kBool;
  v->boolean = b;
  return v;
}

JsonPtr JsonValue::make_number(double d) {
  JsonPtr v = std::make_shared<JsonValue>();
  v->type = JsonType::kNumber;
  v->number = d;
  return v;
}

JsonPtr JsonValue::make_uint(std::uint64_t u) {
  JsonPtr v = std::make_shared<JsonValue>();
  v->type = JsonType::kNumber;
  v->number = static_cast<double>(u);
  v->raw_number = std::to_string(u);  // exact on the wire even above 2^53
  return v;
}

JsonPtr JsonValue::make_string(std::string s) {
  JsonPtr v = std::make_shared<JsonValue>();
  v->type = JsonType::kString;
  v->str = std::move(s);
  return v;
}

JsonPtr JsonValue::make_array() {
  JsonPtr v = std::make_shared<JsonValue>();
  v->type = JsonType::kArray;
  return v;
}

JsonPtr JsonValue::make_object() {
  JsonPtr v = std::make_shared<JsonValue>();
  v->type = JsonType::kObject;
  return v;
}

void JsonValue::set(const std::string& key, JsonPtr v) {
  if (type != JsonType::kObject || !v) return;
  for (auto& [k, e] : members) {
    if (k == key) {
      e = std::move(v);
      return;
    }
  }
  members.emplace_back(key, std::move(v));
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type != JsonType::kObject) return nullptr;
  for (auto it = members.rbegin(); it != members.rend(); ++it) {
    if (it->first == key) return it->second.get();
  }
  return nullptr;
}

bool JsonValue::as_bool(const std::string& ctx) const {
  if (type != JsonType::kBool) malformed(ctx + ": expected a boolean");
  return boolean;
}

double JsonValue::as_double(const std::string& ctx) const {
  if (type != JsonType::kNumber) malformed(ctx + ": expected a number");
  return number;
}

std::uint64_t JsonValue::as_uint(const std::string& ctx) const {
  if (type != JsonType::kNumber) malformed(ctx + ": expected a number");
  // Prefer the raw wire token: uint64 values above 2^53 are not exactly
  // representable as doubles, and seeds are uint64.
  const std::string& tok = raw_number.empty() ? std::to_string(number) : raw_number;
  // strtoull silently wraps negatives ("-1" -> 2^64-1), so insist on a pure
  // digit string before converting.
  if (tok.empty() || tok.find_first_not_of("0123456789") != std::string::npos) {
    malformed(ctx + ": expected an unsigned integer, got '" + tok + "'");
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
  if (errno != 0 || end != tok.c_str() + tok.size()) {
    malformed(ctx + ": expected an unsigned integer, got '" + tok + "'");
  }
  return static_cast<std::uint64_t>(v);
}

const std::string& JsonValue::as_string(const std::string& ctx) const {
  if (type != JsonType::kString) malformed(ctx + ": expected a string");
  return str;
}

const std::vector<JsonPtr>& JsonValue::as_array(const std::string& ctx) const {
  if (type != JsonType::kArray) malformed(ctx + ": expected an array");
  return items;
}

std::string JsonValue::dump() const {
  std::string out;
  dump_into(*this, &out);
  return out;
}

JsonPtr json_parse(const std::string& text) { return Parser(text).parse(); }

void json_escape(std::string_view s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
}

std::string json_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace qhip
