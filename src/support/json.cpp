#include "support/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace dyncg {
namespace json {

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

void Writer::comma() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (first_.back()) {
      first_.back() = false;
    } else {
      out_ += ',';
    }
  }
}

void Writer::begin_object() {
  comma();
  out_ += '{';
  first_.push_back(true);
}

void Writer::end_object() {
  out_ += '}';
  first_.pop_back();
}

void Writer::begin_array() {
  comma();
  out_ += '[';
  first_.push_back(true);
}

void Writer::end_array() {
  out_ += ']';
  first_.pop_back();
}

void Writer::key(const std::string& k) {
  comma();
  out_ += '"';
  out_ += escape(k);
  out_ += "\":";
  after_key_ = true;
}

void Writer::value(const std::string& v) {
  comma();
  out_ += '"';
  out_ += escape(v);
  out_ += '"';
}

void Writer::value(const char* v) { value(std::string(v)); }

void Writer::value(double v) {
  comma();
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  // JSON has no inf/nan literals; clamp to null.
  if (std::strstr(buf, "inf") != nullptr || std::strstr(buf, "nan") != nullptr) {
    out_ += "null";
  } else {
    out_ += buf;
  }
}

void Writer::value(std::uint64_t v) {
  comma();
  out_ += std::to_string(v);
}

void Writer::value(std::int64_t v) {
  comma();
  out_ += std::to_string(v);
}

void Writer::value(bool v) {
  comma();
  out_ += v ? "true" : "false";
}

void Writer::value_null() {
  comma();
  out_ += "null";
}

void Writer::value_raw(const std::string& raw) {
  comma();
  out_ += raw;
}

const Value* Value::find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& kv : object) {
    if (kv.first == key) return &kv.second;
  }
  return nullptr;
}

namespace {

struct Parser {
  const char* p;
  const char* end;
  std::string err;

  bool fail(const std::string& what) {
    if (err.empty()) {
      err = what + " at offset " + std::to_string(p - begin);
    }
    return false;
  }

  const char* begin;

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
      ++p;
    }
  }

  bool literal(const char* lit) {
    std::size_t len = std::strlen(lit);
    if (static_cast<std::size_t>(end - p) < len ||
        std::memcmp(p, lit, len) != 0) {
      return fail(std::string("expected '") + lit + "'");
    }
    p += len;
    return true;
  }

  // Appends the UTF-8 encoding of a code point.
  static void append_utf8(std::string& s, unsigned cp) {
    if (cp < 0x80) {
      s += static_cast<char>(cp);
    } else if (cp < 0x800) {
      s += static_cast<char>(0xC0 | (cp >> 6));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      s += static_cast<char>(0xE0 | (cp >> 12));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool parse_string(std::string& out) {
    if (p >= end || *p != '"') return fail("expected string");
    ++p;
    while (p < end && *p != '"') {
      if (*p == '\\') {
        ++p;
        if (p >= end) return fail("truncated escape");
        switch (*p) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (end - p < 5) return fail("truncated \\u escape");
            unsigned cp = 0;
            for (int i = 1; i <= 4; ++i) {
              char c = p[i];
              cp <<= 4;
              if (c >= '0' && c <= '9') cp |= static_cast<unsigned>(c - '0');
              else if (c >= 'a' && c <= 'f') cp |= static_cast<unsigned>(c - 'a' + 10);
              else if (c >= 'A' && c <= 'F') cp |= static_cast<unsigned>(c - 'A' + 10);
              else return fail("bad \\u escape");
            }
            // Surrogate halves decode to U+FFFD (see header contract).
            if (cp >= 0xD800 && cp <= 0xDFFF) cp = 0xFFFD;
            append_utf8(out, cp);
            p += 4;
            break;
          }
          default: return fail("bad escape");
        }
        ++p;
      } else if (static_cast<unsigned char>(*p) < 0x20) {
        return fail("raw control character in string");
      } else {
        out += *p++;
      }
    }
    if (p >= end) return fail("unterminated string");
    ++p;  // closing quote
    return true;
  }

  static bool is_digit(char c) { return c >= '0' && c <= '9'; }

  void skip_digits() {
    while (p < end && is_digit(*p)) ++p;
  }

  bool parse_number(Value& v) {
    const char* start = p;
    if (p < end && *p == '-') ++p;
    if (p >= end || !is_digit(*p)) return fail("bad number");
    if (*p == '0') {
      ++p;  // RFC 8259: no leading zeros ("01" is two tokens, i.e. invalid)
    } else {
      skip_digits();
    }
    if (p < end && *p == '.') {
      ++p;
      if (p >= end || !is_digit(*p)) return fail("bad number fraction");
      skip_digits();
    }
    if (p < end && (*p == 'e' || *p == 'E')) {
      ++p;
      if (p < end && (*p == '+' || *p == '-')) ++p;
      if (p >= end || !is_digit(*p)) return fail("bad number exponent");
      skip_digits();
    }
    v.type = Value::Type::kNumber;
    // Both conversions round correctly, so they agree bit for bit wherever
    // from_chars succeeds.  On overflow and underflow it reports an error
    // and stores nothing; strtod then supplies +-inf or the flushed value.
    std::from_chars_result r = std::from_chars(start, p, v.number);
    if (r.ec != std::errc() || r.ptr != p) {
      v.number = std::strtod(std::string(start, p).c_str(), nullptr);
    }
    return true;
  }

  bool parse_value(Value& v, int depth) {
    if (depth > 256) return fail("nesting too deep");
    skip_ws();
    if (p >= end) return fail("unexpected end of input");
    switch (*p) {
      case '{': {
        ++p;
        v.type = Value::Type::kObject;
        skip_ws();
        if (p < end && *p == '}') {
          ++p;
          return true;
        }
        // Members and elements are parsed in place: the recursion only
        // touches the node just appended, never its parent's vector.
        for (;;) {
          skip_ws();
          auto& member = v.object.emplace_back();
          if (!parse_string(member.first)) return false;
          skip_ws();
          if (p >= end || *p != ':') return fail("expected ':'");
          ++p;
          if (!parse_value(member.second, depth + 1)) return false;
          skip_ws();
          if (p < end && *p == ',') {
            ++p;
            continue;
          }
          if (p < end && *p == '}') {
            ++p;
            return true;
          }
          return fail("expected ',' or '}'");
        }
      }
      case '[': {
        ++p;
        v.type = Value::Type::kArray;
        skip_ws();
        if (p < end && *p == ']') {
          ++p;
          return true;
        }
        for (;;) {
          if (!parse_value(v.array.emplace_back(), depth + 1)) return false;
          skip_ws();
          if (p < end && *p == ',') {
            ++p;
            continue;
          }
          if (p < end && *p == ']') {
            ++p;
            return true;
          }
          return fail("expected ',' or ']'");
        }
      }
      case '"':
        v.type = Value::Type::kString;
        return parse_string(v.string);
      case 't':
        v.type = Value::Type::kBool;
        v.boolean = true;
        return literal("true");
      case 'f':
        v.type = Value::Type::kBool;
        v.boolean = false;
        return literal("false");
      case 'n':
        v.type = Value::Type::kNull;
        return literal("null");
      default:
        return parse_number(v);
    }
  }
};

}  // namespace

bool parse(const std::string& text, Value* out, std::string* error) {
  Parser ps;
  ps.p = text.data();
  ps.begin = text.data();
  ps.end = text.data() + text.size();
  Value v;
  if (!ps.parse_value(v, 0)) {
    if (error != nullptr) *error = ps.err;
    return false;
  }
  ps.skip_ws();
  if (ps.p != ps.end) {
    if (error != nullptr) *error = "trailing garbage after document";
    return false;
  }
  *out = std::move(v);
  return true;
}

namespace {

void dump_number(std::string& out, double v) {
  // Counters and ledger figures parse into doubles; print exact integers
  // as integers so round-tripping a registry dump is byte-stable.
  constexpr double kExact = 9007199254740992.0;  // 2^53
  if (!std::isfinite(v)) {
    out += "null";  // JSON has no inf/nan literals (as Writer::value)
    return;
  }
  if (v < kExact && v > -kExact && v == std::trunc(v)) {
    out += std::to_string(static_cast<long long>(v));
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void dump_value(std::string& out, const Value& v) {
  switch (v.type) {
    case Value::Type::kNull:
      out += "null";
      return;
    case Value::Type::kBool:
      out += v.boolean ? "true" : "false";
      return;
    case Value::Type::kNumber:
      dump_number(out, v.number);
      return;
    case Value::Type::kString:
      out += '"';
      out += escape(v.string);
      out += '"';
      return;
    case Value::Type::kArray: {
      out += '[';
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        if (i != 0) out += ',';
        dump_value(out, v.array[i]);
      }
      out += ']';
      return;
    }
    case Value::Type::kObject: {
      out += '{';
      for (std::size_t i = 0; i < v.object.size(); ++i) {
        if (i != 0) out += ',';
        out += '"';
        out += escape(v.object[i].first);
        out += "\":";
        dump_value(out, v.object[i].second);
      }
      out += '}';
      return;
    }
  }
}

}  // namespace

std::string dump(const Value& v) {
  std::string out;
  dump_value(out, v);
  return out;
}

}  // namespace json
}  // namespace dyncg
