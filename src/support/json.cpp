#include "support/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "support/assert.hpp"

namespace dyncg {
namespace json {

void append_escaped(std::string& out, std::string_view s) {
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
}

void Writer::comma() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (depth_ > 0) {
    const std::uint64_t bit = std::uint64_t{1} << (depth_ - 1);
    if (first_ & bit) {
      first_ &= ~bit;
    } else {
      out_ += ',';
    }
  }
}

void Writer::open(char bracket) {
  comma();
  out_ += bracket;
  DYNCG_ASSERT(depth_ < 64, "json::Writer nests at most 64 deep");
  first_ |= std::uint64_t{1} << depth_;
  ++depth_;
}

void Writer::close(char bracket) {
  out_ += bracket;
  --depth_;
}

void Writer::key(std::string_view k) {
  comma();
  out_ += '"';
  append_escaped(out_, k);
  out_ += "\":";
  after_key_ = true;
}

void Writer::value(std::string_view v) {
  comma();
  out_ += '"';
  append_escaped(out_, v);
  out_ += '"';
}

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
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void Writer::value(std::int64_t v) {
  comma();
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void Writer::value(bool v) {
  comma();
  out_ += v ? "true" : "false";
}

void Writer::value_null() {
  comma();
  out_ += "null";
}

void Writer::value_raw(std::string_view raw) {
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

bool Reader::fail(std::string_view what) {
  if (error_.empty()) {
    error_ = what;
    error_ += " at offset ";
    error_ += std::to_string(p_ - begin_);
  }
  return false;
}

void Reader::skip_ws() {
  while (p_ < end_ &&
         (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
    ++p_;
  }
}

bool Reader::literal(std::string_view lit) {
  if (static_cast<std::size_t>(end_ - p_) < lit.size() ||
      std::memcmp(p_, lit.data(), lit.size()) != 0) {
    return fail("expected '" + std::string(lit) + "'");
  }
  p_ += lit.size();
  return true;
}

namespace {

// Appends the UTF-8 encoding of a code point.
void append_utf8(std::string& s, unsigned cp) {
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

bool is_digit(char c) { return c >= '0' && c <= '9'; }

}  // namespace

bool Reader::read_string(std::string* out) {
  if (p_ >= end_ || *p_ != '"') return fail("expected string");
  ++p_;
  while (p_ < end_ && *p_ != '"') {
    if (*p_ == '\\') {
      ++p_;
      if (p_ >= end_) return fail("truncated escape");
      char c = 0;
      switch (*p_) {
        case '"': c = '"'; break;
        case '\\': c = '\\'; break;
        case '/': c = '/'; break;
        case 'b': c = '\b'; break;
        case 'f': c = '\f'; break;
        case 'n': c = '\n'; break;
        case 'r': c = '\r'; break;
        case 't': c = '\t'; break;
        case 'u': {
          if (end_ - p_ < 5) return fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 1; i <= 4; ++i) {
            const char h = p_[i];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape");
          }
          // Surrogate halves decode to U+FFFD (see header contract).
          if (cp >= 0xD800 && cp <= 0xDFFF) cp = 0xFFFD;
          if (out != nullptr) append_utf8(*out, cp);
          p_ += 5;
          continue;
        }
        default: return fail("bad escape");
      }
      if (out != nullptr) *out += c;
      ++p_;
    } else if (static_cast<unsigned char>(*p_) < 0x20) {
      return fail("raw control character in string");
    } else {
      // A run of plain characters is appended at once.
      const char* run = p_;
      while (p_ < end_ && *p_ != '"' && *p_ != '\\' &&
             static_cast<unsigned char>(*p_) >= 0x20) {
        ++p_;
      }
      if (out != nullptr) out->append(run, static_cast<std::size_t>(p_ - run));
    }
  }
  if (p_ >= end_) return fail("unterminated string");
  ++p_;  // closing quote
  return true;
}

bool Reader::read_number() {
  const char* start = p_;
  auto skip_digits = [this] {
    while (p_ < end_ && is_digit(*p_)) ++p_;
  };
  if (p_ < end_ && *p_ == '-') ++p_;
  if (p_ >= end_ || !is_digit(*p_)) return fail("bad number");
  if (*p_ == '0') {
    ++p_;  // RFC 8259: no leading zeros ("01" is two tokens, i.e. invalid)
  } else {
    skip_digits();
  }
  if (p_ < end_ && *p_ == '.') {
    ++p_;
    if (p_ >= end_ || !is_digit(*p_)) return fail("bad number fraction");
    skip_digits();
  }
  if (p_ < end_ && (*p_ == 'e' || *p_ == 'E')) {
    ++p_;
    if (p_ < end_ && (*p_ == '+' || *p_ == '-')) ++p_;
    if (p_ >= end_ || !is_digit(*p_)) return fail("bad number exponent");
    skip_digits();
  }
  // Both conversions round correctly, so they agree bit for bit wherever
  // from_chars succeeds.  On overflow and underflow it reports an error
  // and stores nothing; strtod then supplies +-inf or the flushed value.
  const std::from_chars_result r = std::from_chars(start, p_, number_);
  if (r.ec != std::errc() || r.ptr != p_) {
    number_ = std::strtod(std::string(start, p_).c_str(), nullptr);
  }
  return true;
}

Reader::Kind Reader::value() {
  if (!ok()) return Kind::kError;
  if (depth_ > 256) {
    fail("nesting too deep");
    return Kind::kError;
  }
  skip_ws();
  if (p_ >= end_) {
    fail("unexpected end of input");
    return Kind::kError;
  }
  switch (*p_) {
    case '{':
    case '[': {
      const bool object = *p_ == '{';
      ++p_;
      ++depth_;
      fresh_ = true;
      return object ? Kind::kObject : Kind::kArray;
    }
    case '"':
      string_.clear();
      return read_string(&string_) ? Kind::kString : Kind::kError;
    case 't':
      boolean_ = true;
      return literal("true") ? Kind::kBool : Kind::kError;
    case 'f':
      boolean_ = false;
      return literal("false") ? Kind::kBool : Kind::kError;
    case 'n':
      return literal("null") ? Kind::kNull : Kind::kError;
    default:
      return read_number() ? Kind::kNumber : Kind::kError;
  }
}

bool Reader::member(std::string* key) {
  if (!ok()) return false;
  skip_ws();
  const bool first = fresh_;
  fresh_ = false;
  if (p_ < end_ && *p_ == '}') {
    ++p_;
    --depth_;
    return false;
  }
  if (!first) {
    if (p_ >= end_ || *p_ != ',') return fail("expected ',' or '}'");
    ++p_;
    skip_ws();
  }
  if (key != nullptr) key->clear();
  if (!read_string(key)) return false;
  skip_ws();
  if (p_ >= end_ || *p_ != ':') return fail("expected ':'");
  ++p_;
  return true;
}

bool Reader::element() {
  if (!ok()) return false;
  skip_ws();
  const bool first = fresh_;
  fresh_ = false;
  if (p_ < end_ && *p_ == ']') {
    ++p_;
    --depth_;
    return false;
  }
  if (first) return true;
  if (p_ >= end_ || *p_ != ',') return fail("expected ',' or ']'");
  ++p_;
  return true;
}

void Reader::skip(Kind kind) {
  if (kind == Kind::kObject) {
    while (member(nullptr)) skip(value());
  } else if (kind == Kind::kArray) {
    while (element()) skip(value());
  }
}

bool Reader::end() {
  if (!ok()) return false;
  skip_ws();
  if (p_ != end_) {
    error_ = "trailing garbage after document";
    return false;
  }
  return true;
}

namespace {

// Builds the node whose start `in` just read; the recursion only touches
// the node just appended, never its parent's vector.
bool build(Reader& in, Reader::Kind kind, Value& v) {
  switch (kind) {
    case Reader::Kind::kError:
      return false;
    case Reader::Kind::kNull:
      v.type = Value::Type::kNull;
      return true;
    case Reader::Kind::kBool:
      v.type = Value::Type::kBool;
      v.boolean = in.boolean();
      return true;
    case Reader::Kind::kNumber:
      v.type = Value::Type::kNumber;
      v.number = in.number();
      return true;
    case Reader::Kind::kString:
      v.type = Value::Type::kString;
      v.string = std::move(in.string());
      return true;
    case Reader::Kind::kArray:
      v.type = Value::Type::kArray;
      while (in.element()) {
        Value& element = v.array.emplace_back();
        if (!build(in, in.value(), element)) return false;
      }
      return in.ok();
    case Reader::Kind::kObject: {
      v.type = Value::Type::kObject;
      std::string key;
      while (in.member(&key)) {
        Value& member = v.object.emplace_back(std::move(key), Value()).second;
        if (!build(in, in.value(), member)) return false;
      }
      return in.ok();
    }
  }
  return false;
}

}  // namespace

bool parse(const std::string& text, Value* out, std::string* error) {
  Reader in(text);
  Value v;
  if (!build(in, in.value(), v) || !in.end()) {
    if (error != nullptr) *error = in.error();
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
      append_escaped(out, v.string);
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
        append_escaped(out, v.object[i].first);
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
