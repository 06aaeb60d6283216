#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

// Minimal JSON support: a streaming writer used by the trace/telemetry/bench
// exporters and the serving responses, a pull reader that is the one
// implementation of the grammar, and a small DOM parser built on it for the
// readers of the exported formats (dyncg_bench_diff), the clients and the
// tests.  No external dependency.
// The reader is on the serving hot path: every request line (up to 1 MiB;
// inline scenarios carry hundreds of coefficients) is read once, straight
// into the request (serve::read_request), with numbers converted in place.
// The writer appends in place, so a response renders into one buffer.
namespace dyncg {
namespace json {

// Appends s with JSON string escaping (quotes, backslash, control
// characters).
void append_escaped(std::string& out, std::string_view s);

// Streaming writer.  Usage mirrors the document structure:
//   Writer w;
//   w.begin_object();
//   w.key("rounds"); w.value(std::uint64_t{12});
//   w.key("tables"); w.begin_array(); ... w.end_array();
//   w.end_object();
//   w.str();
// Commas and key/value ordering are handled internally; emitting a
// structurally invalid sequence (value with no key inside an object) is the
// caller's bug and is not diagnosed.  Everything appends straight into the
// document, so a writer built with enough capacity allocates once (the
// serving hit path renders each response that way); nesting is at most 64
// deep.
class Writer {
 public:
  Writer() = default;
  explicit Writer(std::size_t capacity) { out_.reserve(capacity); }

  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }
  void key(std::string_view k);
  void value(std::string_view v);
  void value(const char* v) { value(std::string_view(v)); }
  void value(double v);
  void value(std::uint64_t v);
  void value(std::int64_t v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(bool v);
  void value_null();
  // Pre-formatted number or other literal, inserted verbatim.
  void value_raw(std::string_view raw);

  const std::string& str() const { return out_; }
  // Moves the document out; the writer is left empty.
  std::string take() { return std::move(out_); }

 private:
  void comma();
  void open(char bracket);
  void close(char bracket);
  std::string out_;
  std::uint64_t first_ = 0;  // bit d: open scope d has no element yet
  int depth_ = 0;
  bool after_key_ = false;
};

// Parsed JSON value (DOM).  Objects preserve key order.
struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_string() const { return type == Type::kString; }
  bool is_number() const { return type == Type::kNumber; }

  // Object member lookup; nullptr when absent or not an object.
  const Value* find(const std::string& key) const;
};

// Pull reader over one JSON text (RFC 8259 minus \u surrogate pairs, which
// decode to U+FFFD).  The caller walks the document in order:
//
//   Reader in(text);
//   if (in.value() == Reader::Kind::kObject) {
//     std::string key;
//     while (in.member(&key)) {
//       Reader::Kind k = in.value();   // the member's value
//       ... read it: a scalar is whole, a container continues through
//           member()/element(); or in.skip(k) ...
//     }
//   }
//   if (!in.end()) ... in.error() ...
//
// Errors are sticky: the first malformed byte, or nesting deeper than 256,
// records "<what> at offset <n>" and every later call returns kError or
// false.  end() fails with "trailing garbage after document" when more than
// whitespace follows the document.  The reader views `text`, which must
// outlive it.  It allocates only for string payloads and keys, the error
// message, and the strtod fallback of a number that overflows or
// underflows.
class Reader {
 public:
  enum class Kind { kError, kNull, kBool, kNumber, kString, kArray, kObject };

  explicit Reader(std::string_view text)
      : begin_(text.data()), p_(text.data()), end_(text.data() + text.size()) {}

  // Reads the start of the next value.  A scalar is read whole (its payload
  // is then boolean(), number() or string()); an array or object only up to
  // its opening bracket, and its contents follow through element() or
  // member().
  Kind value();
  // The next member of the innermost open object: true with its key in
  // *key when one follows (read its value next), false at the closing brace
  // or on malformed input.  A null `key` validates the key and drops it.
  bool member(std::string* key);
  // The next element of the innermost open array: true when one follows
  // (read it next), false at the closing bracket or on malformed input.
  bool element();
  // Reads and drops the rest of a value whose start value() returned.
  void skip(Kind kind);
  // After the document: true when only whitespace is left.
  bool end();

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  bool boolean() const { return boolean_; }
  double number() const { return number_; }
  // The last string value; the caller may move it out.
  std::string& string() { return string_; }

 private:
  bool fail(std::string_view what);
  void skip_ws();
  bool literal(std::string_view lit);
  bool read_string(std::string* out);
  bool read_number();

  const char* begin_;
  const char* p_;
  const char* end_;
  int depth_ = 0;       // containers open
  bool fresh_ = false;  // the innermost one was just opened
  bool boolean_ = false;
  double number_ = 0.0;
  std::string string_;
  std::string error_;
};

// Parse `text` into `*out`: a DOM builder over Reader.  Returns false and
// fills `*error` (if non-null) with Reader's message on malformed input.
//
// Numbers (Reader::number() and the DOM alike): each number is the
// correctly rounded double of its literal, bit for bit what strtod returns
// for the same characters — including subnormals, -0, overflow to +-inf
// ("1e999") and underflow to +-0 ("1e-400").  std::from_chars converts
// straight from `text`; strtod is the fallback only where from_chars
// reports out of range.  Callers that need finite values (the serving
// protocol) reject infinities themselves.
bool parse(const std::string& text, Value* out, std::string* error = nullptr);

// Serialize a parsed Value back to compact JSON text.  Deterministic and
// canonical for the documents this repo round-trips: object key order is
// preserved, numbers with an exact integer value in ±2^53 print without a
// decimal point, other finite numbers print with %.17g (shortest round-trip
// is not attempted), and infinities print as null, as in Writer.  Used to
// re-embed fetched documents (the `metrics` registry inside
// BENCH_serve.json), to canonicalize values for exact comparison in
// dyncg_bench_diff, and to echo a request's `id`.
std::string dump(const Value& v);

}  // namespace json
}  // namespace dyncg
