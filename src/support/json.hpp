#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

// Minimal JSON support: a streaming writer used by the trace/telemetry/bench
// exporters and the serving responses, and a small DOM parser used by the
// serving protocol, the schema checker tool and the tests.  No external
// dependency.  The parser is on the serving hot path: every request line
// (up to 1 MiB; inline scenarios carry hundreds of coefficients) is parsed
// once, so it converts numbers in place and builds each node where it
// lives.  The writer's documents are small and it is not tuned.
namespace dyncg {
namespace json {

// JSON string escaping (quotes, backslash, control characters).
std::string escape(const std::string& s);

// Streaming writer.  Usage mirrors the document structure:
//   Writer w;
//   w.begin_object();
//   w.key("rounds"); w.value(std::uint64_t{12});
//   w.key("tables"); w.begin_array(); ... w.end_array();
//   w.end_object();
//   w.str();
// Commas and key/value ordering are handled internally; emitting a
// structurally invalid sequence (value with no key inside an object) is the
// caller's bug and is not diagnosed.
class Writer {
 public:
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();
  void key(const std::string& k);
  void value(const std::string& v);
  void value(const char* v);
  void value(double v);
  void value(std::uint64_t v);
  void value(std::int64_t v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(bool v);
  void value_null();
  // Pre-formatted number or other literal, inserted verbatim.
  void value_raw(const std::string& raw);

  const std::string& str() const { return out_; }

 private:
  void comma();
  std::string out_;
  std::vector<bool> first_;  // per open scope: no element emitted yet
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

// Parse `text` into `*out`.  Returns false and fills `*error` (if non-null)
// with a position-annotated message on malformed input.  Accepts exactly the
// JSON grammar (RFC 8259) minus \u surrogate pairs, which decode to U+FFFD.
//
// Numbers: each number is the correctly rounded double of its literal, bit
// for bit what strtod returns for the same characters — including
// subnormals, -0, overflow to +-inf ("1e999") and underflow to +-0
// ("1e-400").  std::from_chars converts straight from `text`; strtod is
// the fallback only where from_chars reports out of range.  Callers that
// need finite values (the serving protocol) reject infinities themselves.
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
