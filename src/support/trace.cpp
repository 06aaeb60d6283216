#include "support/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <tuple>

#include "support/fatal.hpp"
#include "support/json.hpp"

namespace dyncg {
namespace trace {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

std::uint64_t now_ns() {
  // Epoch = first call (process start, effectively): keeps timestamps small
  // and makes spans from one run directly comparable.
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

struct ThreadBuffer {
  std::vector<Event> events;
  std::uint32_t tid = 0;
  std::uint32_t depth = 0;
};

// Registry of per-thread buffers.  The mutex guards the registry structure;
// the owning thread appends to its buffer without locking (see the
// collection contract in the header).  Buffers are intentionally never
// freed: a thread that exits (e.g. the pool is resized) leaves its events
// collectable, and the leak is bounded by the number of threads ever
// created.
struct Registry {
  std::mutex mu;
  std::vector<ThreadBuffer*> buffers;
  std::uint32_t next_tid = 0;
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: threads may outlive statics
  return *r;
}

ThreadBuffer& buffer() {
  thread_local ThreadBuffer* buf = [] {
    auto* b = new ThreadBuffer;
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    b->tid = r.next_tid++;
    r.buffers.push_back(b);
    return b;
  }();
  return *buf;
}

// DYNCG_TRACE env activation: enable at startup; when the value is a path
// (anything but "1"), write it at process exit.
struct EnvActivation {
  std::string path;
  static EnvActivation& instance() {
    // Leaked: the atexit hook below runs after function-local statics are
    // destroyed (their destructors register later, so they run first), and
    // it must still be able to read `path`.
    static EnvActivation* a = new EnvActivation;
    return *a;
  }

 private:
  EnvActivation() {
    const char* s = std::getenv("DYNCG_TRACE");
    if (s == nullptr || *s == '\0' || std::string(s) == "0") return;
    now_ns();  // pin the trace epoch
    detail::g_enabled.store(true, std::memory_order_relaxed);
    if (std::string(s) != "1") path = s;
    std::atexit([] {
      const std::string& p = EnvActivation::instance().path;
      if (p.empty()) return;
      if (!write(p)) {
        std::fprintf(stderr, "dyncg: failed to write DYNCG_TRACE file '%s'\n",
                     p.c_str());
      }
    });
    // A DYNCG_ASSERT abort skips atexit hooks; flush the buffered spans
    // from the fatal path too, so the trace of a crashed run survives.
    fatal::register_flush([] {
      const std::string& p = EnvActivation::instance().path;
      if (!p.empty()) write(p);
    });
  }
};

// Run the env hook before main() so spans are captured from the start.
[[maybe_unused]] const bool g_env_probe = (EnvActivation::instance(), true);

}  // namespace

namespace detail {

std::uint64_t open_span() {
  ThreadBuffer& b = buffer();
  ++b.depth;
  return now_ns();
}

void close_span(const char* name, std::uint64_t start_ns,
                const CostSnapshot& cost) {
  std::uint64_t end = now_ns();
  ThreadBuffer& b = buffer();
  if (b.depth > 0) --b.depth;
  Event e;
  e.name = name;
  e.tid = b.tid;
  e.depth = b.depth;
  e.start_ns = start_ns;
  e.dur_ns = end - start_ns;
  e.cost = cost;
  b.events.push_back(std::move(e));
}

}  // namespace detail

void enable() {
  EnvActivation::instance();  // keep env/programmatic activation consistent
  detail::g_enabled.store(true, std::memory_order_relaxed);
}

void disable() { detail::g_enabled.store(false, std::memory_order_relaxed); }

std::size_t event_count() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  std::size_t n = 0;
  for (const ThreadBuffer* b : r.buffers) n += b->events.size();
  return n;
}

std::vector<Event> snapshot() {
  Registry& r = registry();
  std::vector<Event> all;
  {
    std::lock_guard<std::mutex> lk(r.mu);
    for (const ThreadBuffer* b : r.buffers) {
      all.insert(all.end(), b->events.begin(), b->events.end());
    }
  }
  std::stable_sort(all.begin(), all.end(), [](const Event& a, const Event& b) {
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    if (a.tid != b.tid) return a.tid < b.tid;
    return a.depth < b.depth;  // outer spans before inner on a tie
  });
  return all;
}

void clear() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  for (ThreadBuffer* b : r.buffers) b->events.clear();
}

std::vector<Total> totals(const std::vector<Event>& events) {
  // Visit each thread's spans in start order, outer before inner on a tie.
  // `open` then holds the chain of spans enclosing the current one.
  std::vector<std::size_t> order(events.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Event& x = events[a];
    const Event& y = events[b];
    return std::tie(x.tid, x.start_ns, x.depth, a) <
           std::tie(y.tid, y.start_ns, y.depth, b);
  });
  std::vector<std::uint64_t> child_ns(events.size(), 0);
  std::vector<CostSnapshot> child_cost(events.size());
  std::vector<std::size_t> open;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const Event& e = events[order[k]];
    if (k > 0 && events[order[k - 1]].tid != e.tid) open.clear();
    while (!open.empty()) {
      const Event& top = events[open.back()];
      if (top.depth < e.depth &&
          top.start_ns + top.dur_ns >= e.start_ns + e.dur_ns) {
        break;
      }
      open.pop_back();
    }
    if (!open.empty() && events[open.back()].depth + 1 == e.depth) {
      child_ns[open.back()] += e.dur_ns;
      child_cost[open.back()] += e.cost;
    }
    open.push_back(order[k]);
  }

  // Direct children are disjoint intervals inside their parent, so the
  // time subtraction cannot wrap; cost floors at zero for spans whose
  // children read a ledger they do not (see the header).
  auto minus = [](std::uint64_t a, std::uint64_t b) {
    return a > b ? a - b : std::uint64_t{0};
  };
  std::map<std::string, Total> by_name;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    Total& t = by_name[e.name.substr(0, e.name.find('#'))];
    ++t.calls;
    t.inclusive_ns += e.dur_ns;
    t.self_ns += e.dur_ns - child_ns[i];
    t.inclusive_cost += e.cost;
    t.self_cost += CostSnapshot{
        minus(e.cost.rounds, child_cost[i].rounds),
        minus(e.cost.messages, child_cost[i].messages),
        minus(e.cost.local_ops, child_cost[i].local_ops)};
  }
  std::vector<Total> out;
  out.reserve(by_name.size());
  for (auto& [name, t] : by_name) {
    t.name = name;
    out.push_back(std::move(t));
  }
  return out;
}

namespace {

void append_cost_args(json::Writer& w, const Event& e) {
  w.key("rounds");
  w.value(e.cost.rounds);
  w.key("messages");
  w.value(e.cost.messages);
  w.key("local_ops");
  w.value(e.cost.local_ops);
}

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::size_t n = std::fwrite(content.data(), 1, content.size(), f);
  int rc = std::fclose(f);
  return n == content.size() && rc == 0;
}

}  // namespace

bool write_chrome_trace(const std::string& path) {
  std::vector<Event> events = snapshot();
  json::Writer w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (const Event& e : events) {
    w.begin_object();
    w.key("name");
    w.value(e.name);
    w.key("cat");
    w.value("dyncg");
    w.key("ph");
    w.value("X");
    // trace_event timestamps are microseconds.
    w.key("ts");
    w.value(static_cast<double>(e.start_ns) / 1e3);
    w.key("dur");
    w.value(static_cast<double>(e.dur_ns) / 1e3);
    w.key("pid");
    w.value(std::uint64_t{1});
    w.key("tid");
    w.value(std::uint64_t{e.tid});
    w.key("args");
    w.begin_object();
    append_cost_args(w, e);
    w.key("depth");
    w.value(std::uint64_t{e.depth});
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("displayTimeUnit");
  w.value("ms");
  w.key("otherData");
  w.begin_object();
  w.key("schema_version");
  w.value(std::uint64_t{1});
  w.key("producer");
  w.value("dyncg");
  w.end_object();
  w.end_object();
  return write_file(path, w.str() + "\n");
}

bool write_jsonl(const std::string& path) {
  std::vector<Event> events = snapshot();
  std::string out;
  for (const Event& e : events) {
    json::Writer w;
    w.begin_object();
    w.key("name");
    w.value(e.name);
    w.key("tid");
    w.value(std::uint64_t{e.tid});
    w.key("depth");
    w.value(std::uint64_t{e.depth});
    w.key("start_us");
    w.value(static_cast<double>(e.start_ns) / 1e3);
    w.key("dur_us");
    w.value(static_cast<double>(e.dur_ns) / 1e3);
    append_cost_args(w, e);
    w.end_object();
    out += w.str();
    out += '\n';
  }
  return write_file(path, out);
}

bool write(const std::string& path) {
  const std::string suffix = ".jsonl";
  if (path.size() >= suffix.size() &&
      path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0) {
    return write_jsonl(path);
  }
  return write_chrome_trace(path);
}

bool write_and_clear(const std::string& path) {
  if (!write(path)) return false;
  clear();
  return true;
}

}  // namespace trace
}  // namespace dyncg
