#include "support/thread_pool.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

namespace dyncg {
namespace {

thread_local bool t_in_parallel = false;

// RAII flag so nested parallel_for calls degrade to serial execution.
struct RegionGuard {
  RegionGuard() : prev(t_in_parallel) { t_in_parallel = true; }
  ~RegionGuard() { t_in_parallel = prev; }
  bool prev;
};

unsigned hardware_threads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

// A mistyped count (e.g. -1 cast through unsigned, or an absurd literal)
// must not make the pool try to spawn billions of std::threads.
constexpr unsigned kMaxHostThreads = 1024;

unsigned clamp_threads(unsigned n) { return std::min(n, kMaxHostThreads); }

// DYNCG_THREADS, read once: >=1 literal count, 0 = all hardware threads,
// unset/negative/garbage = 1 (serial).
unsigned env_threads() {
  static const unsigned resolved = [] {
    const char* s = std::getenv("DYNCG_THREADS");
    if (s == nullptr || *s == '\0') return 1u;
    char* end = nullptr;
    long v = std::strtol(s, &end, 10);
    if (end == s || v < 0) return 1u;
    if (v == 0) return hardware_threads();
    return clamp_threads(static_cast<unsigned>(v));
  }();
  return resolved;
}

unsigned g_override = 0;        // 0 = no override, use DYNCG_THREADS
bool g_override_set = false;

}  // namespace

namespace detail {
bool in_parallel_region() { return t_in_parallel; }
}  // namespace detail

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable start_cv;
  std::condition_variable done_cv;
  std::uint64_t generation = 0;
  unsigned remaining = 0;
  std::size_t job_n = 0;
  const ChunkFn* job = nullptr;
  std::vector<std::exception_ptr> errors;
  bool stop = false;
  std::vector<std::thread> threads;
};

ThreadPool::ThreadPool(unsigned workers)
    : workers_(workers == 0 ? 1 : workers), impl_(new Impl) {
  impl_->errors.resize(workers_);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->stop = true;
  }
  impl_->start_cv.notify_all();
  for (std::thread& t : impl_->threads) t.join();
  delete impl_;
}

void ThreadPool::worker_main(unsigned w) {
  std::uint64_t seen = 0;
  for (;;) {
    const ChunkFn* job = nullptr;
    std::size_t n = 0;
    {
      std::unique_lock<std::mutex> lk(impl_->mu);
      impl_->start_cv.wait(
          lk, [&] { return impl_->stop || impl_->generation != seen; });
      if (impl_->stop) return;
      seen = impl_->generation;
      job = impl_->job;
      n = impl_->job_n;
    }
    auto [lo, hi] = chunk_range(n, workers_, w);
    std::exception_ptr err;
    {
      RegionGuard guard;
      try {
        if (lo < hi) (*job)(lo, hi, w);
      } catch (...) {
        err = std::current_exception();
      }
    }
    {
      std::lock_guard<std::mutex> lk(impl_->mu);
      impl_->errors[w] = err;
      if (--impl_->remaining == 0) impl_->done_cv.notify_one();
    }
  }
}

void ThreadPool::run(std::size_t n, const ChunkFn& chunk) {
  if (n == 0) return;
  if (workers_ == 1 || n == 1) {
    // A single iteration belongs to the last worker ([0, 1) is its slice)
    // but runs here: handing it over would only add that worker's wake-up
    // before it and this thread's after it.
    RegionGuard guard;
    chunk(0, n, workers_ - 1);
    return;
  }
  if (impl_->threads.empty()) {
    // Workers start at the first run that hands them chunks, so a pool
    // that only ever runs one iteration (the server's misses) has none.
    impl_->threads.reserve(workers_ - 1);
    for (unsigned w = 1; w < workers_; ++w) {
      impl_->threads.emplace_back([this, w] { worker_main(w); });
    }
  }
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->job = &chunk;
    impl_->job_n = n;
    impl_->remaining = workers_ - 1;
    std::fill(impl_->errors.begin(), impl_->errors.end(), nullptr);
    ++impl_->generation;
  }
  impl_->start_cv.notify_all();
  std::exception_ptr my_err;
  {
    RegionGuard guard;
    auto [lo, hi] = chunk_range(n, workers_, 0);
    try {
      if (lo < hi) chunk(lo, hi, 0);
    } catch (...) {
      my_err = std::current_exception();
    }
  }
  std::unique_lock<std::mutex> lk(impl_->mu);
  impl_->done_cv.wait(lk, [&] { return impl_->remaining == 0; });
  impl_->job = nullptr;
  impl_->errors[0] = my_err;
  for (const std::exception_ptr& e : impl_->errors) {
    if (e) std::rethrow_exception(e);
  }
}

unsigned host_threads() {
  if (g_override_set) {
    return g_override == 0 ? hardware_threads() : clamp_threads(g_override);
  }
  return env_threads();
}

void set_host_threads(unsigned n) {
  g_override = n;
  g_override_set = true;
}

ThreadPool& host_pool() {
  static std::unique_ptr<ThreadPool> pool;
  unsigned want = host_threads();
  if (!pool || pool->workers() != want) {
    pool = std::make_unique<ThreadPool>(want);
  }
  return *pool;
}

}  // namespace dyncg
