#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

// Host-parallel execution of independent-iteration loops.
//
// Two unrelated notions of "parallel" coexist in this repo (see
// docs/PARALLELISM.md).  The *simulated* parallelism — PEs, rounds, the
// CostLedger — is the object of study and is charged analytically; it never
// depends on how the simulator itself is executed.  This header is about the
// second notion: running the simulator's independent per-PE / per-string /
// per-pair loops across host threads so large instances finish in wall-clock
// time proportional to hardware, not to the simulated machine size.
//
// Determinism contract.  Every helper here partitions [0, n) into exactly
// `workers` contiguous index chunks (worker w owns [w*n/W, (w+1)*n/W)), runs
// chunks on a fixed pool with no work stealing, and merges per-worker
// accumulators in ascending worker index — i.e. in ascending index order.
// A loop whose iterations are independent (each iteration reads shared
// inputs and writes only its own output slot) therefore produces bit-for-bit
// identical results for every thread count, including 1.  Ledger charges are
// never issued from inside a parallel region; callers charge the analytic
// pattern cost before or after the loop, exactly as the serial code did, so
// rounds / messages / local_ops are unconditionally thread-count-invariant.
//
// Thread count resolution: set_host_threads() override, else the
// DYNCG_THREADS environment variable, else 1 (serial).  A value of 0 in
// either place means "use all hardware threads".
namespace dyncg {

// A fixed-size fork-join pool.  Worker 0 is the calling thread; workers
// 1..W-1 are persistent std::threads parked on a condition variable,
// started by the first run() that hands out two or more chunks.  There is
// deliberately no task queue and no stealing: run() hands every worker its
// statically computed chunk, which is what makes execution deterministic.
class ThreadPool {
 public:
  using ChunkFn = std::function<void(std::size_t begin, std::size_t end,
                                     unsigned worker)>;

  explicit ThreadPool(unsigned workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned workers() const { return workers_; }

  // Execute chunk(begin, end, w) for each worker's slice of [0, n); blocks
  // until all slices finish.  Exceptions are rethrown on the caller, lowest
  // worker index first (deterministic).  A run of one iteration executes on
  // the calling thread, still as its owner w = W-1 and still inside the
  // parallel region, so nothing but the thread it runs on changes.
  void run(std::size_t n, const ChunkFn& chunk);

 private:
  struct Impl;
  void worker_main(unsigned w);

  unsigned workers_;
  Impl* impl_;
};

// The static partition used by every helper: worker w of W owns
// [n*w/W, n*(w+1)/W).
inline std::pair<std::size_t, std::size_t> chunk_range(std::size_t n,
                                                       unsigned workers,
                                                       unsigned w) {
  std::size_t lo = n * w / workers;
  std::size_t hi = n * (w + 1) / workers;
  return {lo, hi};
}

// Resolved host thread count (override > DYNCG_THREADS > 1; 0 = hardware).
unsigned host_threads();

// Programmatic override (the CLI --threads flag, tests).  Pass 0 for all
// hardware threads.  Takes effect on the next parallel_for; not safe to call
// concurrently with a running parallel region.
void set_host_threads(unsigned n);

// The process-wide pool, sized to host_threads() (rebuilt lazily when the
// count changes).
ThreadPool& host_pool();

namespace detail {
// True while the current thread executes inside a parallel region; nested
// helpers degrade to serial instead of deadlocking on the shared pool.
bool in_parallel_region();
}  // namespace detail

// Grain for the ops-layer register-file loops: per-iteration work there is a
// few ALU ops, so fan-out only pays off for reasonably large machines.
inline constexpr std::size_t kRegisterLoopGrain = 2048;

// parallel_for: body(i) for every i in [0, n).  Runs serially (in index
// order) when the resolved thread count is 1, when n < grain, or when
// already inside a parallel region; otherwise fans out over contiguous
// chunks.  Requires iterations to be independent: body(i) may write only
// state owned by index i.
template <class Body>
void parallel_for(std::size_t n, Body&& body, std::size_t grain = 2) {
  unsigned workers = host_threads();
  if (workers <= 1 || n < grain || detail::in_parallel_region()) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  host_pool().run(n, [&body](std::size_t lo, std::size_t hi, unsigned) {
    for (std::size_t i = lo; i < hi; ++i) body(i);
  });
}

// parallel_reduce: fold body(acc, i) over [0, n) with one accumulator per
// worker (each initialized to `init`), then merge(result, worker_acc) in
// ascending worker index.  Because chunks are contiguous and ascending, the
// element order seen by the fold equals the serial order; results are
// identical to the serial fold whenever the reduction is associative over
// the values produced (max, min, integer sums, set unions — the uses in this
// repo).  Floating-point sums are not associative; store per-index values
// and fold serially instead.
template <class Acc, class Body, class Merge>
Acc parallel_reduce(std::size_t n, Acc init, Body&& body, Merge&& merge,
                    std::size_t grain = 2) {
  unsigned workers = host_threads();
  if (workers <= 1 || n < grain || detail::in_parallel_region()) {
    Acc acc = init;
    for (std::size_t i = 0; i < n; ++i) body(acc, i);
    return acc;
  }
  ThreadPool& pool = host_pool();
  std::vector<Acc> accs(pool.workers(), init);
  pool.run(n, [&body, &accs](std::size_t lo, std::size_t hi, unsigned w) {
    Acc& acc = accs[w];
    for (std::size_t i = lo; i < hi; ++i) body(acc, i);
  });
  Acc result = std::move(accs[0]);
  for (unsigned w = 1; w < pool.workers(); ++w) merge(result, accs[w]);
  return result;
}

}  // namespace dyncg
