#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "machine/machine.hpp"
#include "support/ackermann.hpp"
#include "support/assert.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

// Fundamental data movement operations (Section 2.6, Table 1), part 1:
// semigroup computation, broadcast, parallel prefix (plain and segmented),
// and packing.  Everything is written in "hypercube normal form" — ladders
// of full-machine exchanges between rank partners r <-> r ^ 2^k — and the
// machine charges its topology's true round price per exchange: 1-2 rounds
// on the hypercube, Theta(2^(k/2)) on the mesh.  Summing the ladder gives
// exactly the Table 1 rows: Theta(log n) per ladder on the hypercube and
// Theta(n^(1/2)) on the mesh (geometric sum of the per-level shifts).
//
// Registers: `regs[r]` is the single word held by the PE of rank r.  All
// operations may be restricted to aligned blocks of `width` PEs ("strings"
// operating in parallel); the charge is the single-string cost, since
// disjoint strings work simultaneously.
//
// The per-rank loops are data-parallel (each rank writes only its own slot,
// reading a pre-exchange snapshot) and execute across host threads on large
// machines; all pattern charges are issued before the loop, so the ledger is
// independent of the host thread count (docs/PARALLELISM.md).  `reduce`
// has no per-rank loop: it folds each block once on the calling thread.
namespace dyncg {
namespace ops {

inline void check_block(std::size_t n, std::size_t width) {
  DYNCG_ASSERT(width >= 1 && n % width == 0,
               "width must divide the machine size");
  DYNCG_ASSERT((width & (width - 1)) == 0, "width must be a power of two");
}

// Semigroup computation: combine all values in each width-block with the
// associative `op` (applied in rank order; commutativity not required).
// On return every PE of a block holds the block's total (an all-reduce,
// which is how the mesh/hypercube doubling scheme naturally ends).
//
// The ladder is charged level by level: at level k every PE exchanges with
// its rank partner r ^ 2^k and combines, the lower block first.  Every PE
// then holds its block folded pairwise, (2i, 2i+1) first, then pairs of
// pairs, so the host folds each block once in that association (width - 1
// calls of `op`) and copies the total: the ladder's registers bit for bit,
// even for an `op` that is not exactly associative (floating-point sums).
template <class T, class Op>
void reduce(Machine& m, std::vector<T>& regs, Op op,
            std::size_t width = 0) {
  TRACE_SPAN_COST("ops.reduce", m.ledger());
  std::size_t n = m.size();
  if (width == 0) width = n;
  check_block(n, width);
  DYNCG_ASSERT(regs.size() == n, "register file size mismatch");
  int levels = floor_log2(width);
  for (int k = 0; k < levels; ++k) {
    m.charge_exchange(static_cast<unsigned>(k));
    m.charge_local(1);
  }
  for (std::size_t block = 0; block < n; block += width) {
    for (std::size_t stride = 1; stride < width; stride <<= 1) {
      for (std::size_t r = block; r < block + width; r += 2 * stride) {
        regs[r] = op(regs[r], regs[r + stride]);
      }
    }
    for (std::size_t r = block + 1; r < block + width; ++r) {
      regs[r] = regs[block];
    }
  }
}

// Broadcast: copy the value held at block-local rank `src` to every PE of
// its block.
template <class T>
void broadcast(Machine& m, std::vector<T>& regs, std::size_t src,
               std::size_t width = 0) {
  TRACE_SPAN_COST("ops.broadcast", m.ledger());
  std::size_t n = m.size();
  if (width == 0) width = n;
  check_block(n, width);
  DYNCG_ASSERT(src < width, "broadcast source outside the block");
  struct Marked {
    T value;
    bool marked;
  };
  std::vector<Marked> tmp(n);
  for (std::size_t r = 0; r < n; ++r) {
    tmp[r] = Marked{regs[r], (r % width) == src};
  }
  reduce(m, tmp,
         [](const Marked& a, const Marked& b) { return a.marked ? a : b; },
         width);
  for (std::size_t r = 0; r < n; ++r) regs[r] = tmp[r].value;
}

// Parallel prefix (inclusive scan) in rank order within each width-block.
// The classic hypercube ladder: each PE carries (prefix, block total);
// at level k the totals are exchanged across the 2^k boundary and the upper
// half folds the lower half's total into its prefix.
template <class T, class Op>
void prefix(Machine& m, std::vector<T>& regs, Op op, std::size_t width = 0) {
  TRACE_SPAN_COST("ops.prefix", m.ledger());
  std::size_t n = m.size();
  if (width == 0) width = n;
  check_block(n, width);
  std::vector<T> total = regs;
  int levels = floor_log2(width);
  for (int k = 0; k < levels; ++k) {
    std::size_t stride = std::size_t{1} << k;
    m.charge_exchange(static_cast<unsigned>(k));
    m.charge_local(1);
    std::vector<T> incoming(total);
    parallel_for(n, [&](std::size_t r) {
      std::size_t partner = r ^ stride;
      if (r & stride) {
        regs[r] = op(incoming[partner], regs[r]);
        total[r] = op(incoming[partner], total[r]);
      } else {
        total[r] = op(total[r], incoming[partner]);
      }
    }, kRegisterLoopGrain);
  }
}

// Segmented inclusive scan: segments begin where seg_start[r] is true.
// Implemented by lifting `op` to (flag, value) pairs, which stays
// associative, so the cost is identical to a plain prefix — this is how the
// paper runs one parallel prefix across many strings at once.
template <class T, class Op>
void segmented_prefix(Machine& m, std::vector<T>& regs,
                      const std::vector<char>& seg_start, Op op,
                      std::size_t width = 0) {
  TRACE_SPAN_COST("ops.segmented_prefix", m.ledger());
  std::size_t n = m.size();
  struct FV {
    char flag;
    T value;
  };
  std::vector<FV> tmp(n);
  for (std::size_t r = 0; r < n; ++r) tmp[r] = FV{seg_start[r], regs[r]};
  prefix(m, tmp,
         [&op](const FV& a, const FV& b) {
           return FV{static_cast<char>(a.flag || b.flag),
                     b.flag ? b.value : op(a.value, b.value)};
         },
         width);
  for (std::size_t r = 0; r < n; ++r) regs[r] = tmp[r].value;
}

// Segmented semigroup computation over *arbitrary* strings: segments begin
// where seg_start[r] is true (rank 0 implicitly starts one).  On return
// every PE holds its segment's total — the paper's "semigroup computation
// within each string" for strings that need not be aligned power-of-two
// blocks.  One segmented scan forward (totals accumulate) plus one backward
// (the segment's last prefix propagates to all members): two ladders.
template <class T, class Op>
void segmented_reduce(Machine& m, std::vector<T>& regs,
                      const std::vector<char>& seg_start, Op op) {
  TRACE_SPAN_COST("ops.segmented_reduce", m.ledger());
  std::size_t n = m.size();
  DYNCG_ASSERT(regs.size() == n && seg_start.size() == n,
               "register file size mismatch");
  // Forward segmented inclusive scan: the last PE of each segment ends up
  // with the segment total.
  segmented_prefix(m, regs, seg_start, op);
  // Backward pass: propagate each segment's final value to every member.
  // Segment *ends* are the ranks whose successor starts a segment.
  struct FV {
    char flag;
    T value;
  };
  std::vector<FV> rev(n);
  for (std::size_t r = 0; r < n; ++r) {
    std::size_t fr = n - 1 - r;  // reversed order
    bool is_end = (fr + 1 == n) || seg_start[fr + 1];
    rev[r] = FV{static_cast<char>(is_end), regs[fr]};
  }
  prefix(m, rev,
         [](const FV& a, const FV& b) {
           // Right-to-left carry of the last-seen segment-end value.
           return FV{static_cast<char>(a.flag || b.flag),
                     b.flag ? b.value : a.value};
         });
  m.charge_local(1);
  for (std::size_t r = 0; r < n; ++r) regs[n - 1 - r] = rev[r].value;
}

// Uniform shift of every width-block by `dist` ranks upward
// (regs[r] <- regs[r - dist]); vacated low slots get `fill`.  Realized by
// lock-step pipelining along the linear order — consecutive ranks are
// adjacent under proximity/Gray indexing — so the price is dist rounds
// times the topology's unit-shift cost.
template <class T>
void shift_up(Machine& m, std::vector<T>& regs, std::size_t dist, T fill,
              std::size_t width = 0) {
  TRACE_SPAN_COST("ops.shift_up", m.ledger());
  std::size_t n = m.size();
  if (width == 0) width = n;
  check_block(n, width);
  DYNCG_ASSERT(dist < width, "shift distance exceeds the block");
  if (dist == 0) return;
  m.charge_shift(dist);
  m.charge_local(1);
  std::vector<T> out(n, fill);
  parallel_for(n, [&](std::size_t r) {
    std::size_t pos = r % width;
    if (pos + dist < width) out[r + dist] = regs[r];
  }, kRegisterLoopGrain);
  regs.swap(out);
}

// Same, shifting downward (regs[r] <- regs[r + dist]).
template <class T>
void shift_down(Machine& m, std::vector<T>& regs, std::size_t dist, T fill,
                std::size_t width = 0) {
  TRACE_SPAN_COST("ops.shift_down", m.ledger());
  std::size_t n = m.size();
  if (width == 0) width = n;
  check_block(n, width);
  DYNCG_ASSERT(dist < width, "shift distance exceeds the block");
  if (dist == 0) return;
  m.charge_shift(dist);
  m.charge_local(1);
  std::vector<T> out(n, fill);
  parallel_for(n, [&](std::size_t r) {
    std::size_t pos = r % width;
    if (pos >= dist) out[r - dist] = regs[r];
  }, kRegisterLoopGrain);
  regs.swap(out);
}

// Pack: within each width-block, move the items whose flag is set to the
// front, preserving order; returns per-block counts in `counts[r]` (every
// PE of a block learns its block's count).  Cost: one prefix to compute
// destinations plus one monotone route, charged as a bitonic-merge-grade
// ladder (the standard sort-based routing of Section 2.6, but a single
// merge suffices for a monotone route).
template <class T>
void pack(Machine& m, std::vector<std::optional<T>>& regs,
          std::vector<std::size_t>* counts = nullptr,
          std::size_t width = 0) {
  TRACE_SPAN_COST("ops.pack", m.ledger());
  std::size_t n = m.size();
  if (width == 0) width = n;
  check_block(n, width);
  std::vector<std::size_t> dest(n);
  for (std::size_t r = 0; r < n; ++r) dest[r] = regs[r].has_value() ? 1u : 0u;
  prefix(m, dest, std::plus<std::size_t>{}, width);
  if (counts != nullptr) {
    *counts = dest;
    broadcast(m, *counts, width - 1, width);
  }
  // Monotone route: each flagged item moves down to rank prefix-1 within its
  // block.  Distances vary per item, so charge a full ladder (every offset
  // level may be exercised).
  int levels = floor_log2(width);
  for (int k = 0; k < levels; ++k) m.charge_exchange(static_cast<unsigned>(k));
  m.charge_local(1);
  std::vector<std::optional<T>> out(n);
  // Destinations block + dest[r] - 1 are pairwise distinct (dest is a
  // strictly increasing prefix count at flagged ranks), so the writes are
  // disjoint.
  parallel_for(n, [&](std::size_t r) {
    if (regs[r].has_value()) {
      std::size_t block = r / width * width;
      out[block + dest[r] - 1] = std::move(regs[r]);
    }
  }, kRegisterLoopGrain);
  regs.swap(out);
}

}  // namespace ops
}  // namespace dyncg
