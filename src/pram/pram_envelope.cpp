#include "pram/pram_envelope.hpp"

#include <algorithm>

#include "support/ackermann.hpp"
#include "support/assert.hpp"

namespace dyncg {
namespace {

// Combine all current envelopes pairwise, charging the PRAM for one level:
// a parallel merge of the endpoint records (each of the O(pieces)
// processors binary-searches the other list: ceil(log2 pieces) steps) plus
// O(1) steps of local subpiece work and compaction.
std::uint64_t level_steps(std::size_t pieces) {
  std::uint64_t lg = pieces > 1
                         ? static_cast<std::uint64_t>(floor_log2(pieces)) + 1
                         : 1;
  return lg + 3;
}

}  // namespace

PramEnvelopeResult pram_envelope(const PolyFamily& fam, bool take_min) {
  DYNCG_ASSERT(fam.size() >= 1, "empty family");
  PiecePool& pool = thread_piece_pool();
  CrewPram pram(fam.size());
  std::uint64_t ops = 0;
  std::vector<PiecewiseFn> level;
  level.reserve(fam.size());
  for (std::size_t i = 0; i < fam.size(); ++i) {
    level.push_back(PiecewiseFn{pool.acquire_pieces()});
    singleton_into(fam, static_cast<int>(i), level.back());
    ops += 1;
  }
  pram.charge_steps(1);
  while (level.size() > 1) {
    std::size_t max_pieces = 1;
    std::vector<PiecewiseFn> next;
    next.reserve((level.size() + 1) / 2);
    for (std::size_t b = 0; b + 1 < level.size(); b += 2) {
      std::size_t in = level[b].piece_count() + level[b + 1].piece_count();
      max_pieces = std::max(max_pieces, in);
      ops += in;
      next.push_back(PiecewiseFn{pool.acquire_pieces()});
      combine_extremum_into(fam, level[b], level[b + 1], take_min, pool,
                            next.back());
      ops += next.back().piece_count();
      pool.release_pieces(std::move(level[b].pieces));
      pool.release_pieces(std::move(level[b + 1].pieces));
    }
    if (level.size() % 2 == 1) next.push_back(std::move(level.back()));
    pram.charge_steps(level_steps(max_pieces));
    level.swap(next);
  }
  return PramEnvelopeResult{std::move(level[0]), pram.steps(), ops};
}

std::uint64_t chandran_mount_steps(std::size_t n) {
  if (n <= 1) return kChandranMountConstant;
  return kChandranMountConstant *
         (static_cast<std::uint64_t>(floor_log2(ceil_pow2(n))));
}

}  // namespace dyncg
