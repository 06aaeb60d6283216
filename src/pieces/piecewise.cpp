#include "pieces/piecewise.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/assert.hpp"

namespace dyncg {

bool PiecewiseFn::well_formed(std::size_t family_size) const {
  const PieceSlabView v = pieces.view();
  for (std::size_t i = 0; i < v.count; ++i) {
    if (v.id[i] < 0 || v.id[i] >= static_cast<int>(family_size)) return false;
    if (!Interval{v.lo[i], v.hi[i]}.nondegenerate()) return false;
    if (i > 0 && v.lo[i] < v.hi[i - 1]) return false;
  }
  return true;
}

int PiecewiseFn::id_at(double t) const {
  const PieceSlabView v = pieces.view();
  for (std::size_t i = 0; i < v.count; ++i) {
    if (Interval{v.lo[i], v.hi[i]}.contains(t)) return v.id[i];
    if (v.lo[i] > t) break;
  }
  return -1;
}

std::vector<int> PiecewiseFn::origin_sequence() const {
  std::vector<int> seq;
  seq.reserve(pieces.size());
  for (const Piece& p : pieces) seq.push_back(p.id);
  return seq;
}

IntervalSet PiecewiseFn::support() const {
  std::vector<Interval> ivs;
  ivs.reserve(pieces.size());
  for (const Piece& p : pieces) ivs.push_back(p.iv);
  return IntervalSet(std::move(ivs));
}

std::string PiecewiseFn::to_string() const {
  std::ostringstream os;
  for (const Piece& p : pieces) {
    os << "(f" << p.id << ", " << p.iv.to_string() << ") ";
  }
  return os.str();
}

namespace {

// Active piece index of `fn` covering the interior of (a, b), or -1.  The
// caller sweeps elementary intervals left to right; `cursor` is advanced
// monotonically.
int active_id(const PieceSlabView& v, std::size_t& cursor, double a) {
  while (cursor < v.count && v.hi[cursor] <= a) ++cursor;
  if (cursor < v.count && v.lo[cursor] <= a) return v.id[cursor];
  return -1;
}

}  // namespace

PiecePool& thread_piece_pool() {
  thread_local PiecePool pool;
  return pool;
}

void overlay_into(const PiecewiseFn& f, const PiecewiseFn& g,
                  PiecePool& pool) {
  std::vector<double>& events = pool.events;
  events.clear();
  const PieceSlabView fv = f.pieces.view();
  const PieceSlabView gv = g.pieces.view();
  auto push_events = [&events](const PieceSlabView& v) {
    for (std::size_t i = 0; i < v.count; ++i) {
      events.push_back(v.lo[i]);
      if (!std::isinf(v.hi[i])) events.push_back(v.hi[i]);
    }
  };
  push_events(fv);
  push_events(gv);
  std::sort(events.begin(), events.end());
  events.erase(std::unique(events.begin(), events.end()), events.end());
  events.push_back(kInfinity);

  std::vector<Cell>& cells = pool.cells;
  cells.clear();
  std::size_t fc = 0, gc = 0;
  for (std::size_t i = 0; i + 1 < events.size(); ++i) {
    double a = events[i], b = events[i + 1];
    if (!(b > a)) continue;
    int fa = active_id(fv, fc, a);
    int ga = active_id(gv, gc, a);
    if (fa < 0 && ga < 0) continue;
    if (!cells.empty() && cells.back().a == fa && cells.back().b == ga &&
        cells.back().iv.hi == a) {
      cells.back().iv.hi = b;
    } else {
      cells.push_back(Cell{Interval{a, b}, fa, ga});
    }
  }
}

bool PolyFamily::identical(int a, int b) const {
  return members_[static_cast<std::size_t>(a)] ==
         members_[static_cast<std::size_t>(b)];
}

void polynomial_crossings_into(const Polynomial& f, const Polynomial& g,
                               const Interval& iv, std::vector<double>& out) {
  // Thread-confined scratch: no allocations once the buffers are warm.
  thread_local RootFindResult rr;
  crossing_times_into(f, g, iv.lo, thread_root_scratch(), rr, iv.hi);
  out.clear();
  for (double r : rr.roots) {
    if (r > iv.lo && r < iv.hi) out.push_back(r);
  }
}

void PolyFamily::crossings_into(int a, int b, const Interval& iv,
                                std::vector<double>& out) const {
  polynomial_crossings_into(members_[static_cast<std::size_t>(a)],
                            members_[static_cast<std::size_t>(b)], iv, out);
}

// --- PiecewisePoly ---------------------------------------------------------

PiecewisePoly PiecewisePoly::total(Polynomial p) {
  return PiecewisePoly({Span{Interval{0.0, kInfinity}, std::move(p)}});
}

double PiecewisePoly::operator()(double t) const {
  for (const Span& s : spans_) {
    if (s.iv.contains(t)) return s.fn(t);
    if (s.iv.lo > t) break;
  }
  DYNCG_ASSERT(false, "PiecewisePoly evaluated outside its support");
  return 0.0;
}

namespace {

// The spans as a piece list whose ids are the span indices.
void append_span_pieces(const std::vector<PiecewisePoly::Span>& spans,
                        PieceSlab& out) {
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out.emplace_back(spans[i].iv.lo, spans[i].iv.hi, static_cast<int>(i));
  }
}

}  // namespace

template <class Pick>
PiecewisePoly PiecewisePoly::merge_with(const PiecewisePoly& o, Pick pick,
                                        bool split_at_crossings) const {
  // The common refinement is overlay_into's, over the two span lists with
  // span indices for ids.  Adjacent spans never share an id, so no two cells
  // merge: each cell lies within one span (or gap) of either side.
  PiecePool& pool = thread_piece_pool();
  PiecewiseFn fs{pool.acquire_pieces()};
  PiecewiseFn gs{pool.acquire_pieces()};
  append_span_pieces(spans_, fs.pieces);
  append_span_pieces(o.spans_, gs.pieces);
  overlay_into(fs, gs, pool);
  pool.release_pieces(std::move(fs.pieces));
  pool.release_pieces(std::move(gs.pieces));

  std::vector<Span> out;
  auto emit = [&out](const Interval& iv, const Polynomial& fn) {
    if (!iv.nondegenerate()) return;
    if (!out.empty() && out.back().iv.hi == iv.lo && out.back().fn == fn) {
      out.back().iv.hi = iv.hi;
    } else {
      out.push_back(Span{iv, fn});
    }
  };

  std::vector<double>& cuts = pool.cuts;
  for (const Cell& cell : pool.cells) {
    const Interval& iv = cell.iv;
    const Polynomial* pf =
        cell.a >= 0 ? &spans_[static_cast<std::size_t>(cell.a)].fn : nullptr;
    const Polynomial* pg =
        cell.b >= 0 ? &o.spans_[static_cast<std::size_t>(cell.b)].fn
                    : nullptr;
    if (pf == nullptr || pg == nullptr) {
      // pick() decides how one-sided cells behave (gap for +/-, pass-through
      // for min/max).
      if (const Polynomial* r = pick(pf, pg, iv.midpoint()); r != nullptr) {
        emit(iv, *r);
      }
      continue;
    }
    if (!split_at_crossings) {
      const Polynomial* r = pick(pf, pg, iv.midpoint());
      DYNCG_ASSERT(r != nullptr, "arithmetic pick must produce a value");
      emit(iv, *r);
      continue;
    }
    // min/max: split the cell at the crossings of pf - pg.
    polynomial_crossings_into(*pf, *pg, iv, cuts);
    double lo = iv.lo;
    for (std::size_t c = 0; c <= cuts.size(); ++c) {
      double hi = (c < cuts.size()) ? cuts[c] : iv.hi;
      Interval sub{lo, hi};
      if (sub.nondegenerate()) {
        const Polynomial* r = pick(pf, pg, sub.midpoint());
        DYNCG_ASSERT(r != nullptr, "min/max pick must produce a value");
        emit(sub, *r);
      }
      lo = hi;
    }
  }
  return PiecewisePoly(std::move(out));
}

PiecewisePoly PiecewisePoly::operator+(const PiecewisePoly& o) const {
  // Sums are only defined where both operands are; storage keeps the sum
  // polynomial per cell.
  std::vector<Polynomial> scratch;
  scratch.reserve(64);
  auto pick = [&scratch](const Polynomial* a, const Polynomial* b,
                         double) -> const Polynomial* {
    if (a == nullptr || b == nullptr) return nullptr;
    scratch.push_back(*a + *b);
    return &scratch.back();
  };
  // NOTE: scratch may reallocate; emit copies immediately inside merge_with,
  // so returning the address of the just-pushed element is safe.
  return merge_with(o, pick, /*split_at_crossings=*/false);
}

PiecewisePoly PiecewisePoly::operator-(const PiecewisePoly& o) const {
  std::vector<Polynomial> scratch;
  scratch.reserve(64);
  auto pick = [&scratch](const Polynomial* a, const Polynomial* b,
                         double) -> const Polynomial* {
    if (a == nullptr || b == nullptr) return nullptr;
    scratch.push_back(*a - *b);
    return &scratch.back();
  };
  return merge_with(o, pick, /*split_at_crossings=*/false);
}

PiecewisePoly PiecewisePoly::min_with(const PiecewisePoly& o) const {
  auto pick = [](const Polynomial* a, const Polynomial* b,
                 double m) -> const Polynomial* {
    if (a == nullptr) return b;
    if (b == nullptr) return a;
    return (*a)(m) <= (*b)(m) ? a : b;
  };
  return merge_with(o, pick, /*split_at_crossings=*/true);
}

PiecewisePoly PiecewisePoly::max_with(const PiecewisePoly& o) const {
  auto pick = [](const Polynomial* a, const Polynomial* b,
                 double m) -> const Polynomial* {
    if (a == nullptr) return b;
    if (b == nullptr) return a;
    return (*a)(m) >= (*b)(m) ? a : b;
  };
  return merge_with(o, pick, /*split_at_crossings=*/true);
}

IntervalSet PiecewisePoly::sublevel_set(double threshold) const {
  std::vector<Interval> hit;
  RootFindResult rr;
  std::vector<double> cuts;
  for (const Span& s : spans_) {
    Polynomial shifted = s.fn - Polynomial::constant(threshold);
    real_roots_from_into(shifted, s.iv.lo, thread_root_scratch(), rr,
                         s.iv.hi);
    cuts.clear();
    if (!rr.identically_zero) {
      for (double r : rr.roots) {
        if (r > s.iv.lo && r < s.iv.hi) cuts.push_back(r);
      }
    }
    double lo = s.iv.lo;
    for (std::size_t c = 0; c <= cuts.size(); ++c) {
      double hi = (c < cuts.size()) ? cuts[c] : s.iv.hi;
      Interval sub{lo, hi};
      if (sub.nondegenerate() && s.fn(sub.midpoint()) <= threshold) {
        hit.push_back(sub);
      }
      lo = hi;
    }
  }
  return IntervalSet(std::move(hit));
}

PiecewisePoly::Extremum PiecewisePoly::global_min() const {
  DYNCG_ASSERT(!spans_.empty(), "global_min of empty piecewise polynomial");
  Extremum best{kInfinity, 0.0};
  RootFindResult crit;
  auto consider = [&best](double v, double t) {
    if (v < best.value) best = Extremum{v, t};
  };
  for (const Span& s : spans_) {
    consider(s.fn(s.iv.lo), s.iv.lo);
    if (std::isinf(s.iv.hi)) {
      DYNCG_ASSERT(s.fn.sign_at_infinity() >= 0,
                   "global_min unbounded below on an infinite span");
    } else {
      consider(s.fn(s.iv.hi), s.iv.hi);
    }
    real_roots_from_into(s.fn.derivative(), s.iv.lo, thread_root_scratch(),
                         crit, s.iv.hi);
    if (!crit.identically_zero) {
      for (double t : crit.roots) {
        if (t > s.iv.lo && t < s.iv.hi) consider(s.fn(t), t);
      }
    }
  }
  return best;
}

void PiecewisePoly::coalesce() {
  std::vector<Span> out;
  for (const Span& s : spans_) {
    if (!out.empty() && out.back().iv.hi == s.iv.lo && out.back().fn == s.fn) {
      out.back().iv.hi = s.iv.hi;
    } else {
      out.push_back(s);
    }
  }
  spans_.swap(out);
}

std::string PiecewisePoly::to_string() const {
  std::ostringstream os;
  for (const Span& s : spans_) {
    os << "(" << s.fn.to_string() << ", " << s.iv.to_string() << ") ";
  }
  return os.str();
}

PiecewisePoly materialize(const PolyFamily& fam, const PiecewiseFn& fn) {
  std::vector<PiecewisePoly::Span> spans;
  spans.reserve(fn.pieces.size());
  for (const Piece& p : fn.pieces) {
    spans.push_back(PiecewisePoly::Span{p.iv, fam.member(p.id)});
  }
  PiecewisePoly out(std::move(spans));
  out.coalesce();
  return out;
}

}  // namespace dyncg
