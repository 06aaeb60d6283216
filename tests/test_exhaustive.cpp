// Exhaustive verification at small scale: every combination of small
// integer coefficients, so the combinatorial core (piece splitting,
// tie-breaking, coalescing, DS bookkeeping) is checked on the complete
// space of tiny instances rather than a random sample.
#include <gtest/gtest.h>

#include <cmath>

#include "pieces/envelope_serial.hpp"
#include "support/ackermann.hpp"
#include "support/ds_sequence.hpp"

namespace dyncg {
namespace {

void check_envelope(const PolyFamily& fam, int s) {
  PiecewiseFn env = envelope_serial(fam);
  ASSERT_TRUE(env.well_formed(fam.size()));
  ASSERT_TRUE(env.support().complement().empty());
  EXPECT_LE(env.piece_count(),
            lambda_upper_bound(fam.size(), s));
  EXPECT_TRUE(is_davenport_schinzel(env.origin_sequence(),
                                    static_cast<int>(fam.size()), s));
  // Dense pointwise agreement.
  for (double t = 0.0; t < 8.0; t += 0.23) {
    int id = env.id_at(t);
    ASSERT_GE(id, 0);
    double got = fam.value(id, t);
    double want = got;
    for (int i = 0; i < static_cast<int>(fam.size()); ++i) {
      want = std::min(want, fam.value(i, t));
    }
    EXPECT_LE(got, want + 1e-9) << "t=" << t;
  }
}

TEST(Exhaustive, AllPairsOfSmallLines) {
  // Both lines over coefficients {-2..2}^2: 625 cases.
  for (int a0 = -2; a0 <= 2; ++a0) {
    for (int b0 = -2; b0 <= 2; ++b0) {
      for (int a1 = -2; a1 <= 2; ++a1) {
        for (int b1 = -2; b1 <= 2; ++b1) {
          PolyFamily fam({Polynomial({double(a0), double(b0)}),
                          Polynomial({double(a1), double(b1)})});
          check_envelope(fam, 1);
        }
      }
    }
  }
}

TEST(Exhaustive, AllTriplesOfTinyLines) {
  // Three lines, coefficients in {-1, 0, 1}: 3^6 = 729 cases, including
  // every possible degeneracy pattern (duplicates, concurrences, ties).
  for (int a0 = -1; a0 <= 1; ++a0)
    for (int b0 = -1; b0 <= 1; ++b0)
      for (int a1 = -1; a1 <= 1; ++a1)
        for (int b1 = -1; b1 <= 1; ++b1)
          for (int a2 = -1; a2 <= 1; ++a2)
            for (int b2 = -1; b2 <= 1; ++b2) {
              PolyFamily fam({Polynomial({double(a0), double(b0)}),
                              Polynomial({double(a1), double(b1)}),
                              Polynomial({double(a2), double(b2)})});
              check_envelope(fam, 1);
            }
}

TEST(Exhaustive, AllPairsOfSmallParabolas) {
  // Two parabolas with coefficients in {-1, 0, 1}: 729 cases covering
  // tangency (double roots), identical functions, and sign flips.
  for (int a0 = -1; a0 <= 1; ++a0)
    for (int b0 = -1; b0 <= 1; ++b0)
      for (int c0 = -1; c0 <= 1; ++c0)
        for (int a1 = -1; a1 <= 1; ++a1)
          for (int b1 = -1; b1 <= 1; ++b1)
            for (int c1 = -1; c1 <= 1; ++c1) {
              PolyFamily fam(
                  {Polynomial({double(a0), double(b0), double(c0)}),
                   Polynomial({double(a1), double(b1), double(c1)})});
              check_envelope(fam, 2);
            }
}

TEST(Exhaustive, PiecewiseMinMaxDualityOnGrid) {
  // max(f,g) == -min(-f,-g) across a coefficient grid.
  for (int a0 = -2; a0 <= 2; ++a0) {
    for (int a1 = -2; a1 <= 2; ++a1) {
      Polynomial f({double(a0), 1.0});
      Polynomial g({double(a1), -1.0});
      PiecewisePoly mx =
          PiecewisePoly::total(f).max_with(PiecewisePoly::total(g));
      PiecewisePoly mn =
          PiecewisePoly::total(-f).min_with(PiecewisePoly::total(-g));
      for (double t = 0; t < 6; t += 0.37) {
        EXPECT_NEAR(mx(t), -mn(t), 1e-12);
      }
    }
  }
}

}  // namespace
}  // namespace dyncg
