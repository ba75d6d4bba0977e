// Tests for GEMV and the blocked GEMM against the triple-loop reference.
#include <gtest/gtest.h>

#include <random>
#include <span>
#include <tuple>
#include <vector>

#include "la/gemm.hpp"
#include "la/matrix.hpp"
#include "obs/obs.hpp"

namespace fdks::la {
namespace {

TEST(Gemv, NoTransMatchesManual) {
  Matrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  std::vector<double> x = {1.0, 1.0, 1.0};
  std::vector<double> y = {100.0, 100.0};
  gemv(Trans::No, 1.0, a, x, 0.0, y);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
}

TEST(Gemv, TransMatchesManual) {
  Matrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  std::vector<double> x = {1.0, -1.0};
  std::vector<double> y(3, 0.0);
  gemv(Trans::Yes, 1.0, a, x, 0.0, y);
  EXPECT_DOUBLE_EQ(y[0], -3.0);
  EXPECT_DOUBLE_EQ(y[1], -3.0);
  EXPECT_DOUBLE_EQ(y[2], -3.0);
}

TEST(Gemv, BetaAccumulates) {
  Matrix a = Matrix::identity(2);
  std::vector<double> x = {1.0, 2.0};
  std::vector<double> y = {10.0, 10.0};
  gemv(Trans::No, 2.0, a, x, 0.5, y);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 9.0);
}

TEST(Gemv, ShapeMismatchThrows) {
  Matrix a(2, 3);
  std::vector<double> x(2), y(2);
  EXPECT_THROW(gemv(Trans::No, 1.0, a, x, 0.0, y), std::invalid_argument);
}

TEST(Gemm, IdentityIsNoop) {
  std::mt19937_64 rng(1);
  Matrix a = Matrix::random_gaussian(7, 7, rng);
  Matrix c = matmul(a, Matrix::identity(7));
  EXPECT_LT(max_abs_diff(a, c), 1e-15);
}

TEST(Gemm, ShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 3), c(2, 3);
  EXPECT_THROW(gemm(Trans::No, Trans::No, 1.0, a, b, 0.0, c),
               std::invalid_argument);
}

TEST(Gemm, BetaZeroOverwritesNanSafe) {
  // beta = 0 must overwrite even when C holds NaN (BLAS semantics).
  Matrix a = Matrix::identity(2);
  Matrix b = Matrix::identity(2);
  Matrix c(2, 2, std::numeric_limits<double>::quiet_NaN());
  gemm(Trans::No, Trans::No, 1.0, a, b, 0.0, c);
  EXPECT_DOUBLE_EQ(c(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 0.0);
}

// Property sweep: blocked GEMM (all transpose combinations, alpha/beta
// variations) must match the reference implementation on odd shapes that
// straddle the blocking boundaries.
class GemmParity
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(GemmParity, MatchesReference) {
  const auto [m, n, k, mode] = GetParam();
  std::mt19937_64 rng(static_cast<uint64_t>(m * 73 + n * 31 + k * 7 + mode));
  const Trans ta = (mode & 1) ? Trans::Yes : Trans::No;
  const Trans tb = (mode & 2) ? Trans::Yes : Trans::No;
  Matrix a = (ta == Trans::No) ? Matrix::random_gaussian(m, k, rng)
                               : Matrix::random_gaussian(k, m, rng);
  Matrix b = (tb == Trans::No) ? Matrix::random_gaussian(k, n, rng)
                               : Matrix::random_gaussian(n, k, rng);
  Matrix c0 = Matrix::random_gaussian(m, n, rng);
  Matrix c1 = c0;
  const double alpha = 1.25, beta = -0.5;
  gemm(ta, tb, alpha, a, b, beta, c0);
  gemm_ref(ta, tb, alpha, a, b, beta, c1);
  EXPECT_LT(max_abs_diff(c0, c1), 1e-10 * std::max<index_t>(1, k))
      << "m=" << m << " n=" << n << " k=" << k << " mode=" << mode;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmParity,
    ::testing::Values(
        std::make_tuple(1, 1, 1, 0), std::make_tuple(5, 3, 4, 0),
        std::make_tuple(5, 3, 4, 1), std::make_tuple(5, 3, 4, 2),
        std::make_tuple(5, 3, 4, 3), std::make_tuple(33, 17, 65, 0),
        std::make_tuple(129, 130, 257, 0), std::make_tuple(64, 512, 8, 0),
        std::make_tuple(200, 1, 200, 0), std::make_tuple(1, 200, 200, 0),
        std::make_tuple(127, 129, 5, 3), std::make_tuple(96, 96, 96, 0)));

TEST(GemmRaw, StridedSubBlock) {
  // gemm_raw must honor leading dimensions when writing into a window of
  // a larger matrix.
  std::mt19937_64 rng(3);
  Matrix big(10, 10);
  Matrix a = Matrix::random_gaussian(4, 3, rng);
  Matrix b = Matrix::random_gaussian(3, 5, rng);
  gemm_raw(4, 5, 3, 1.0, a.data(), a.ld(), b.data(), b.ld(), 0.0,
           big.data() + 2 + 1 * big.ld(), big.ld());
  Matrix exact = matmul(a, b);
  for (index_t j = 0; j < 5; ++j)
    for (index_t i = 0; i < 4; ++i)
      EXPECT_NEAR(big(2 + i, 1 + j), exact(i, j), 1e-12);
  EXPECT_EQ(big(0, 0), 0.0);  // Outside the window untouched.
  EXPECT_EQ(big(9, 9), 0.0);
}

// ---- Counting convention (see gemm.hpp) -----------------------------
//
// Validating routines (gemv, gemm, gsks) count AFTER validation: a
// throwing call must not inflate the flop accounting the bench
// regression gate compares. Raw-pointer routines (gemm_raw) count the
// call at entry because the beta-scale mutates C even when the multiply
// is skipped; flops.* still only counts executed multiply work. A
// one-column view gemm is a GEMV and counts as one; a 2..7 column one
// computes like per-column GEMVs but counts as the GEMM it is.

double counter_of(const char* name) {
  const obs::Snapshot s = obs::snapshot();
  const auto it = s.counters.find(name);
  return it != s.counters.end() ? it->second : 0.0;
}

// Counters are globally gated; flip them on for the duration of a test.
struct ObsOn {
  bool was = obs::enabled();
  ObsOn() { obs::set_enabled(true); }
  ~ObsOn() { obs::set_enabled(was); }
};

TEST(Counters, ThrowingGemvDoesNotCount) {
  ObsOn obs_on;
  Matrix a(2, 3);
  std::vector<double> x(2), y(2);  // Wrong x length for NoTrans.
  const double calls0 = counter_of("gemv.calls");
  const double flops0 = counter_of("flops.gemv");
  EXPECT_THROW(gemv(Trans::No, 1.0, a, x, 0.0, y), std::invalid_argument);
  std::vector<double> yt(2);  // Wrong y length for Trans (needs n = 3).
  EXPECT_THROW(gemv(Trans::Yes, 1.0, a, x, 0.0, yt),
               std::invalid_argument);
  EXPECT_DOUBLE_EQ(counter_of("gemv.calls"), calls0);
  EXPECT_DOUBLE_EQ(counter_of("flops.gemv"), flops0);
}

TEST(Counters, ThrowingGemmDoesNotCount) {
  ObsOn obs_on;
  Matrix a(2, 3), b(2, 3), c(2, 3);
  const double calls0 = counter_of("gemm.calls");
  const double flops0 = counter_of("flops.gemm");
  EXPECT_THROW(gemm(Trans::No, Trans::No, 1.0, a, b, 0.0, c),
               std::invalid_argument);
  EXPECT_DOUBLE_EQ(counter_of("gemm.calls"), calls0);
  EXPECT_DOUBLE_EQ(counter_of("flops.gemm"), flops0);
}

TEST(Counters, GemmRawScaleOnlyCountsCallNotFlops) {
  ObsOn obs_on;
  // k == 0: no multiply work, but the beta-scale still runs — the call
  // is visible in gemm.calls while flops.gemm stays put.
  Matrix c(3, 2);
  for (index_t j = 0; j < 2; ++j)
    for (index_t i = 0; i < 3; ++i) c(i, j) = 4.0;
  const double calls0 = counter_of("gemm.calls");
  const double flops0 = counter_of("flops.gemm");
  gemm_raw(3, 2, 0, 1.0, nullptr, 1, nullptr, 1, 0.5, c.data(), c.ld());
  EXPECT_DOUBLE_EQ(counter_of("gemm.calls"), calls0 + 1.0);
  EXPECT_DOUBLE_EQ(counter_of("flops.gemm"), flops0);
  EXPECT_DOUBLE_EQ(c(0, 0), 2.0);  // The scale was applied.
  EXPECT_DOUBLE_EQ(c(2, 1), 2.0);

  // alpha == 0 with beta == 0: a pure clear, same convention.
  gemm_raw(3, 2, 5, 0.0, nullptr, 1, nullptr, 1, 0.0, c.data(), c.ld());
  EXPECT_DOUBLE_EQ(counter_of("gemm.calls"), calls0 + 2.0);
  EXPECT_DOUBLE_EQ(counter_of("flops.gemm"), flops0);
  EXPECT_DOUBLE_EQ(c(1, 1), 0.0);
}

TEST(Counters, ExecutedGemmCountsFlops) {
  ObsOn obs_on;
  std::mt19937_64 rng(9);
  Matrix a = Matrix::random_gaussian(4, 5, rng);
  Matrix b = Matrix::random_gaussian(5, 3, rng);
  Matrix c(4, 3);
  const double calls0 = counter_of("gemm.calls");
  const double flops0 = counter_of("flops.gemm");
  gemm(Trans::No, Trans::No, 1.0, a, b, 0.0, c);
  EXPECT_GE(counter_of("gemm.calls"), calls0 + 1.0);
  EXPECT_DOUBLE_EQ(counter_of("flops.gemm"),
                   flops0 + 2.0 * 4.0 * 5.0 * 3.0);
}

TEST(Counters, OneColumnViewGemmIsCountedGemv) {
  ObsOn obs_on;
  // Large enough that a packed GEMM would round differently; A is a
  // strided sub-block so the view's leading dimension is exercised.
  std::mt19937_64 rng(12);
  const Matrix big = Matrix::random_gaussian(310, 200, rng);
  const Matrix a = big.block(0, 0, 300, 200);
  const ConstMatrixView av = ConstMatrixView(big).block(0, 0, 300, 200);
  Matrix b = Matrix::random_gaussian(200, 1, rng);
  Matrix c = Matrix::random_gaussian(300, 1, rng);
  std::vector<double> y(c.data(), c.data() + c.size());

  const double gemv_calls0 = counter_of("gemv.calls");
  const double gemv_flops0 = counter_of("flops.gemv");
  gemv(Trans::No, -1.5, a, std::span<const double>(b.data(), 200), 0.5, y);
  const double gemm_calls0 = counter_of("gemm.calls");
  const double gemm_flops0 = counter_of("flops.gemm");
  gemm(-1.5, av, ConstMatrixView(b), 0.5, MatrixView(c));

  for (index_t i = 0; i < 300; ++i)
    EXPECT_EQ(c(i, 0), y[static_cast<size_t>(i)]) << "row " << i;
  EXPECT_DOUBLE_EQ(counter_of("gemv.calls"), gemv_calls0 + 2.0);
  EXPECT_DOUBLE_EQ(counter_of("flops.gemv"),
                   gemv_flops0 + 2.0 * (2.0 * 300.0 * 200.0));
  EXPECT_DOUBLE_EQ(counter_of("gemm.calls"), gemm_calls0);
  EXPECT_DOUBLE_EQ(counter_of("flops.gemm"), gemm_flops0);
}

TEST(Counters, NarrowViewGemmMatchesGemvPerColumn) {
  ObsOn obs_on;
  // 2..7 columns is narrower than one micro-tile: the panel streams A
  // once, every column bit-identical to a GEMV, and still counts as
  // one GEMM. Sizes are far above the small-problem cutoff.
  std::mt19937_64 rng(13);
  const Matrix big = Matrix::random_gaussian(310, 200, rng);
  const Matrix a = big.block(0, 0, 300, 200);
  const ConstMatrixView av = ConstMatrixView(big).block(0, 0, 300, 200);
  for (index_t n = 2; n < 8; ++n) {
    const Matrix b = Matrix::random_gaussian(200, n, rng);
    Matrix c = Matrix::random_gaussian(300, n, rng);
    Matrix want = c;
    for (index_t j = 0; j < n; ++j)
      gemv(Trans::No, -1.5, a,
           std::span<const double>(b.col(j), 200),
           0.5, std::span<double>(want.col(j), 300));
    const double calls0 = counter_of("gemm.calls");
    const double flops0 = counter_of("flops.gemm");
    gemm(-1.5, av, ConstMatrixView(b), 0.5, MatrixView(c));
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < 300; ++i)
        ASSERT_EQ(c(i, j), want(i, j)) << "n " << n << " (" << i << ", "
                                       << j << ")";
    EXPECT_DOUBLE_EQ(counter_of("gemm.calls"), calls0 + 1.0);
    EXPECT_DOUBLE_EQ(counter_of("flops.gemm"),
                     flops0 + 2.0 * 300.0 * double(n) * 200.0);
  }
}

TEST(GemvRaw, MatchesGemv) {
  std::mt19937_64 rng(4);
  Matrix a = Matrix::random_gaussian(6, 4, rng);
  std::vector<double> x = {1.0, -2.0, 0.5, 3.0};
  std::vector<double> y1(6, 1.0), y2(6, 1.0);
  gemv(Trans::No, 2.0, a, x, 3.0, y1);
  gemv_raw(6, 4, 2.0, a.data(), a.ld(), x.data(), 3.0, y2.data());
  for (int i = 0; i < 6; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-13);
}

}  // namespace
}  // namespace fdks::la
