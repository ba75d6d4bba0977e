#include "la/chol.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "la/gemm.hpp"

namespace fdks::la {

namespace {

constexpr index_t kCholBlock = 64;

// Unblocked right-looking Cholesky on the window [k0, k1) of l, with
// column updates running down to row `rows_end`. Assumes the window has
// already received all trailing updates from earlier panels.
void chol_panel(Matrix& l, CholFactor& f, index_t k0, index_t k1,
                index_t rows_end) {
  for (index_t j = k0; j < k1; ++j) {
    double d = l(j, j);
    for (index_t k = k0; k < j; ++k) d -= l(j, k) * l(j, k);
    if (d <= 0.0) {
      f.spd = false;
      f.min_diag = std::min(f.min_diag, d);
      d = std::numeric_limits<double>::min();  // Keep going, diagnostics.
    }
    const double ljj = std::sqrt(d);
    f.min_diag = std::min(f.min_diag, ljj);
    l(j, j) = ljj;
    for (index_t i = j + 1; i < rows_end; ++i) {
      double s = l(i, j);
      for (index_t k = k0; k < j; ++k) s -= l(i, k) * l(j, k);
      l(i, j) = s / ljj;
    }
  }
}

}  // namespace

CholFactor chol_factor(const Matrix& a) {
  if (a.rows() != a.cols())
    throw std::invalid_argument("chol_factor: matrix must be square");
  const index_t n = a.rows();
  CholFactor f;
  f.l = a;
  f.min_diag = std::numeric_limits<double>::infinity();
  Matrix& l = f.l;

  // Blocked right-looking Cholesky: factor an nb-wide panel (diagonal
  // block + the column below it), then push the symmetric rank-nb
  // trailing update through the cache-blocked GEMM.
  for (index_t k0 = 0; k0 < n; k0 += kCholBlock) {
    const index_t k1 = std::min(n, k0 + kCholBlock);
    chol_panel(l, f, k0, k1, n);
    if (k1 == n) break;
    // A22 -= L21 L21^T with L21 = l(k1:n, k0:k1). Only the lower
    // trapezoid is needed (and read) downstream, so the update runs
    // block-column by block-column over rows at/below the diagonal —
    // this is where Cholesky's 2x flop saving over LU lives.
    const index_t m = n - k1;
    const index_t nb = k1 - k0;
    Matrix l21t(nb, m);  // Staged L21^T for gemm_raw's column-major B.
    for (index_t j = 0; j < nb; ++j)
      for (index_t i = 0; i < m; ++i) l21t(j, i) = l(k1 + i, k0 + j);
    for (index_t c0 = k1; c0 < n; c0 += kCholBlock) {
      const index_t c1 = std::min(n, c0 + kCholBlock);
      gemm_raw(n - c0, c1 - c0, nb, -1.0, l.col(k0) + c0, l.ld(),
               l21t.col(c0 - k1), l21t.ld(), 1.0, l.col(c0) + c0, l.ld());
    }
  }

  // Zero the strict upper triangle (the factor contract).
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < j; ++i) l(i, j) = 0.0;
  if (n == 0) f.min_diag = 0.0;
  return f;
}

void chol_solve(const CholFactor& f, std::span<double> b) {
  const index_t n = f.n();
  if (static_cast<index_t>(b.size()) != n)
    throw std::invalid_argument("chol_solve: rhs size mismatch");
  const Matrix& l = f.l;
  // Both sweeps stream down columns of the (column-major) factor.
  // Forward: L y = b, column-oriented saxpy updates.
  for (index_t k = 0; k < n; ++k) {
    const double* col = l.col(k);
    b[k] /= col[k];
    const double bk = b[k];
    if (bk == 0.0) continue;
    for (index_t i = k + 1; i < n; ++i) b[i] -= col[i] * bk;
  }
  // Backward: L^T x = y, column-k dot products below the diagonal.
  for (index_t k = n - 1; k >= 0; --k) {
    const double* col = l.col(k);
    double s = b[k];
    for (index_t i = k + 1; i < n; ++i) s -= col[i] * b[i];
    b[k] = s / col[k];
  }
}

void chol_solve(const CholFactor& f, MatrixView b) {
  const index_t n = f.n();
  if (b.rows() != n)
    throw std::invalid_argument("chol_solve: block rhs shape mismatch");
  const index_t nrhs = b.cols();
  if (nrhs == 1) {
    chol_solve(f, b.col_span(0));
    return;
  }
  const Matrix& l = f.l;
  // Forward: L Y = B, each factor column applied to every rhs column.
  for (index_t k = 0; k < n; ++k) {
    const double* col = l.col(k);
    const double inv = 1.0 / col[k];
    for (index_t j = 0; j < nrhs; ++j) {
      b(k, j) *= inv;
      const double bk = b(k, j);
      if (bk == 0.0) continue;
      double* bj = b.col(j);
      for (index_t i = k + 1; i < n; ++i) bj[i] -= col[i] * bk;
    }
  }
  // Backward: L^T X = Y, column-k dot products below the diagonal.
  for (index_t k = n - 1; k >= 0; --k) {
    const double* col = l.col(k);
    for (index_t j = 0; j < nrhs; ++j) {
      double* bj = b.col(j);
      double s = bj[k];
      for (index_t i = k + 1; i < n; ++i) s -= col[i] * bj[i];
      bj[k] = s / col[k];
    }
  }
}

}  // namespace fdks::la
