// Cholesky factorization (POTRF/POTRS substitutes) for symmetric positive
// definite systems. Used by tests (regularized kernel blocks are SPD for
// lambda large enough) and as an alternative leaf factorization.
#pragma once

#include "la/matrix.hpp"

namespace fdks::la {

struct CholFactor {
  Matrix l;          ///< Lower-triangular factor, upper part zeroed.
  bool spd = true;   ///< False when a non-positive pivot was encountered.
  double min_diag = 0.0;

  index_t n() const { return l.rows(); }
};

/// Factor A = L L^T (lower). A must be square and symmetric; only the
/// lower triangle is read.
CholFactor chol_factor(const Matrix& a);

/// Solve A x = b in place on b.
void chol_solve(const CholFactor& f, std::span<double> b);

/// Solve A X = B in place on a (possibly strided) view; each factor
/// column streams once across all right-hand sides (TRSM-style).
void chol_solve(const CholFactor& f, MatrixView b);

}  // namespace fdks::la
