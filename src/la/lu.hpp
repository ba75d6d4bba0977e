// LU factorization with partial pivoting (GETRF/GETRS substitutes) and a
// 1-norm reciprocal-condition estimator.
//
// The paper factorizes every leaf block (λI + K_aa) and every SMW reduced
// system Z with LAPACK GETRF and solves with GETRS. These routines also
// feed the stability detection of §III: the factorization reports the
// smallest pivot magnitude so the solver can flag numerically
// ill-conditioned diagonal blocks (the small-λ regime the paper warns
// about).
#pragma once

#include <vector>

#include "la/matrix.hpp"

namespace fdks::la {

/// LU factorization of a square matrix with partial (row) pivoting.
/// Holds the packed factors, the pivot sequence, and pivot diagnostics.
struct LuFactor {
  Matrix lu;                   ///< Packed L (unit lower) and U.
  std::vector<index_t> piv;    ///< piv[k]: row swapped with row k at step k.
  double min_pivot = 0.0;      ///< Smallest |U(k,k)| seen.
  double max_pivot = 0.0;      ///< Largest |U(k,k)| seen.
  bool singular = false;       ///< An exactly-zero pivot was hit.

  index_t n() const { return lu.rows(); }

  /// Ratio min|pivot| / max|pivot|; a cheap stability indicator
  /// (0 when singular, near 1 for well-scaled well-conditioned blocks).
  double pivot_ratio() const {
    return max_pivot > 0.0 ? min_pivot / max_pivot : 0.0;
  }
};

/// Factorize a copy of A (A must be square). Never throws on singularity;
/// check .singular / .min_pivot instead, mirroring LAPACK's info flag.
LuFactor lu_factor(const Matrix& a);

/// Solve A x = b in place on b (single right-hand side).
void lu_solve(const LuFactor& f, std::span<double> b);

/// Solve A X = B for a block of right-hand sides, in place on a
/// (possibly strided) view. Unlike a per-column loop, the substitution
/// sweeps stream each factor column once across ALL right-hand sides
/// (TRSM-style), so the factor's memory traffic is paid once per solve
/// instead of once per column.
void lu_solve(const LuFactor& f, MatrixView b);

/// Estimate 1/cond_1(A) = 1/(||A||_1 ||A^-1||_1) using Hager-Higham style
/// iteration on the factor (a GECON substitute). anorm1 is ||A||_1 of the
/// original matrix.
double lu_rcond(const LuFactor& f, double anorm1);

/// ||A||_1 (maximum absolute column sum).
double norm1(const Matrix& a);

}  // namespace fdks::la
