// Hybrid direct/iterative solver (§II-C, Algorithms II.6–II.8).
//
// With level restriction, only the subtrees rooted at the
// skeletonization frontier A are factorized directly (that is the
// block-diagonal D). All couplings above the frontier are collapsed
// into the global factors
//
//   W = blockdiag_{a in A}( P^_a )            (N x S,  S = sum_a s_a)
//   V : row block a = K(a~, X \ a)            (S x N)
//
// and (lambda I + K~)^-1 u = D^-1 u - W (I + V W)^-1 V D^-1 u, where the
// reduced S x S system is solved matrix-free with GMRES. V is applied
// with the fused GSKS summation, so the hybrid solver stores no
// above-frontier kernel blocks at all — the storage win of Table V.
#pragma once

#include "core/factor_tree.hpp"
#include "iterative/gmres.hpp"

#include <vector>

namespace fdks::core {

struct HybridOptions {
  /// Frontier-subtree factorization options; `direct.verify` is the
  /// certification / escalation policy of the checked solves.
  SolverOptions direct;
  iter::GmresOptions gmres;    ///< Reduced-system Krylov options.
};

/// Why a reduced-system GMRES stopped short, as a solve code (Ok when it
/// converged); std::max over a batch's columns keeps the worst.
SolveCode gmres_code(const iter::GmresResult& g);

class HybridSolver {
 public:
  /// Factorizes the frontier subtrees on construction.
  HybridSolver(const HMatrix& h, HybridOptions opts);

  /// Solve (lambda I + K~) X = U for B >= 1 right-hand sides (columns
  /// of u, original point order). The linear stages of Algorithm II.6
  /// are batched — D^-1 as in-place block subtree solves, V via fused
  /// block kernel summation, W as batched P^ applications — while the
  /// reduced-system GMRES (step 3) stays per column (a Krylov space is
  /// per-RHS). last_gmres() reflects the final column afterwards.
  /// `cancel` (optional) is checked between frontier subtrees and at
  /// every reduced-system GMRES iteration; an expired token aborts with
  /// core::CancelledError.
  Matrix solve(const Matrix& u, const CancelToken* cancel = nullptr) const;

  /// Single-vector form: the B = 1 case of the block solve.
  std::vector<double> solve(std::span<const double> u,
                            const CancelToken* cancel = nullptr) const;

  /// Checked solve: solve(), then core::guard_and_certify
  /// (core/verify.hpp) with the reduced-system GMRES outcome as the
  /// pre-ladder code. When `direct.verify` is enabled (Sample counts as
  /// in-sample here), the certification ladder refines x in place and,
  /// on stagnation, escalates to an outer GMRES on (lambda I + K~)
  /// right-preconditioned by this solver (graceful degradation). Never
  /// throws on numerical trouble; inspect the returned SolveStatus.
  SolveStatus solve_checked(std::span<const double> u, std::span<double> x,
                            const CancelToken* cancel = nullptr) const;

  /// Structured factorization outcome for the frontier subtrees.
  FactorStatus factor_status() const { return ft_.factor_status(); }

  /// Size S of the reduced system (I + VW).
  index_t reduced_size() const { return reduced_size_; }

  const iter::GmresResult& last_gmres() const { return last_; }
  const StabilityReport& stability() const { return ft_.stability(); }
  double factor_seconds() const { return factor_seconds_; }
  size_t factor_bytes() const;

  // -- Exposed for tests and the distributed driver --------------------

  /// Z = V Q (Algorithm II.8) for B >= 1 columns: Q is N x B (permuted
  /// order), Z is S x B. Fused block kernel sweeps evaluate each kernel
  /// tile once for all B columns.
  void matvec_v(la::ConstMatrixView q, la::MatrixView z) const;

  /// Q += alpha W Z (Algorithm II.7) for B >= 1 columns: Z is S x B, Q
  /// is N x B (permuted order); one batched P^ application per frontier
  /// node.
  void matvec_w(la::ConstMatrixView z, la::MatrixView q, double alpha) const;

  /// Single-vector forms: z = V q and q = W z.
  void matvec_v(std::span<const double> q, std::span<double> z) const;
  void matvec_w(std::span<const double> z, std::span<double> q) const;

  /// y = (I + V W) z, the reduced operator handed to GMRES.
  void reduced_apply(std::span<const double> z, std::span<double> y) const;

 private:
  const HMatrix* h_;
  HybridOptions opts_;
  FactorTree ft_;
  std::vector<index_t> frontier_;
  std::vector<index_t> offsets_;   ///< Prefix offsets of each a's block in S.
  std::vector<index_t> all_ids_;   ///< 0..N-1, the V column index set.
  index_t reduced_size_ = 0;
  double factor_seconds_ = 0.0;
  mutable iter::GmresResult last_;
};

}  // namespace fdks::core
