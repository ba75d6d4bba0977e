// Distributed hybrid solver (Algorithms II.6-II.8 over mpisim).
//
// Ownership: with p ranks, each rank owns the frontier subtrees inside
// its level-log2(p) node (level restriction L must be >= log2(p) so no
// frontier node spans ranks). D^-1 is per-rank local; MatVecW is local
// (W rows live with their points); MatVecV follows Algorithm II.8 —
// every rank computes K(a~, {x}_local) q_local for ALL frontier
// skeletons a~ against its own points, and an AllReduce assembles the
// full reduced vector on every rank. GMRES on (I + VW) then runs
// replicated, with the collective matvec keeping all ranks in lockstep.
#pragma once

#include "core/dist_solver.hpp"
#include "core/hybrid.hpp"
#include "mpisim/runtime.hpp"

#include <vector>

namespace fdks::core {

class DistributedHybridSolver {
 public:
  /// Collective over comm; factorizes the local frontier subtrees.
  /// Requires p a power of two, a complete tree level log2(p), and
  /// every frontier node at level >= log2(p).
  DistributedHybridSolver(const HMatrix& h, HybridOptions opts,
                          mpisim::Comm comm);

  /// Collective solve for B >= 1 right-hand sides (columns identical
  /// on all ranks, original order); returns the full solution on every
  /// rank. Local D^-1 runs as in-place block subtree solves, V as fused
  /// block kernel sweeps with one allreduce per [S x B] panel, W as
  /// batched P^ GEMMs; the replicated reduced-system GMRES (step 3)
  /// stays per column. last_gmres() reflects the final column;
  /// last_status() the worst. When HybridOptions::direct.verify is
  /// enabled, the certification / refinement ladder (core/verify.hpp)
  /// runs collectively afterwards: u and x are replicated, so every
  /// rank reaches the identical per-column decision and each
  /// correction pass stays a collective Algorithm II.6 solve.
  Matrix solve(const Matrix& u);

  /// Single-vector form: the B = 1 case of the block solve.
  std::vector<double> solve(std::span<const double> u);

  index_t reduced_size() const { return reduced_size_; }
  const iter::GmresResult& last_gmres() const { return last_; }
  double factor_seconds() const { return factor_seconds_; }

  /// Globally-agreed factorization outcome (see DistributedSolver).
  const FactorStatus& factor_status() const { return factor_status_; }

  /// Outcome of the most recent solve(), identical on every rank: the
  /// replicated GMRES gives every rank the same convergence flags, and
  /// the solution/residual come from collectively assembled data. For
  /// a batch it is the worst column's outcome.
  const SolveStatus& last_status() const { return last_status_; }

 private:
  /// One Algorithm II.6-II.8 pass (local D^-1 + replicated reduced
  /// GMRES + correction), without status/verification bookkeeping.
  /// Updates last_ and the block_gmres_* summaries.
  Matrix solve_impl(const Matrix& u);

  /// Z = V Q (Algorithm II.8) for B >= 1 columns, with Q the rank-local
  /// rows (permuted order); collective: one allreduce of the [S x B]
  /// panel leaves the full Z on every rank.
  void matvec_v_local(la::ConstMatrixView q_local, la::MatrixView z) const;
  /// Q_local += alpha W Z restricted to this rank's points.
  void matvec_w_local(la::ConstMatrixView z, la::MatrixView q_local,
                      double alpha) const;

  const HMatrix* h_;
  HybridOptions opts_;
  FactorTree ft_;
  mpisim::Comm comm_;
  index_t local_root_ = -1;
  index_t local_begin_ = 0, local_end_ = 0;
  std::vector<index_t> frontier_;        ///< Global frontier, all ranks.
  std::vector<index_t> offsets_;         ///< Block offsets into S.
  std::vector<size_t> local_frontier_;   ///< Indices into frontier_ owned
                                         ///< by this rank.
  index_t reduced_size_ = 0;
  double factor_seconds_ = 0.0;
  iter::GmresResult last_;
  index_t block_gmres_iters_ = 0;  ///< Column sum, last solve_impl.
  SolveCode block_gmres_code_ = SolveCode::Ok;  ///< Worst column, ditto.
  FactorStatus factor_status_;
  SolveStatus last_status_;
  std::uint64_t verify_seq_ = 0;  ///< Sampling counter (replicated).
};

}  // namespace fdks::core
