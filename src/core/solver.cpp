// FastDirectSolver driver: full-tree factorization (telescoped or the
// [36] subtree baseline, selected by SolverOptions::algo) plus the
// original-order solve wrappers.
#include "core/solver.hpp"

#include "ckpt/checkpoint.hpp"
#include "core/verify.hpp"
#include "obs/obs.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

namespace fdks::core {

namespace {

// The root needs no P^ of its own (it has no parent coupling). When
// task parallelism is requested, open the parallel region here so the
// factorization's OpenMP tasks have a team to run on.
void run_factorize(FactorTree& ft, index_t root, bool parallel_tree) {
  if (ft.options().levelwise) {
    ft.factorize_subtree_levelwise(root, /*compute_phat=*/false);
  } else if (parallel_tree) {
#ifdef _OPENMP
#pragma omp parallel
#pragma omp single
#endif
    ft.factorize_subtree(root, /*compute_phat=*/false);
  } else {
    ft.factorize_subtree(root, /*compute_phat=*/false);
  }
}

/// Checkpoint-aware factorization: resume from a valid checkpoint when
/// one matches (same points/kernel/config/options/lambda — the
/// fingerprint guards all of it), otherwise factorize and persist. The
/// sequential full-tree factorization uses scope "seq".
void run_factorize_ckpt(FactorTree& ft, index_t root, bool parallel_tree) {
  const SolverOptions& opts = ft.options();
  if (opts.checkpoint_dir.empty()) {
    run_factorize(ft, root, parallel_tree);
    return;
  }
  ckpt::ensure_dir(opts.checkpoint_dir);
  const std::string path =
      ckpt::join(opts.checkpoint_dir, "factors_seq.ckpt");
  const index_t roots[] = {root};
  std::string diag;
  if (ckpt::try_load_factor_tree(path, ft, roots, "seq", &diag)) return;
  run_factorize(ft, root, parallel_tree);
  ckpt::save_factor_tree(path, ft, roots, "seq");
}

}  // namespace

FastDirectSolver::FastDirectSolver(const HMatrix& h, SolverOptions opts)
    : ft_(h, opts) {
  obs::ScopedTimer t("factorize");
  run_factorize_ckpt(ft_, h.tree().root(), opts.parallel_tree);
  factor_seconds_ = t.stop();
  sealed_checksum_ = ft_.content_checksum();
}

void FastDirectSolver::refactorize(double lambda) {
  obs::ScopedTimer t("factorize");
  ft_.set_lambda(lambda);
  run_factorize_ckpt(ft_, ft_.hmatrix().tree().root(),
                     ft_.options().parallel_tree);
  factor_seconds_ = t.stop();
  sealed_checksum_ = ft_.content_checksum();
}

bool FastDirectSolver::verify_integrity() const {
  obs::add("verify.integrity_check");
  if (ft_.content_checksum() == sealed_checksum_) return true;
  obs::add("verify.integrity_fail");
  return false;
}

void FastDirectSolver::solve(std::span<const double> u, std::span<double> x,
                             const CancelToken* cancel) const {
  Matrix um(static_cast<index_t>(u.size()), 1);
  std::copy(u.begin(), u.end(), um.data());
  const Matrix xm = solve(um, cancel);
  std::copy(xm.data(), xm.data() + xm.size(), x.begin());
}

std::vector<double> FastDirectSolver::solve(std::span<const double> u,
                                            const CancelToken* cancel) const {
  std::vector<double> x(u.size());
  solve(u, x, cancel);
  return x;
}

Matrix FastDirectSolver::solve(const Matrix& u,
                               const CancelToken* cancel) const {
  // One batched telescoping solve over all B columns: permute the block
  // into tree order, run the in-place block solve_subtree (factors are
  // streamed once for the whole batch), permute back. Only the O(N B)
  // permutations stay per-column.
  const HMatrix& h = ft_.hmatrix();
  const index_t n = u.rows();
  if (n != h.n())
    throw std::invalid_argument("FastDirectSolver::solve: size mismatch");
  obs::ScopedTimer t("solve");
  Matrix x(n, u.cols());
  for (index_t j = 0; j < u.cols(); ++j) {
    std::vector<double> ut = h.to_tree_order(
        std::span<const double>(u.col(j), static_cast<size_t>(n)));
    std::copy(ut.begin(), ut.end(), x.col(j));
  }
  ft_.solve_subtree(h.tree().root(), x, cancel);
  for (index_t j = 0; j < x.cols(); ++j) {
    std::vector<double> xo = h.from_tree_order(
        std::span<const double>(x.col(j), static_cast<size_t>(n)));
    std::copy(xo.begin(), xo.end(), x.col(j));
  }
  return x;
}

SolveStatus FastDirectSolver::solve_checked(std::span<const double> u,
                                            std::span<double> x,
                                            const CancelToken* cancel) const {
  const auto n = static_cast<index_t>(u.size());
  Matrix um(n, 1);
  std::copy(u.begin(), u.end(), um.data());
  Matrix xm = solve(um, cancel);
  const VerifyPolicy& vp = ft_.options().verify;
  const SolveStatus st = guard_and_certify(
      ft_.hmatrix(), lambda(), um, xm, ft_.factor_status(), SolveCode::Ok,
      vp, vp.enabled(),
      [this, cancel](const Matrix& rhs) { return solve(rhs, cancel); },
      /*emit_obs=*/true, cancel);
  std::copy(xm.data(), xm.data() + n, x.begin());
  return st;
}

size_t FastDirectSolver::factor_bytes() const {
  return ft_.subtree_bytes(ft_.hmatrix().tree().root());
}

}  // namespace fdks::core
