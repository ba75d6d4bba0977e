#include "core/hybrid.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "core/verify.hpp"
#include "kernel/gsks.hpp"
#include "la/gemm.hpp"
#include "obs/obs.hpp"

namespace fdks::core {

SolveCode gmres_code(const iter::GmresResult& g) {
  if (g.converged) return SolveCode::Ok;
  if (g.breakdown) return SolveCode::Breakdown;
  if (g.stagnated) return SolveCode::Stagnated;
  if (g.nonfinite) return SolveCode::NonFinite;
  return SolveCode::NotConverged;
}

namespace {

/// Checkpoint-aware frontier factorization (scope "hybrid"): resume all
/// subtree factors from one file when a valid checkpoint matches,
/// otherwise factorize and persist. See SolverOptions::checkpoint_dir.
void factorize_roots_ckpt(FactorTree& ft, std::span<const index_t> roots,
                          bool compute_phat) {
  const SolverOptions& opts = ft.options();
  if (opts.checkpoint_dir.empty()) {
    for (index_t a : roots) ft.factorize_subtree(a, compute_phat);
    return;
  }
  ckpt::ensure_dir(opts.checkpoint_dir);
  const std::string path =
      ckpt::join(opts.checkpoint_dir, "factors_hybrid.ckpt");
  std::string diag;
  if (ckpt::try_load_factor_tree(path, ft, roots, "hybrid", &diag)) return;
  for (index_t a : roots) ft.factorize_subtree(a, compute_phat);
  ckpt::save_factor_tree(path, ft, roots, "hybrid");
}

}  // namespace

HybridSolver::HybridSolver(const HMatrix& h, HybridOptions opts)
    : h_(&h), opts_(opts), ft_(h, opts.direct) {
  frontier_ = h.frontier();
  obs::ScopedTimer t_factor("factorize");

  if (frontier_.empty()) {
    // Degenerate single-leaf tree: the "frontier" is the root itself and
    // the solver is a plain dense factorization.
    const index_t roots[] = {h.tree().root()};
    factorize_roots_ckpt(ft_, roots, /*compute_phat=*/false);
  } else {
    offsets_.reserve(frontier_.size() + 1);
    offsets_.push_back(0);
    for (index_t a : frontier_)
      offsets_.push_back(offsets_.back() +
                         static_cast<index_t>(h.skeleton(a).skel.size()));
    reduced_size_ = offsets_.back();
    // Each frontier root needs its own P^ (it is a W block).
    factorize_roots_ckpt(ft_, frontier_, /*compute_phat=*/true);
  }
  factor_seconds_ = t_factor.stop();
  obs::add("hybrid.reduced_size", static_cast<double>(reduced_size_));

  all_ids_.resize(static_cast<size_t>(h.n()));
  std::iota(all_ids_.begin(), all_ids_.end(), index_t{0});
}

void HybridSolver::matvec_v(la::ConstMatrixView q, la::MatrixView z) const {
  if (z.rows() != reduced_size_ || q.rows() != h_->n() ||
      z.cols() != q.cols())
    throw std::invalid_argument("matvec_v: size mismatch");
  const index_t nrhs = q.cols();
  for (index_t j = 0; j < nrhs; ++j)
    std::fill(z.col(j), z.col(j) + z.rows(), 0.0);
  for (size_t ai = 0; ai < frontier_.size(); ++ai) {
    const index_t a = frontier_[ai];
    const tree::Node& nd = h_->tree().node(a);
    const auto& skel = h_->skeleton(a).skel;
    la::MatrixView za =
        z.block(offsets_[ai], 0, static_cast<index_t>(skel.size()), nrhs);
    // K(a~, X \ a) Q = K(a~, X) Q - K(a~, X_a) Q_a: two fused sweeps,
    // nothing materialized (matrix-free V, the paper's storage saving).
    kernel::gsks_apply_block(h_->km(), skel, all_ids_, q, za, 1.0);
    std::vector<index_t> own(static_cast<size_t>(nd.size()));
    std::iota(own.begin(), own.end(), nd.begin);
    kernel::gsks_apply_block(h_->km(), skel, own,
                             q.block(nd.begin, 0, nd.size(), nrhs), za, -1.0);
  }
}

void HybridSolver::matvec_w(la::ConstMatrixView z, la::MatrixView q,
                            double alpha) const {
  if (z.rows() != reduced_size_ || q.rows() != h_->n() ||
      z.cols() != q.cols())
    throw std::invalid_argument("matvec_w: size mismatch");
  const index_t nrhs = z.cols();
  for (size_t ai = 0; ai < frontier_.size(); ++ai) {
    const index_t a = frontier_[ai];
    const tree::Node& nd = h_->tree().node(a);
    const auto sa = static_cast<index_t>(h_->skeleton(a).skel.size());
    ft_.apply_phat(a, z.block(offsets_[ai], 0, sa, nrhs),
                   q.block(nd.begin, 0, nd.size(), nrhs), alpha);
  }
}

void HybridSolver::matvec_v(std::span<const double> q,
                            std::span<double> z) const {
  const auto nq = static_cast<index_t>(q.size());
  const auto nz = static_cast<index_t>(z.size());
  matvec_v(la::ConstMatrixView(q.data(), nq, 1, nq),
           la::MatrixView(z.data(), nz, 1, nz));
}

void HybridSolver::matvec_w(std::span<const double> z,
                            std::span<double> q) const {
  const auto nz = static_cast<index_t>(z.size());
  const auto nq = static_cast<index_t>(q.size());
  std::fill(q.begin(), q.end(), 0.0);
  matvec_w(la::ConstMatrixView(z.data(), nz, 1, nz),
           la::MatrixView(q.data(), nq, 1, nq), 1.0);
}

void HybridSolver::reduced_apply(std::span<const double> z,
                                 std::span<double> y) const {
  std::vector<double> q(static_cast<size_t>(h_->n()), 0.0);
  matvec_w(z, q);
  matvec_v(q, y);
  for (size_t i = 0; i < z.size(); ++i) y[i] += z[i];
}

Matrix HybridSolver::solve(const Matrix& u,
                           const CancelToken* cancel) const {
  const index_t n = h_->n();
  if (u.rows() != n)
    throw std::invalid_argument("HybridSolver::solve: size mismatch");
  obs::ScopedTimer t_solve("solve");
  const index_t nrhs = u.cols();

  Matrix w(n, nrhs);
  for (index_t j = 0; j < nrhs; ++j) {
    std::vector<double> ut = h_->to_tree_order(
        std::span<const double>(u.col(j), static_cast<size_t>(n)));
    std::copy(ut.begin(), ut.end(), w.col(j));
  }
  la::MatrixView wv(w);

  if (frontier_.empty()) {  // Single-leaf degenerate case.
    ft_.solve_subtree(h_->tree().root(), w, cancel);
  } else {
    // Step 1: W = D^-1 U, one in-place block solve per frontier subtree.
    for (index_t a : frontier_) {
      if (cancel) cancel->check("HybridSolver::solve");
      const tree::Node& nd = h_->tree().node(a);
      ft_.solve_subtree(a, wv.block(nd.begin, 0, nd.size(), nrhs), cancel);
    }

    if (reduced_size_ > 0) {
      // Step 2: RHS = V W, fused block sweeps (each kernel tile is
      // evaluated once for all B columns).
      Matrix rhs(reduced_size_, nrhs);
      matvec_v(la::ConstMatrixView(w), rhs);

      // Step 3: (I + VW) z = rhs, one GMRES per column (Krylov spaces
      // are per-RHS; everything around them is batched).
      iter::GmresOptions gopts = opts_.gmres;
      if (cancel) gopts.cancel = cancel;
      Matrix z(reduced_size_, nrhs);
      for (index_t j = 0; j < nrhs; ++j) {
        last_ = iter::gmres(
            reduced_size_,
            [this](std::span<const double> zc, std::span<double> y) {
              reduced_apply(zc, y);
            },
            std::span<const double>(rhs.col(j),
                                    static_cast<size_t>(reduced_size_)),
            gopts);
        std::copy(last_.x.begin(), last_.x.end(), z.col(j));
      }

      // Step 4: X = W - W_mat Z, batched P^ applications with alpha=-1
      // accumulating straight into w.
      matvec_w(la::ConstMatrixView(z), wv, -1.0);
    }
  }

  Matrix x(n, nrhs);
  for (index_t j = 0; j < nrhs; ++j) {
    std::vector<double> xo = h_->from_tree_order(
        std::span<const double>(w.col(j), static_cast<size_t>(n)));
    std::copy(xo.begin(), xo.end(), x.col(j));
  }
  return x;
}

std::vector<double> HybridSolver::solve(std::span<const double> u,
                                        const CancelToken* cancel) const {
  Matrix um(static_cast<index_t>(u.size()), 1);
  std::copy(u.begin(), u.end(), um.data());
  const Matrix x = solve(um, cancel);
  return std::vector<double>(x.data(), x.data() + x.size());
}

SolveStatus HybridSolver::solve_checked(std::span<const double> u,
                                        std::span<double> x,
                                        const CancelToken* cancel) const {
  const auto n = static_cast<index_t>(u.size());
  Matrix um(n, 1);
  std::copy(u.begin(), u.end(), um.data());
  Matrix xm = solve(um, cancel);
  // Read the reduced GMRES before the ladder's correction solves
  // overwrite last_.
  const bool reduced = reduced_size_ > 0;
  const SolveCode reduced_code = reduced ? gmres_code(last_) : SolveCode::Ok;
  const int reduced_iters = reduced ? last_.iterations : 0;
  const VerifyPolicy& vp = opts_.direct.verify;
  SolveStatus st = guard_and_certify(
      *h_, opts_.direct.lambda, um, xm, ft_.factor_status(), reduced_code,
      vp, vp.enabled(),
      [this, cancel](const Matrix& rhs) { return solve(rhs, cancel); },
      /*emit_obs=*/true, cancel);
  st.gmres_iterations = reduced_iters;
  std::copy(xm.data(), xm.data() + n, x.begin());
  return st;
}

size_t HybridSolver::factor_bytes() const {
  if (frontier_.empty()) return ft_.subtree_bytes(h_->tree().root());
  size_t b = 0;
  for (index_t a : frontier_) b += ft_.subtree_bytes(a);
  return b;
}

}  // namespace fdks::core
