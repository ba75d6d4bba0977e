#include "core/dist_hybrid.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "core/verify.hpp"
#include "kernel/gsks.hpp"
#include "obs/obs.hpp"

namespace fdks::core {

DistributedHybridSolver::DistributedHybridSolver(const HMatrix& h,
                                                 HybridOptions opts,
                                                 mpisim::Comm comm)
    : h_(&h), opts_(opts), ft_(h, opts.direct), comm_(std::move(comm)) {
  const int p = comm_.size();
  if (p <= 0 || (p & (p - 1)) != 0)
    throw std::invalid_argument(
        "DistributedHybridSolver: p must be a power of 2");
  int logp = 0;
  while ((1 << logp) < p) ++logp;

  const auto& t = h.tree();
  if (static_cast<int>(t.levels().size()) <= logp ||
      static_cast<int>(t.levels()[static_cast<size_t>(logp)].size()) != p)
    throw std::invalid_argument(
        "DistributedHybridSolver: tree has no complete level log2(p)");

  // My level-log2(p) node: the p nodes of that level ordered by range.
  std::vector<index_t> owners = t.levels()[static_cast<size_t>(logp)];
  std::sort(owners.begin(), owners.end(), [&](index_t a, index_t b) {
    return t.node(a).begin < t.node(b).begin;
  });
  local_root_ = owners[static_cast<size_t>(comm_.rank())];
  local_begin_ = t.node(local_root_).begin;
  local_end_ = t.node(local_root_).end;

  frontier_ = h.frontier();
  offsets_.reserve(frontier_.size() + 1);
  offsets_.push_back(0);
  for (size_t ai = 0; ai < frontier_.size(); ++ai) {
    const index_t a = frontier_[ai];
    const tree::Node& nd = t.node(a);
    if (nd.level < logp)
      throw std::invalid_argument(
          "DistributedHybridSolver: frontier node spans ranks; use level "
          "restriction L >= log2(p)");
    offsets_.push_back(offsets_.back() +
                       static_cast<index_t>(h.skeleton(a).skel.size()));
    if (nd.begin >= local_begin_ && nd.end <= local_end_)
      local_frontier_.push_back(ai);
  }
  reduced_size_ = offsets_.back();

  obs::ScopedTimer t_factor("dist.factorize");
  const auto t0 = std::chrono::steady_clock::now();
  // Checkpoint/restart (core/recovery.hpp): each rank persists the
  // factors of all its frontier subtrees in one file; a supervised
  // re-execution resumes from it instead of re-factorizing.
  const SolverOptions& dopts = ft_.options();
  std::vector<index_t> local_roots;
  local_roots.reserve(local_frontier_.size());
  for (size_t ai : local_frontier_) local_roots.push_back(frontier_[ai]);
  if (!dopts.checkpoint_dir.empty()) {
    ckpt::ensure_dir(dopts.checkpoint_dir);
    const std::string scope = "dist-hybrid p=" + std::to_string(p) +
                              " rank=" + std::to_string(comm_.rank());
    const std::string path =
        ckpt::join(dopts.checkpoint_dir,
                   "factors_hybrid_p" + std::to_string(p) + "_r" +
                       std::to_string(comm_.rank()) + ".ckpt");
    std::string diag;
    if (!ckpt::try_load_factor_tree(path, ft_, local_roots, scope, &diag)) {
      for (index_t a : local_roots)
        ft_.factorize_subtree(a, /*compute_phat=*/true);
      ckpt::save_factor_tree(path, ft_, local_roots, scope);
    }
  } else {
    for (index_t a : local_roots)
      ft_.factorize_subtree(a, /*compute_phat=*/true);
  }
  factor_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  factor_status_ = allreduce_factor_status(ft_.factor_status(), comm_);
}

void DistributedHybridSolver::matvec_v_local(la::ConstMatrixView q_local,
                                             la::MatrixView z) const {
  // Algorithm II.8: contributions K(a~, {x}_i) Q_i for EVERY frontier
  // skeleton against the local points (fused block sweeps, each kernel
  // tile evaluated once for all columns), own-diagonal-block subtracted
  // by the owner, then one AllReduce so all ranks hold the full V Q.
  const index_t nrhs = q_local.cols();
  const index_t s = reduced_size_;
  std::vector<double> partial(static_cast<size_t>(s * nrhs), 0.0);
  const la::MatrixView pv(partial.data(), s, nrhs, s);
  std::vector<index_t> local_pts(static_cast<size_t>(local_end_ -
                                                     local_begin_));
  std::iota(local_pts.begin(), local_pts.end(), local_begin_);
  for (size_t ai = 0; ai < frontier_.size(); ++ai) {
    const auto& skel = h_->skeleton(frontier_[ai]).skel;
    kernel::gsks_apply_block(
        h_->km(), skel, local_pts, q_local,
        pv.block(offsets_[ai], 0, static_cast<index_t>(skel.size()), nrhs),
        1.0);
  }
  for (size_t ai : local_frontier_) {
    const tree::Node& nd = h_->tree().node(frontier_[ai]);
    const auto& skel = h_->skeleton(frontier_[ai]).skel;
    std::vector<index_t> own(static_cast<size_t>(nd.size()));
    std::iota(own.begin(), own.end(), nd.begin);
    kernel::gsks_apply_block(
        h_->km(), skel, own,
        q_local.block(nd.begin - local_begin_, 0, nd.size(), nrhs),
        pv.block(offsets_[ai], 0, static_cast<index_t>(skel.size()), nrhs),
        -1.0);
  }
  comm_.allreduce_sum(partial);
  for (index_t j = 0; j < nrhs; ++j)
    std::copy_n(partial.data() + j * s, s, z.col(j));
}

void DistributedHybridSolver::matvec_w_local(la::ConstMatrixView z,
                                             la::MatrixView q_local,
                                             double alpha) const {
  const index_t nrhs = z.cols();
  for (size_t ai : local_frontier_) {
    const tree::Node& nd = h_->tree().node(frontier_[ai]);
    const auto sa =
        static_cast<index_t>(h_->skeleton(frontier_[ai]).skel.size());
    ft_.apply_phat(frontier_[ai], z.block(offsets_[ai], 0, sa, nrhs),
                   q_local.block(nd.begin - local_begin_, 0, nd.size(), nrhs),
                   alpha);
  }
}

Matrix DistributedHybridSolver::solve_impl(const Matrix& u) {
  obs::ScopedTimer t_solve("dist.solve");
  const index_t n = h_->n();
  const index_t nrhs = u.cols();
  const index_t nloc = local_end_ - local_begin_;

  Matrix w(nloc, nrhs);
  for (index_t j = 0; j < nrhs; ++j) {
    const std::vector<double> ut = h_->to_tree_order(
        std::span<const double>(u.col(j), static_cast<size_t>(n)));
    std::copy(ut.begin() + local_begin_, ut.begin() + local_end_, w.col(j));
  }
  la::MatrixView wv(w);

  // Step 1: W = D^-1 U on the locally owned frontier subtrees, in place.
  for (size_t ai : local_frontier_) {
    const tree::Node& nd = h_->tree().node(frontier_[ai]);
    ft_.solve_subtree(frontier_[ai],
                      wv.block(nd.begin - local_begin_, 0, nd.size(), nrhs));
  }

  block_gmres_iters_ = 0;
  block_gmres_code_ = SolveCode::Ok;
  if (reduced_size_ > 0) {
    // Step 2: RHS = V W (Algorithm II.8, batched), collective.
    Matrix rhs(reduced_size_, nrhs);
    matvec_v_local(la::ConstMatrixView(w), rhs);

    // Step 3: replicated per-column GMRES on (I + VW); the collective
    // matvec keeps ranks in lockstep column by column.
    const index_t s = reduced_size_;
    Matrix z(s, nrhs);
    std::vector<double> q_local(static_cast<size_t>(nloc), 0.0);
    const la::MatrixView qv(q_local.data(), nloc, 1, nloc);
    for (index_t j = 0; j < nrhs; ++j) {
      last_ = iter::gmres(
          s,
          [&](std::span<const double> zc, std::span<double> y) {
            std::fill(q_local.begin(), q_local.end(), 0.0);
            matvec_w_local(la::ConstMatrixView(zc.data(), s, 1, s), qv, 1.0);
            matvec_v_local(qv, la::MatrixView(y.data(), s, 1, s));
            for (size_t i = 0; i < zc.size(); ++i) y[i] += zc[i];
          },
          std::span<const double>(rhs.col(j), static_cast<size_t>(s)),
          opts_.gmres);
      block_gmres_iters_ += last_.iterations;
      block_gmres_code_ = std::max(block_gmres_code_, gmres_code(last_));
      std::copy(last_.x.begin(), last_.x.end(), z.col(j));
    }

    // Step 4: X = W - W_mat Z, batched P^ applications.
    matvec_w_local(la::ConstMatrixView(z), wv, -1.0);
  }

  const std::vector<double> gathered =
      comm_.allgatherv(std::span<const double>(w.data(), w.size()));
  Matrix x = gather_tree_order_block(*h_, comm_.size(), gathered, nrhs);
  for (index_t j = 0; j < nrhs; ++j) {
    const std::vector<double> xo = h_->from_tree_order(
        std::span<const double>(x.col(j), static_cast<size_t>(n)));
    std::copy(xo.begin(), xo.end(), x.col(j));
  }
  return x;
}

Matrix DistributedHybridSolver::solve(const Matrix& u) {
  const index_t n = h_->n();
  if (u.rows() != n)
    throw std::invalid_argument("DistributedHybridSolver: size mismatch");
  Matrix x = solve_impl(u);

  // Guard and certify (core/verify.hpp) with the worst column's reduced
  // GMRES code, read before the ladder's correction passes reset it.
  // Data and the reduced GMRES are replicated, so every rank derives the
  // identical status and takes the identical per-column ladder
  // decisions; each correction stays a collective Algorithm II.6 pass.
  const SolveCode reduced_code = block_gmres_code_;
  const auto reduced_iters = static_cast<int>(block_gmres_iters_);
  const VerifyPolicy& vp = opts_.direct.verify;
  const bool ladder = vp.enabled() && should_verify(vp, verify_seq_++);
  SolveStatus st = guard_and_certify(
      *h_, opts_.direct.lambda, u, x, factor_status_, reduced_code, vp,
      ladder, [this](const Matrix& rhs) { return solve_impl(rhs); },
      /*emit_obs=*/comm_.rank() == 0);
  st.gmres_iterations = reduced_iters;
  last_status_ = std::move(st);
  return x;
}

std::vector<double> DistributedHybridSolver::solve(
    std::span<const double> u) {
  Matrix um(static_cast<index_t>(u.size()), 1);
  std::copy(u.begin(), u.end(), um.data());
  const Matrix x = solve(um);
  return std::vector<double>(x.data(), x.data() + x.size());
}

}  // namespace fdks::core
