#include "replay.hpp"

#include <algorithm>
#include <vector>

#include "la/chol.hpp"
#include "la/lu.hpp"

namespace fdksbench {

namespace {

using fdks::core::FactorTree;
using fdks::core::NodeFactor;
namespace la = fdks::la;

class Stopwatch {
 public:
  explicit Stopwatch(double& acc) : acc_(acc), t0_(now_s()) {}
  ~Stopwatch() { acc_ += now_s() - t0_; }
  Stopwatch(const Stopwatch&) = delete;
  Stopwatch& operator=(const Stopwatch&) = delete;

 private:
  double& acc_;
  double t0_;
};

void replay_vec(const FactorTree& ft, index_t id, std::span<double> u,
                PhaseTimes& t) {
  const auto& tree = ft.hmatrix().tree();
  const auto& nd = tree.node(id);
  const NodeFactor& f = ft.factor(id);
  if (nd.is_leaf()) {
    Stopwatch sw(t.leaf);
    if (f.leaf_uses_chol)
      la::chol_solve(f.leaf_chol, u);
    else
      la::lu_solve(f.leaf_lu, u);
    return;
  }
  const index_t nl = tree.node(nd.left).size();
  const index_t sl = f.v_lr.rows();
  const index_t sr = f.v_rl.rows();
  auto ul = u.subspan(0, static_cast<size_t>(nl));
  auto ur = u.subspan(static_cast<size_t>(nl));
  replay_vec(ft, nd.left, ul, t);
  replay_vec(ft, nd.right, ur, t);
  std::vector<double> z(static_cast<size_t>(sl + sr), 0.0);
  {
    Stopwatch sw(t.v);
    f.v_lr.apply(ur, std::span<double>(z.data(), static_cast<size_t>(sl)));
    f.v_rl.apply(ul,
                 std::span<double>(z.data() + sl, static_cast<size_t>(sr)));
  }
  {
    Stopwatch sw(t.z);
    la::lu_solve(f.z_lu, z);
  }
  Stopwatch sw(t.w);
  ft.apply_phat(nd.left,
                std::span<const double>(z.data(), static_cast<size_t>(sl)),
                ul, -1.0);
  ft.apply_phat(nd.right,
                std::span<const double>(z.data() + sl,
                                        static_cast<size_t>(sr)),
                ur, -1.0);
}

void replay_block(const FactorTree& ft, index_t id, la::MatrixView u,
                  PhaseTimes& t) {
  const auto& tree = ft.hmatrix().tree();
  const auto& nd = tree.node(id);
  const NodeFactor& f = ft.factor(id);
  if (nd.is_leaf()) {
    Stopwatch sw(t.leaf);
    if (f.leaf_uses_chol)
      la::chol_solve(f.leaf_chol, u);
    else
      la::lu_solve(f.leaf_lu, u);
    return;
  }
  const index_t nl = tree.node(nd.left).size();
  const index_t nr = tree.node(nd.right).size();
  const index_t sl = f.v_lr.rows();
  const index_t sr = f.v_rl.rows();
  const index_t b = u.cols();
  la::MatrixView utop = u.block(0, 0, nl, b);
  la::MatrixView ubot = u.block(nl, 0, nr, b);
  replay_block(ft, nd.left, utop, t);
  replay_block(ft, nd.right, ubot, t);
  Matrix z(sl + sr, b);
  la::MatrixView zv(z);
  {
    Stopwatch sw(t.v);
    f.v_lr.apply_block(la::ConstMatrixView(ubot), zv.block(0, 0, sl, b));
    f.v_rl.apply_block(la::ConstMatrixView(utop), zv.block(sl, 0, sr, b));
  }
  {
    Stopwatch sw(t.z);
    la::lu_solve(f.z_lu, zv);
  }
  Stopwatch sw(t.w);
  ft.apply_phat(nd.left, la::ConstMatrixView(zv.block(0, 0, sl, b)), utop,
                -1.0);
  ft.apply_phat(nd.right, la::ConstMatrixView(zv.block(sl, 0, sr, b)), ubot,
                -1.0);
}

}  // namespace

Matrix replay_solve(const FactorTree& ft, const Matrix& u, PhaseTimes& t) {
  const auto& h = ft.hmatrix();
  const index_t n = u.rows();
  const index_t root = h.tree().root();
  Matrix x(n, u.cols());
  for (index_t j = 0; j < u.cols(); ++j) {
    const std::vector<double> ut = h.to_tree_order(col(u, j));
    std::copy(ut.begin(), ut.end(), x.col(j));
  }
  if (u.cols() == 1) {
    replay_vec(ft, root, std::span<double>(x.col(0), static_cast<size_t>(n)),
               t);
  } else {
    replay_block(ft, root, la::MatrixView(x), t);
  }
  for (index_t j = 0; j < x.cols(); ++j) {
    const std::vector<double> xo = h.from_tree_order(col(x, j));
    std::copy(xo.begin(), xo.end(), x.col(j));
  }
  return x;
}

std::size_t stored_v_bytes(const FactorTree& ft) {
  std::size_t bytes = 0;
  const index_t nodes =
      static_cast<index_t>(ft.hmatrix().tree().nodes().size());
  for (index_t id = 0; id < nodes; ++id) {
    const NodeFactor& f = ft.factor(id);
    if (!f.factored) continue;
    bytes += f.v_lr.stored_bytes() + f.v_rl.stored_bytes();
  }
  return bytes;
}

double v_kernel_evals(const FactorTree& ft) {
  double evals = 0.0;
  const index_t nodes =
      static_cast<index_t>(ft.hmatrix().tree().nodes().size());
  for (index_t id = 0; id < nodes; ++id) {
    const NodeFactor& f = ft.factor(id);
    if (!f.factored) continue;
    evals += static_cast<double>(f.v_lr.rows()) *
                 static_cast<double>(f.v_lr.cols()) +
             static_cast<double>(f.v_rl.rows()) *
                 static_cast<double>(f.v_rl.cols());
  }
  return evals;
}

}  // namespace fdksbench
