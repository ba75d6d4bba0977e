// Stress and failure-injection tests across modules: message storms on
// the runtime, degenerate geometries, adaptive frontiers, and API misuse
// that must fail loudly rather than corrupt state.
#include <gtest/gtest.h>

#include <atomic>
#include <random>

#include "core/factor_tree.hpp"
#include "core/hybrid.hpp"
#include "core/solver.hpp"
#include "kernel/summation.hpp"
#include "la/blas1.hpp"
#include "mpisim/runtime.hpp"

namespace fdks {
namespace {

using askit::AskitConfig;
using kernel::Kernel;
using la::Matrix;
using la::index_t;

// ------------------------------------------------------ mpisim stress --

TEST(MpisimStress, ManyInterleavedMessages) {
  // Every rank sends 200 tagged messages to every other rank in a
  // shuffled order; all must be matched by (src, tag).
  const int p = 4;
  const int msgs = 200;
  mpisim::run(p, [&](mpisim::Comm& c) {
    std::mt19937_64 rng(static_cast<uint64_t>(c.rank()) + 1);
    std::vector<std::pair<int, int>> sends;  // (dest, tag).
    for (int dest = 0; dest < p; ++dest) {
      if (dest == c.rank()) continue;
      for (int t = 0; t < msgs; ++t) sends.emplace_back(dest, t);
    }
    std::shuffle(sends.begin(), sends.end(), rng);
    for (auto [dest, tag] : sends) {
      c.send(dest, tag,
             std::vector<double>{double(c.rank() * 1000 + tag)});
    }
    // Receive in a different shuffled order.
    std::vector<std::pair<int, int>> recvs;
    for (int src = 0; src < p; ++src) {
      if (src == c.rank()) continue;
      for (int t = 0; t < msgs; ++t) recvs.emplace_back(src, t);
    }
    std::shuffle(recvs.begin(), recvs.end(), rng);
    for (auto [src, tag] : recvs) {
      auto m = c.recv(src, tag);
      ASSERT_EQ(m.size(), 1u);
      EXPECT_EQ(m[0], double(src * 1000 + tag));
    }
  });
}

TEST(MpisimStress, CollectivesUnderRepetition) {
  mpisim::run(8, [](mpisim::Comm& c) {
    for (int round = 0; round < 50; ++round) {
      std::vector<double> v{double(c.rank() + round)};
      c.allreduce_sum(v);
      const double expect = 8.0 * round + 28.0;  // sum 0..7 = 28.
      ASSERT_EQ(v[0], expect);
    }
  });
}

// --------------------------------------------------- degenerate inputs --

TEST(Degenerate, AllPointsIdenticalStillFactorizes) {
  // K is the all-ones matrix (rank 1); lambda I + K is well-conditioned
  // for lambda >= 1.
  Matrix p(4, 128, 2.5);
  AskitConfig cfg;
  cfg.leaf_size = 16;
  cfg.max_rank = 16;
  cfg.tol = 1e-8;
  cfg.num_neighbors = 0;
  askit::HMatrix h(p, Kernel::gaussian(1.0), cfg);
  core::SolverOptions so;
  so.lambda = 1.0;
  core::FastDirectSolver solver(h, so);
  std::vector<double> u(128, 1.0);
  auto x = solver.solve(u);
  // Exact solution of (I + ones*ones^T/...) actually: K = all ones.
  // (lambda I + K) x = u with u = 1 has x_i = 1 / (lambda + N).
  for (double xi : x) EXPECT_NEAR(xi, 1.0 / (1.0 + 128.0), 1e-10);
}

TEST(Degenerate, CollinearPointsLowIntrinsicDim) {
  // Points on a line in 16-D: ranks should collapse to something tiny.
  const index_t n = 256;
  Matrix p(16, n);
  std::mt19937_64 rng(3);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<double> dir(16);
  for (auto& v : dir) v = g(rng);
  for (index_t j = 0; j < n; ++j) {
    const double t = g(rng);
    for (index_t i = 0; i < 16; ++i)
      p(i, j) = dir[static_cast<size_t>(i)] * t;
  }
  AskitConfig cfg;
  cfg.leaf_size = 32;
  cfg.max_rank = 64;
  cfg.tol = 1e-6;
  cfg.num_neighbors = 0;
  askit::HMatrix h(p, Kernel::gaussian(2.0), cfg);
  EXPECT_LT(h.stats().max_rank_used, 40);
  core::SolverOptions so;
  so.lambda = 0.5;
  core::FastDirectSolver solver(h, so);
  std::vector<double> u(static_cast<size_t>(n), 1.0);
  auto x = solver.solve(u);
  EXPECT_LT(h.relative_residual(x, u, 0.5), 1e-8);
}

TEST(Degenerate, AdaptiveFrontierOnIncompressibleKernel) {
  // A tiny bandwidth with moderate spread: off-diagonal blocks are
  // essentially zero *relative to themselves*, making relative-rank
  // compression behave adversarially; adaptive_frontier must keep the
  // solve correct regardless of where skeletonization stops.
  const index_t n = 256;
  std::mt19937_64 rng(4);
  Matrix p = Matrix::random_gaussian(6, n, rng);
  AskitConfig cfg;
  cfg.leaf_size = 32;
  cfg.max_rank = 64;
  cfg.tol = 1e-3;
  cfg.num_neighbors = 0;
  cfg.adaptive_frontier = true;
  askit::HMatrix h(p, Kernel::gaussian(0.15), cfg);
  core::SolverOptions so;
  so.lambda = 1.0;
  core::FastDirectSolver solver(h, so);
  std::vector<double> u(static_cast<size_t>(n), 1.0);
  auto x = solver.solve(u);
  EXPECT_LT(h.relative_residual(x, u, 1.0), 1e-8);
}

TEST(Degenerate, OnePointPerLeaf) {
  const index_t n = 64;
  std::mt19937_64 rng(5);
  Matrix p = Matrix::random_gaussian(3, n, rng);
  AskitConfig cfg;
  cfg.leaf_size = 1;
  cfg.max_rank = 8;
  cfg.tol = 1e-6;
  cfg.num_neighbors = 0;
  askit::HMatrix h(p, Kernel::gaussian(1.5), cfg);
  core::SolverOptions so;
  so.lambda = 2.0;
  core::FastDirectSolver solver(h, so);
  std::vector<double> u(static_cast<size_t>(n), 1.0);
  auto x = solver.solve(u);
  EXPECT_LT(h.relative_residual(x, u, 2.0), 1e-8);
}

// ------------------------------------------------------- API misuse ----

TEST(ApiMisuse, SolveBeforeFactorizeThrows) {
  const index_t n = 64;
  std::mt19937_64 rng(6);
  Matrix p = Matrix::random_gaussian(2, n, rng);
  AskitConfig cfg;
  cfg.leaf_size = 16;
  cfg.max_rank = 16;
  cfg.tol = 1e-5;
  cfg.num_neighbors = 0;
  askit::HMatrix h(p, Kernel::gaussian(1.0), cfg);
  core::SolverOptions so;
  core::FactorTree ft(h, so);
  Matrix u(n, 1, 1.0);
  EXPECT_THROW(ft.solve_subtree(h.tree().root(), u), std::logic_error);
}

TEST(ApiMisuse, WrongSizeInputsThrow) {
  const index_t n = 128;
  std::mt19937_64 rng(7);
  Matrix p = Matrix::random_gaussian(2, n, rng);
  AskitConfig cfg;
  cfg.leaf_size = 32;
  cfg.max_rank = 32;
  cfg.tol = 1e-5;
  cfg.num_neighbors = 0;
  askit::HMatrix h(p, Kernel::gaussian(1.0), cfg);
  core::SolverOptions so;
  core::FastDirectSolver solver(h, so);
  std::vector<double> small(static_cast<size_t>(n - 1), 1.0);
  std::vector<double> out(static_cast<size_t>(n));
  EXPECT_THROW(h.apply(small, out), std::invalid_argument);
  core::HybridOptions ho;
  core::HybridSolver hy(h, ho);
  EXPECT_THROW(hy.solve(small), std::invalid_argument);
}

// ------------------------------------------------ summation edge cases --

TEST(SummationEdge, AlphaBetaCombinations) {
  std::mt19937_64 rng(8);
  Matrix pts = Matrix::random_gaussian(4, 30, rng);
  kernel::KernelMatrix km(pts, Kernel::gaussian(1.0));
  std::vector<index_t> rows = {0, 5, 7};
  std::vector<index_t> cols = {10, 12, 14, 20};
  kernel::KernelBlockOp op(&km, rows, cols, kernel::Scheme::Gsks);
  std::vector<double> u = {1.0, -1.0, 2.0, 0.5};
  std::vector<double> y = {1.0, 1.0, 1.0};
  // y = 0*y + 0*B*u must produce exactly zero.
  op.apply(u, y, 0.0, 0.0);
  for (double v : y) EXPECT_EQ(v, 0.0);
  // beta = 1, alpha = 0: no-op.
  y = {3.0, 4.0, 5.0};
  op.apply(u, y, 0.0, 1.0);
  EXPECT_EQ(y[0], 3.0);
  EXPECT_EQ(y[2], 5.0);
}

TEST(SummationEdge, SingleRowSingleCol) {
  std::mt19937_64 rng(9);
  Matrix pts = Matrix::random_gaussian(3, 5, rng);
  kernel::KernelMatrix km(pts, Kernel::gaussian(0.9));
  std::vector<index_t> rows = {2};
  std::vector<index_t> cols = {4};
  std::vector<double> u = {2.0};
  std::vector<double> y = {0.0};
  kernel::gsks_apply(km, rows, cols, u, y);
  EXPECT_NEAR(y[0], 2.0 * km.entry(2, 4), 1e-14);
}

// ------------------------------------- hybrid under adaptive frontier --

TEST(HybridAdaptive, WorksWithAdaptiveNotLevelFrontier) {
  // Frontier produced by compression failure (adaptive), not by a fixed
  // level: the hybrid machinery must handle ragged frontiers.
  const index_t n = 384;
  std::mt19937_64 rng(10);
  Matrix p = Matrix::random_gaussian(8, n, rng);
  AskitConfig cfg;
  cfg.leaf_size = 32;
  cfg.max_rank = 24;  // Tight cap: some branches stop compressing.
  cfg.tol = 1e-4;
  cfg.num_neighbors = 0;
  cfg.adaptive_frontier = true;
  askit::HMatrix h(p, Kernel::gaussian(1.2), cfg);
  core::HybridOptions ho;
  ho.direct.lambda = 1.5;
  ho.gmres.rtol = 1e-11;
  ho.gmres.max_iters = 400;
  core::HybridSolver hy(h, ho);
  std::vector<double> u(static_cast<size_t>(n), 1.0);
  auto x = hy.solve(u);
  EXPECT_LT(h.relative_residual(x, u, 1.5), 1e-8);
}

}  // namespace
}  // namespace fdks
