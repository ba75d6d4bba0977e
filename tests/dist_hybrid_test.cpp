// Tests for the distributed hybrid solver (Algorithms II.6-II.8 over the
// message-passing runtime): must match the sequential HybridSolver.
#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <random>
#include <set>

#include "core/dist_hybrid.hpp"
#include "la/blas1.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace fdks::core {
namespace {

using askit::AskitConfig;
using kernel::Kernel;
using la::Matrix;
using la::index_t;

Matrix clustered_points(index_t d, index_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> g(0.0, 0.15);
  std::uniform_int_distribution<int> cl(0, 3);
  Matrix centers = Matrix::random_uniform(d, 4, rng, -2.0, 2.0);
  Matrix p(d, n);
  for (index_t j = 0; j < n; ++j) {
    const int c = cl(rng);
    for (index_t k = 0; k < d; ++k) p(k, j) = centers(k, c) + g(rng);
  }
  return p;
}

AskitConfig restricted(index_t level) {
  AskitConfig cfg;
  cfg.leaf_size = 32;
  cfg.max_rank = 40;
  cfg.tol = 1e-8;
  cfg.num_neighbors = 0;
  cfg.seed = 9;
  cfg.level_restriction = level;
  return cfg;
}

std::vector<double> random_vec(index_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<double> v(static_cast<size_t>(n));
  for (auto& x : v) x = g(rng);
  return v;
}

HybridOptions hopts(double lambda) {
  HybridOptions o;
  o.direct.lambda = lambda;
  o.gmres.rtol = 1e-12;
  o.gmres.max_iters = 300;
  return o;
}

class DistHybridRanks : public ::testing::TestWithParam<int> {};

TEST_P(DistHybridRanks, MatchesSequentialHybrid) {
  const int p = GetParam();
  const index_t n = 512;
  Matrix pts = clustered_points(3, n, 1);
  askit::HMatrix h(pts, Kernel::gaussian(1.0), restricted(3));
  auto u = random_vec(n, 2);

  HybridSolver seq(h, hopts(0.8));
  auto x_seq = seq.solve(u);

  std::vector<double> x_dist;
  std::mutex mu;
  mpisim::run(p, [&](mpisim::Comm& comm) {
    DistributedHybridSolver ds(h, hopts(0.8), comm);
    auto x = ds.solve(u);
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(mu);
      x_dist = std::move(x);
    }
  });
  ASSERT_EQ(x_dist.size(), x_seq.size());
  EXPECT_LT(la::nrm2(la::vsub(x_dist, x_seq)) / la::nrm2(x_seq), 1e-9)
      << "p=" << p;
}

INSTANTIATE_TEST_SUITE_P(Ranks, DistHybridRanks, ::testing::Values(1, 2, 4));

// Block (multi-RHS) distributed hybrid solve against the sequential
// hybrid block solve: the reduced-system assembly batches into one
// allreduce of an [S x B] panel, but each column's GMRES is unchanged.
TEST(DistHybrid, BlockSolveMatchesSequentialBlock) {
  const index_t n = 512;
  Matrix pts = clustered_points(3, n, 21);
  askit::HMatrix h(pts, Kernel::gaussian(1.0), restricted(3));
  HybridSolver seq(h, hopts(0.8));
  std::mt19937_64 rng(22);
  const Matrix u = Matrix::random_gaussian(n, 4, rng);
  const Matrix x_seq = seq.solve(u);

  double worst = 1.0;
  mpisim::run(2, [&](mpisim::Comm& comm) {
    DistributedHybridSolver ds(h, hopts(0.8), comm);
    Matrix x = ds.solve(u);
    if (comm.rank() == 0) worst = la::max_abs_diff(x, x_seq);
  });
  EXPECT_LT(worst, 1e-9);
}

// A batch's status is its worst column's: a first column whose reduced
// GMRES is capped short of convergence must not be hidden behind a last
// column that converges (a zero right-hand side converges at once), and
// the batch keeps the code a single-column solve of that column reports.
TEST(DistHybrid, BlockStatusReportsWorstColumn) {
  const index_t n = 512;
  Matrix pts = clustered_points(3, n, 23);
  askit::HMatrix h(pts, Kernel::gaussian(1.0), restricted(3));
  HybridOptions o = hopts(0.8);
  o.gmres.max_iters = 1;
  const std::vector<double> u0 = random_vec(n, 24);
  Matrix u(n, 2);  // Column 1 stays zero.
  std::copy(u0.begin(), u0.end(), u.col(0));

  SolveStatus solo, batch;
  bool last_converged = false;
  mpisim::run(2, [&](mpisim::Comm& comm) {
    DistributedHybridSolver ds(h, o, comm);
    (void)ds.solve(u0);
    const SolveStatus s0 = ds.last_status();
    (void)ds.solve(u);
    if (comm.rank() == 0) {
      solo = s0;
      batch = ds.last_status();
      last_converged = ds.last_gmres().converged;
    }
  });
  ASSERT_FALSE(solo.ok()) << solo.message();
  EXPECT_TRUE(last_converged);
  EXPECT_FALSE(batch.ok()) << batch.message();
  EXPECT_EQ(batch.code, solo.code) << batch.message();
}

TEST(DistHybrid, CertifiedAfterReducedGmresFailureMatchesSequential) {
  // A zero Krylov budget fails the reduced GMRES on purpose: the pass
  // degenerates to the block-diagonal D^-1 u. With a narrow kernel and a
  // large lambda, D^-1 is a good enough approximate inverse that the
  // ladder's refinement rung alone certifies the answer (no GMRES rung).
  // Sequential and distributed must then report the same outcome, and a
  // certified answer never carries a failure code.
  const index_t n = 512;
  Matrix pts = clustered_points(3, n, 23);
  askit::HMatrix h(pts, Kernel::gaussian(0.05), restricted(3));
  HybridOptions o = hopts(30.0);
  o.gmres.max_iters = 0;
  o.direct.verify.mode = VerifyMode::Always;
  const double target = o.direct.verify.target_residual;
  const std::vector<double> u = random_vec(n, 24);

  HybridSolver seq(h, o);
  std::vector<double> xs(static_cast<size_t>(n));
  const SolveStatus s = seq.solve_checked(u, xs);

  SolveStatus d;
  mpisim::run(2, [&](mpisim::Comm& comm) {
    DistributedHybridSolver ds(h, o, comm);
    (void)ds.solve(u);
    if (comm.rank() == 0) d = ds.last_status();
  });
  EXPECT_EQ(d.escalations, 0) << d.message();  // Rung 1 alone certified.
  EXPECT_EQ(d.code, s.code) << d.message() << " vs " << s.message();
  EXPECT_EQ(d.ok(), s.ok()) << d.message() << " vs " << s.message();
  EXPECT_TRUE(d.ok()) << d.message();
  EXPECT_LE(s.residual, target) << s.message();
  EXPECT_LE(d.residual, target) << d.message();
}

TEST(DistHybrid, ResidualAgainstCompressedOperator) {
  const index_t n = 512;
  Matrix pts = clustered_points(3, n, 3);
  askit::HMatrix h(pts, Kernel::gaussian(0.9), restricted(3));
  auto u = random_vec(n, 4);
  double residual = 1.0;
  int iters = 0;
  mpisim::run(4, [&](mpisim::Comm& comm) {
    DistributedHybridSolver ds(h, hopts(0.5), comm);
    auto x = ds.solve(u);
    if (comm.rank() == 0) {
      residual = h.relative_residual(x, u, 0.5);
      iters = ds.last_gmres().iterations;
    }
  });
  EXPECT_LT(residual, 1e-9);
  EXPECT_GT(iters, 0);
}

TEST(DistHybrid, RejectsFrontierAboveRankLevel) {
  // L = 1 frontier with p = 4 ranks: frontier nodes span ranks. All
  // four ranks throw std::invalid_argument, so run() aggregates them
  // into a MultiRankError naming every rank.
  const index_t n = 256;
  Matrix pts = clustered_points(2, n, 5);
  askit::HMatrix h(pts, Kernel::gaussian(1.0), restricted(1));
  try {
    mpisim::run(4, [&](mpisim::Comm& comm) {
      DistributedHybridSolver ds(h, hopts(1.0), comm);
    });
    FAIL() << "expected MultiRankError";
  } catch (const mpisim::MultiRankError& e) {
    EXPECT_EQ(e.errors().size(), 4u);
  }
}

TEST(DistHybrid, AllRanksShareIdenticalReducedTrace) {
  const index_t n = 384;
  Matrix pts = clustered_points(3, n, 6);
  askit::HMatrix h(pts, Kernel::gaussian(1.0), restricted(2));
  auto u = random_vec(n, 7);
  std::vector<int> iters(4, -1);
  mpisim::run(4, [&](mpisim::Comm& comm) {
    DistributedHybridSolver ds(h, hopts(1.0), comm);
    (void)ds.solve(u);
    iters[static_cast<size_t>(comm.rank())] = ds.last_gmres().iterations;
  });
  for (int r = 1; r < 4; ++r) EXPECT_EQ(iters[0], iters[static_cast<size_t>(r)]);
}

// A traced 4-rank run must produce one timeline per rank, a matching
// send for every received flow, and a critical path bounded by the wall
// clock from below by the busiest rank — the invariants fdks_tool
// --trace prints and ISSUE 4's acceptance criteria assert.
class DistHybridTrace : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::reset();
    obs::trace::set_enabled(true);
    obs::trace::reset();
  }
  void TearDown() override {
    obs::trace::set_enabled(false);
    obs::trace::reset();
    obs::reset();
    obs::set_enabled(false);
  }
};

TEST_F(DistHybridTrace, FourRankRunSatisfiesTraceInvariants) {
  const index_t n = 384;
  Matrix pts = clustered_points(3, n, 6);
  askit::HMatrix h(pts, Kernel::gaussian(1.0), restricted(2));
  auto u = random_vec(n, 7);
  mpisim::run(4, [&](mpisim::Comm& comm) {
    DistributedHybridSolver ds(h, hopts(1.0), comm);
    (void)ds.solve(u);
  });

  const obs::trace::TraceData d = obs::trace::collect();
  std::set<int> ranks;
  std::set<std::uint64_t> sent_flows;
  std::size_t recvs = 0, unmatched = 0;
  for (const auto& t : d.threads) {
    if (t.rank >= 0) ranks.insert(t.rank);
    for (const auto& e : t.events)
      if (e.type == obs::trace::Event::kFlowSend) sent_flows.insert(e.id);
  }
  for (const auto& t : d.threads)
    for (const auto& e : t.events)
      if (e.type == obs::trace::Event::kFlowRecv) {
        ++recvs;
        if (sent_flows.count(e.id) == 0) ++unmatched;
      }
  EXPECT_EQ(ranks, (std::set<int>{0, 1, 2, 3}));
  EXPECT_GT(recvs, 0u);
  EXPECT_EQ(unmatched, 0u);  // Every flow arrow has both endpoints.

  const obs::trace::CriticalPath cp = obs::trace::critical_path(d);
  EXPECT_GT(cp.total_seconds, 0.0);
  EXPECT_LE(cp.total_seconds, cp.wall_seconds * (1.0 + 1e-9));
  EXPECT_GE(cp.total_seconds, cp.max_busy_seconds() - 1e-9);
  EXPECT_EQ(cp.rank_busy_seconds.size(), 4u);
  EXPECT_FALSE(cp.segments.empty());

  // The per-rank wait-time histogram fed by the same run.
  const obs::Snapshot s = obs::snapshot();
  ASSERT_EQ(s.histograms.count("mpisim.wait_seconds"), 1u);
  EXPECT_GT(s.histograms.at("mpisim.wait_seconds").count, 0u);
  EXPECT_GT(s.histograms.count("gmres.iter_seconds"), 0u);

  // Export names every rank row.
  const std::string j = obs::trace::chrome_trace_json(d);
  for (int r = 0; r < 4; ++r)
    EXPECT_NE(j.find("\"name\":\"rank " + std::to_string(r) + "\""),
              std::string::npos);
}

}  // namespace
}  // namespace fdks::core
