// Tests for answer certification and self-healing factor integrity
// (PR 8): the a posteriori residual check, the refinement/escalation
// ladder (including the batched refine-only-failing-columns path), the
// FactorCache's lazy checksum verification with refactorize-on-mismatch
// healing, and the serving engine's certified Ok path. Runs under the
// `fault` ctest label so the TSan job covers the engine/cache threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <future>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "core/dist_solver.hpp"
#include "core/solver.hpp"
#include "core/verify.hpp"
#include "mpisim/runtime.hpp"
#include "obs/obs.hpp"
#include "serve/engine.hpp"
#include "serve/factor_cache.hpp"

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

AskitConfig tight_config() {
  AskitConfig cfg;
  cfg.leaf_size = 32;
  cfg.max_rank = 48;
  cfg.tol = 1e-8;
  cfg.num_neighbors = 8;
  cfg.seed = 7;
  return cfg;
}

/// Deliberately coarse skeletons: the factor still inverts the
/// target-interpolation operator exactly, but it is O(tol) away from
/// the source-skeleton (Treecode) operator — exactly the gap the
/// refinement ladder is built to close.
AskitConfig coarse_config() {
  AskitConfig cfg;
  cfg.leaf_size = 32;
  cfg.max_rank = 32;
  cfg.tol = 1e-4;
  cfg.num_neighbors = 8;
  cfg.seed = 7;
  return cfg;
}

std::vector<double> random_vec(index_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<double> v(static_cast<size_t>(n));
  for (auto& x : v) x = g(rng);
  return v;
}

Matrix one_column(const std::vector<double>& v) {
  Matrix m(static_cast<index_t>(v.size()), 1);
  std::copy(v.begin(), v.end(), m.data());
  return m;
}

double counter(const obs::Snapshot& s, const std::string& k) {
  auto it = s.counters.find(k);
  return it == s.counters.end() ? 0.0 : it->second;
}

/// Counters are off by default process-wide; tests that assert
/// verify.*/refine.* deltas turn them on for their own scope.
struct ObsOn {
  ObsOn() { obs::set_enabled(true); }
  ~ObsOn() { obs::set_enabled(false); }
};

// ---- Sampling policy -------------------------------------------------

TEST(VerifyPolicyTest, SamplingPicksEveryKth) {
  VerifyPolicy p;
  p.mode = VerifyMode::Sample;
  p.sample_every = 4;
  EXPECT_TRUE(should_verify(p, 0));  // First solve always in-sample.
  EXPECT_FALSE(should_verify(p, 1));
  EXPECT_FALSE(should_verify(p, 3));
  EXPECT_TRUE(should_verify(p, 4));
  EXPECT_TRUE(should_verify(p, 8));
  p.mode = VerifyMode::Off;
  EXPECT_FALSE(should_verify(p, 0));
  p.mode = VerifyMode::Always;
  EXPECT_TRUE(should_verify(p, 3));
}

// ---- Certification of a healthy factor -------------------------------

TEST(CertifyTest, HealthyFactorCertifiesWithoutRefinement) {
  const index_t n = 384;
  Matrix pts = clustered_points(3, n, 11);
  askit::HMatrix h(pts, Kernel::gaussian(1.0), tight_config());
  SolverOptions so;
  so.lambda = 1.0;
  so.verify.mode = VerifyMode::Always;
  so.verify.target_residual = 1e-10;
  FastDirectSolver s(h, so);

  const std::vector<double> u = random_vec(n, 3);
  const Matrix b = one_column(u);
  Matrix x = s.solve(b);
  const VerifyOutcome vo = certify_and_refine_block(s, b, x, so.verify).front();

  EXPECT_TRUE(vo.measured);
  EXPECT_TRUE(vo.certified);
  EXPECT_GE(vo.residual, 0.0);
  EXPECT_LE(vo.residual, 1e-10);
  // The factor inverts the factorized-form operator to roundoff, so no
  // ladder rungs should have been needed.
  EXPECT_EQ(vo.refine_steps, 0);
  EXPECT_EQ(vo.escalations, 0);
}

// ---- Refinement ladder on a deliberately coarse factor ---------------

TEST(CertifyTest, CoarseFactorRefinesToTarget) {
  const index_t n = 384;
  Matrix pts = clustered_points(3, n, 11);
  askit::HMatrix h(pts, Kernel::gaussian(1.0), coarse_config());
  SolverOptions so;
  so.lambda = 1.0;
  so.verify.mode = VerifyMode::Always;
  so.verify.op = VerifyPolicy::Operator::Treecode;
  so.verify.target_residual = 1e-8;
  so.verify.max_refine_steps = 10;
  so.verify.min_step_improvement = 0.9;
  FastDirectSolver s(h, so);

  // The raw factor solve must miss the target against the Treecode
  // operator (otherwise this test exercises nothing).
  const std::vector<double> u = random_vec(n, 5);
  std::vector<double> x0 = s.solve(u);
  std::vector<double> r(static_cast<size_t>(n), 0.0);
  h.apply_source(x0, r, so.lambda);
  double rnorm = 0.0, bnorm = 0.0;
  for (size_t i = 0; i < r.size(); ++i) {
    const double d = u[i] - r[i];
    rnorm += d * d;
    bnorm += u[i] * u[i];
  }
  ASSERT_GT(std::sqrt(rnorm / bnorm), 1e-8);

  ObsOn obs_on;
  const obs::Snapshot before = obs::snapshot();
  const Matrix b = one_column(u);
  Matrix x = s.solve(b);
  const VerifyOutcome vo = certify_and_refine_block(s, b, x, so.verify).front();
  const obs::Snapshot after = obs::snapshot();

  EXPECT_TRUE(vo.measured);
  EXPECT_TRUE(vo.certified);
  EXPECT_LE(vo.residual, 1e-8);
  EXPECT_GE(vo.refine_steps, 1);
  EXPECT_EQ(vo.escalations, 0);

  EXPECT_GE(counter(after, "verify.checks") - counter(before, "verify.checks"),
            1.0);
  EXPECT_GE(counter(after, "verify.fail") - counter(before, "verify.fail"),
            1.0);
  EXPECT_GE(counter(after, "refine.steps") - counter(before, "refine.steps"),
            static_cast<double>(vo.refine_steps));
}

TEST(CertifyTest, GmresRungCertifiesWhenRefinementDisabled) {
  const index_t n = 384;
  Matrix pts = clustered_points(3, n, 11);
  askit::HMatrix h(pts, Kernel::gaussian(1.0), coarse_config());
  SolverOptions so;
  so.lambda = 1.0;
  so.verify.mode = VerifyMode::Always;
  so.verify.op = VerifyPolicy::Operator::Treecode;
  so.verify.target_residual = 1e-8;
  so.verify.max_refine_steps = 0;  // Straight to rung 2.
  so.verify.escalate_max_iters = 300;
  FastDirectSolver s(h, so);

  const std::vector<double> u = random_vec(n, 9);
  ObsOn obs_on;
  const obs::Snapshot before = obs::snapshot();
  const Matrix b = one_column(u);
  Matrix x = s.solve(b);
  const VerifyOutcome vo = certify_and_refine_block(s, b, x, so.verify).front();
  const obs::Snapshot after = obs::snapshot();

  EXPECT_TRUE(vo.certified);
  EXPECT_LE(vo.residual, 1e-8);
  EXPECT_EQ(vo.refine_steps, 0);
  EXPECT_EQ(vo.escalations, 1);
  EXPECT_GE(counter(after, "refine.escalations") -
                counter(before, "refine.escalations"),
            1.0);
}

// ---- Batched ladder: per-column blame, batched repair -----------------

TEST(CertifyTest, BatchRefinesOnlyTheInjectedBadColumn) {
  const index_t n = 384;
  const index_t cols = 4;
  Matrix pts = clustered_points(3, n, 11);
  askit::HMatrix h(pts, Kernel::gaussian(1.0), tight_config());
  SolverOptions so;
  so.lambda = 1.0;
  FastDirectSolver s(h, so);

  std::mt19937_64 rng(21);
  const Matrix b = Matrix::random_gaussian(n, cols, rng);
  Matrix x = s.solve(b);

  // Corrupt exactly column 2 of the answer: its residual blows up while
  // its batchmates stay at roundoff.
  for (index_t i = 0; i < n; ++i) x(i, 2) *= 1.5;

  VerifyPolicy p;
  p.mode = VerifyMode::Always;
  p.target_residual = 1e-8;
  const std::vector<VerifyOutcome> outs = certify_and_refine_block(s, b, x, p);

  ASSERT_EQ(outs.size(), static_cast<size_t>(cols));
  for (index_t j = 0; j < cols; ++j) {
    EXPECT_TRUE(outs[static_cast<size_t>(j)].measured);
    EXPECT_TRUE(outs[static_cast<size_t>(j)].certified) << "column " << j;
    EXPECT_LE(outs[static_cast<size_t>(j)].residual, 1e-8);
    if (j != 2) {
      EXPECT_EQ(outs[static_cast<size_t>(j)].refine_steps, 0)
          << "healthy column " << j << " must not be re-solved";
    }
  }
  EXPECT_GE(outs[2].refine_steps, 1);
}

// ---- Factor integrity: seal, corrupt, detect --------------------------

TEST(IntegrityTest, CorruptionFlipsVerifyIntegrity) {
  const index_t n = 256;
  Matrix pts = clustered_points(3, n, 13);
  askit::HMatrix h(pts, Kernel::gaussian(1.0), tight_config());
  SolverOptions so;
  so.lambda = 1.0;
  FastDirectSolver s(h, so);

  EXPECT_TRUE(s.verify_integrity());
  ASSERT_TRUE(s.corrupt_factor_bit(12345));
  ObsOn obs_on;
  const obs::Snapshot before = obs::snapshot();
  EXPECT_FALSE(s.verify_integrity());
  const obs::Snapshot after = obs::snapshot();
  EXPECT_GE(counter(after, "verify.integrity_fail") -
                counter(before, "verify.integrity_fail"),
            1.0);

  // Refactorizing reseals: integrity holds again.
  s.refactorize(so.lambda);
  EXPECT_TRUE(s.verify_integrity());
}

// ---- Distributed certification (collective ladder) --------------------

TEST(DistVerifyTest, DistributedSolveCarriesCertifiedResidual) {
  const index_t n = 256;
  Matrix pts = clustered_points(3, n, 1);
  askit::HMatrix h(pts, Kernel::gaussian(1.0), tight_config());
  SolverOptions so;
  so.lambda = 0.7;
  so.verify.mode = VerifyMode::Always;
  so.verify.target_residual = 1e-9;

  const std::vector<double> u = random_vec(n, 2);
  mpisim::run(2, [&](mpisim::Comm& comm) {
    DistributedSolver solver(h, so, comm);
    const std::vector<double> x = solver.solve(u);
    const SolveStatus& st = solver.last_status();
    EXPECT_TRUE(st.ok()) << st.message();
    EXPECT_GE(st.residual, 0.0);
    EXPECT_LE(st.residual, 1e-9);
  });
}

}  // namespace
}  // namespace fdks::core

namespace fdks::serve {
namespace {

using core::FastDirectSolver;
using core::SolverOptions;
using core::VerifyMode;
using la::Matrix;
using la::index_t;

// ---- Cache self-healing ----------------------------------------------

TEST(CacheIntegrityTest, BitFlipDetectedOnHitAndHealedByRefactorization) {
  const index_t n = 256;
  Matrix pts = fdks::core::clustered_points(3, n, 13);
  askit::HMatrix h(pts, kernel::Kernel::gaussian(1.0),
                   fdks::core::tight_config());
  SolverOptions so;
  so.lambda = 1.0;

  int factorizations = 0;
  std::shared_ptr<FastDirectSolver> last;  // Mutable handle for the test.
  FactorCacheOptions co;
  co.capacity = 2;
  co.integrity_check_every = 1;  // Verify on every hit.
  co.factory = [&](const core::HMatrix& hm, const SolverOptions& o) {
    ++factorizations;
    auto sp = std::make_shared<FastDirectSolver>(hm, o);
    last = sp;
    return sp;
  };
  FactorCache cache(co);

  const auto s1 = cache.get(h, so);
  ASSERT_EQ(factorizations, 1);
  const std::vector<double> u = fdks::core::random_vec(n, 4);
  const std::vector<double> x_clean = s1->solve(u);

  // Flip one mantissa bit somewhere in the resident factor. The next
  // hit must detect the mismatch, drop the entry, and refactorize.
  ASSERT_TRUE(last->corrupt_factor_bit(987654321));
  const auto s2 = cache.get(h, so);
  EXPECT_EQ(factorizations, 2);
  EXPECT_NE(s1.get(), s2.get());
  EXPECT_EQ(cache.stats().integrity_failures, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);

  // The healed factor answers like the clean one did.
  const std::vector<double> x_healed = s2->solve(u);
  double worst = 0.0;
  for (size_t i = 0; i < x_clean.size(); ++i)
    worst = std::max(worst, std::abs(x_clean[i] - x_healed[i]));
  EXPECT_LE(worst, 1e-12);

  // A subsequent hit on the fresh entry passes its integrity check and
  // returns the same solver without another factorization.
  const auto s3 = cache.get(h, so);
  EXPECT_EQ(s2.get(), s3.get());
  EXPECT_EQ(factorizations, 2);
  EXPECT_EQ(cache.stats().integrity_failures, 1u);
}

// ---- Serving: every certified answer carries its residual -------------

TEST(ServeVerifyTest, AlwaysPolicyMeasuresEveryServedAnswer) {
  const index_t n = 256;
  Matrix pts = fdks::core::clustered_points(3, n, 13);
  askit::HMatrix h(pts, kernel::Kernel::gaussian(1.0),
                   fdks::core::tight_config());
  SolverOptions so;
  so.lambda = 1.0;
  auto solver = std::make_shared<const FastDirectSolver>(h, so);

  ServeOptions sopts;
  sopts.batch_max = 8;
  sopts.start_paused = true;
  sopts.verify.mode = VerifyMode::Always;
  sopts.verify.target_residual = 1e-8;
  ServeEngine engine(solver, sopts);

  const size_t kRequests = 5;
  std::vector<std::future<ServeResult>> futs;
  for (size_t r = 0; r < kRequests; ++r)
    futs.push_back(
        engine.submit(fdks::core::random_vec(n, 100 + r)));
  engine.resume();

  for (auto& f : futs) {
    const ServeResult res = f.get();
    EXPECT_EQ(res.code, ServeCode::Ok);
    EXPECT_GE(res.residual, 0.0) << "certified answer missing residual";
    EXPECT_LE(res.residual, 1e-8);
  }
  engine.drain();
  const ServeEngine::Stats st = engine.stats();
  EXPECT_EQ(st.verified, kRequests);
  EXPECT_EQ(st.failed, 0u);
  engine.shutdown();
}

// ---- Serving: an uncertifiable answer fails structurally --------------

TEST(ServeVerifyTest, UncertifiableAnswerFailsWithSolveFailed) {
  const index_t n = 256;
  Matrix pts = fdks::core::clustered_points(3, n, 13);
  askit::HMatrix h(pts, kernel::Kernel::gaussian(1.0),
                   fdks::core::tight_config());
  SolverOptions so;
  so.lambda = 1.0;
  auto solver = std::make_shared<FastDirectSolver>(h, so);
  // Corrupt the factor widely (one flipped mantissa bit can land on a
  // negligible entry) and forbid every ladder rung: certification must
  // surface SolveFailed instead of returning the wrong answer.
  for (std::uint64_t seed = 0; seed < 32; ++seed)
    ASSERT_TRUE(solver->corrupt_factor_bit(1000 + seed));

  ServeOptions sopts;
  sopts.batch_max = 4;
  sopts.start_paused = true;
  sopts.verify.mode = VerifyMode::Always;
  sopts.verify.target_residual = 1e-12;
  sopts.verify.max_refine_steps = 0;
  sopts.verify.escalate = false;
  ServeEngine engine(solver, sopts);

  auto fut = engine.submit(fdks::core::random_vec(n, 77));
  engine.resume();
  try {
    (void)fut.get();
    FAIL() << "expected ServeError(SolveFailed)";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeCode::SolveFailed);
    EXPECT_NE(std::string(e.what()).find("residual"), std::string::npos);
  }
  engine.drain();
  EXPECT_EQ(engine.stats().failed, 1u);
  engine.shutdown();
}

}  // namespace
}  // namespace fdks::serve
