// dist-hybrid: DistributedHybridSolver over mpisim on level-restricted
// susy-like points (Table V). Four rank threads with one OpenMP thread
// each; the reduced system is solved by GMRES to kRtol.
//
// The distributed solver has no refactorization path, so refactor_s is a
// fresh distributed factorization at the next lambda of the sweep. Its
// serving metrics come from FactorCache + ServeEngine over the direct
// (expanded, level-restricted) factorization of the same matrix: the
// direct column of Table V beside the hybrid one.
#include <omp.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>

#include "core/dist_hybrid.hpp"
#include "core/hybrid.hpp"
#include "core/solver.hpp"
#include "kernel/gsks.hpp"
#include "mpisim/runtime.hpp"
#include "serve/factor_cache.hpp"
#include "workloads.hpp"

namespace fdksbench {

namespace {

namespace core = fdks::core;
namespace data = fdks::data;
using fdks::askit::HMatrix;

constexpr int kRanks = 2;
constexpr double kRtol = 1e-8;     // Reduced-system GMRES tolerance.
constexpr double kTolFactor = 10;  // Allowed slack on kRtol in the checks.
constexpr double kBandwidth = 0.5;
constexpr double kLambda0 = 40.0;
constexpr double kLambda1 = 10.0;

struct DistSpec {
  index_t n = 4096;
  index_t block = 2;
  int factors_per_round = 3;  ///< Timed at lambda0, and again at lambda1.
  int solves_per_round = 2;
  double exact_bound = 0.03;
  RunPlan run;
};

core::HybridOptions hybrid_options(double lambda) {
  core::HybridOptions ho;
  ho.direct.lambda = lambda;
  ho.gmres.rtol = kRtol;
  ho.gmres.max_iters = 400;
  ho.gmres.record_history = false;
  return ho;
}

/// Per-layer observations of one traced round (rank 0's view).
struct Layer {
  double gmres_iters = 0.0;
  double gmres_iter_s = 0.0;
  double gmres_iter_count = 0.0;
  double messages = 0.0;
  double bytes = 0.0;
  double wait_s = 0.0;
  double gsks_evals = 0.0;
  double factor_bytes = 0.0;
  double gemm_flops = 0.0;
  double factor_wall = 0.0;
  double reduced = 0.0;
  double rank_sum = 0.0;
};

/// What rank 0 hands back from one round.
struct RoundOut {
  std::vector<double> x_fresh;
  std::vector<std::vector<double>> x_single;
  Matrix x_block;
  std::vector<double> x_refactor;  ///< Empty unless checked this round.
  std::vector<int> converged;      ///< One per GMRES solve.
};

/// One round's distributed work; `check_refactor` adds a solve after the
/// refactorizations (checked by the caller).
RoundOut dist_round(const DistSpec& sp, const HMatrix& h, const Matrix& u,
                    bool check_refactor, Samples& s, Layer* layer,
                    Report& rep) {
  RoundOut out;
  std::mutex mu;
  auto rank0 = [](const fdks::mpisim::Comm& c) { return c.rank() == 0; };
  Spans::Scope span(spans(), "mpisim.run");
  fdks::mpisim::run(kRanks, [&](fdks::mpisim::Comm& comm) {
    omp_set_num_threads(1);
    fdks::obs::Snapshot snap0;
    auto snap = [&] {
      comm.barrier();
      fdks::obs::Snapshot sn;
      if (layer && rank0(comm)) sn = fdks::obs::snapshot();
      comm.barrier();
      return sn;
    };
    auto record = [&](const char* key, double v) {
      if (!rank0(comm)) return;
      std::lock_guard<std::mutex> lk(mu);
      s[key].push_back(v);
    };

    // Timed fresh factorizations at lambda0; the last one is kept.
    std::unique_ptr<core::DistributedHybridSolver> dp;
    double tf = 0.0;
    for (int f = 0; f < sp.factors_per_round; ++f) {
      dp.reset();
      snap0 = snap();
      const double t0 = now_s();
      dp = std::make_unique<core::DistributedHybridSolver>(
          h, hybrid_options(kLambda0), comm);
      comm.barrier();
      tf = now_s() - t0;
      record("factor_s", tf);
    }
    core::DistributedHybridSolver& d = *dp;
    double t0 = 0.0;
    const fdks::obs::Snapshot snap1 = snap();
    if (layer && rank0(comm)) {
      layer->factor_bytes =
          counter(snap1, "mpisim.bytes") - counter(snap0, "mpisim.bytes");
      layer->gemm_flops =
          counter(snap1, "flops.gemm") - counter(snap0, "flops.gemm");
      layer->factor_wall = tf;
      layer->reduced = static_cast<double>(d.reduced_size());
    }

    std::vector<double> x;
    const fdks::obs::Snapshot snap2 = snap();
    double iters = 0.0;
    for (int k = 0; k < sp.solves_per_round; ++k) {
      comm.barrier();
      t0 = now_s();
      x = d.solve(col(u, k % u.cols()));
      comm.barrier();
      record("solve_ms", (now_s() - t0) * 1e3);
      iters += d.last_gmres().iterations;
      if (rank0(comm)) {
        out.x_single.push_back(x);
        out.converged.push_back(d.last_gmres().converged ? 1 : 0);
      }
    }
    if (rank0(comm)) out.x_fresh = out.x_single.front();
    const fdks::obs::Snapshot snap3 = snap();
    if (layer && rank0(comm)) {
      const double k = sp.solves_per_round;
      layer->gmres_iters = iters / k;
      layer->gmres_iter_s = hist_sum(snap3, "gmres.iter_seconds") -
                            hist_sum(snap2, "gmres.iter_seconds");
      layer->gmres_iter_count = hist_count(snap3, "gmres.iter_seconds") -
                                hist_count(snap2, "gmres.iter_seconds");
      layer->messages = (counter(snap3, "mpisim.messages") -
                         counter(snap2, "mpisim.messages")) / k;
      layer->bytes = (counter(snap3, "mpisim.bytes") -
                      counter(snap2, "mpisim.bytes")) / k;
      layer->wait_s = (hist_sum(snap3, "mpisim.wait_seconds") -
                       hist_sum(snap2, "mpisim.wait_seconds")) / k;
      layer->gsks_evals = (counter(snap3, "gsks.kernel_evals") -
                           counter(snap2, "gsks.kernel_evals")) / k;
    }

    comm.barrier();
    t0 = now_s();
    Matrix xb = d.solve(u);
    comm.barrier();
    record("block_rhs_per_s", static_cast<double>(u.cols()) / (now_s() - t0));
    if (rank0(comm)) out.x_block = std::move(xb);

    // No refactorization path: fresh factorizations at lambda1.
    dp.reset();
    for (int f = 0; f < sp.factors_per_round; ++f) {
      dp.reset();
      comm.barrier();
      t0 = now_s();
      dp = std::make_unique<core::DistributedHybridSolver>(
          h, hybrid_options(kLambda1), comm);
      comm.barrier();
      record("refactor_s", now_s() - t0);
    }
    if (check_refactor) {
      x = dp->solve(col(u, 0));
      if (rank0(comm)) {
        out.x_refactor = x;
        out.converged.push_back(dp->last_gmres().converged ? 1 : 0);
      }
    }
  });
  // Operations: factorizations, singles, block, refactorizations and
  // the solve after them.
  rep.attempt(static_cast<std::uint64_t>(1 + 2 * sp.factors_per_round +
                                         sp.solves_per_round +
                                         (check_refactor ? 1 : 0)));
  return out;
}

void check_round(const HMatrix& h, const Matrix& u, const RoundOut& o,
                 Report& rep) {
  const double tol = kTolFactor * kRtol;
  for (int c : o.converged)
    rep.check(c == 1, "reduced-system GMRES did not converge");
  auto resid = [&](std::span<const double> x, std::span<const double> b,
                   double lam, const char* what) {
    const double r = h.relative_residual(x, b, lam);
    rep.check(r <= tol, std::string(what) + ": residual " +
                            std::to_string(r) + " above " +
                            std::to_string(tol));
  };
  for (size_t k = 0; k < o.x_single.size(); ++k)
    resid(o.x_single[k], col(u, static_cast<index_t>(k) % u.cols()), kLambda0,
          "hybrid solve");
  if (!o.x_refactor.empty())
    resid(o.x_refactor, col(u, 0), kLambda1, "hybrid solve after refactor");
  for (index_t j = 0; j < u.cols(); ++j)
    resid(col(o.x_block, j), col(u, j), kLambda0, "hybrid block column");
  const double d0 = rel_diff(col(o.x_block, 0), o.x_fresh);
  rep.check(d0 <= tol, "hybrid block column 0 differs from the single solve by " +
                           std::to_string(d0));
}

/// GSKS applied to one vector at d = 8: the reduced system's V matvec
/// (every frontier skeleton against all points), replayed on one thread
/// through kernel::gsks_apply. Returns GFLOP/s (2(d+1) flops per entry).
double gsks_vector_gflops(const HMatrix& h, std::uint64_t seed) {
  const index_t n = h.n();
  std::vector<index_t> all(static_cast<size_t>(n));
  std::iota(all.begin(), all.end(), index_t{0});
  const Matrix q = random_block(n, 1, seed);
  double evals = 0.0;
  std::vector<double> times;
  for (int r = 0; r < 3; ++r) {
    Spans::Scope span(spans(), "kernel.gsks_apply");
    evals = 0.0;
    const double t0 = now_s();
    for (const index_t a : h.frontier()) {
      const auto& skel = h.skeleton(a).skel;
      std::vector<double> z(skel.size(), 0.0);
      fdks::kernel::gsks_apply(h.km(), skel, all, col(q, 0), z, 1.0);
      evals += static_cast<double>(skel.size()) * static_cast<double>(n);
    }
    times.push_back(now_s() - t0);
  }
  return 2.0 * evals * static_cast<double>(h.dim() + 1) / median(times) * 1e-9;
}

}  // namespace

int run_dist_hybrid(const Args& args, Report& rep) {
  DistSpec sp;
  sp.n = args.smoke ? 2048 : 4096;
  sp.run.bandwidth = kBandwidth;
  sp.run.askit.leaf_size = 128;
  sp.run.askit.max_rank = 128;
  sp.run.askit.tol = 1e-5;
  sp.run.askit.num_neighbors = 0;
  sp.run.askit.level_restriction = 3;
  sp.run.askit.seed = derive_seed(args.seed, 1);
  sp.run.serve.rate_per_s = args.smoke ? 400.0 : 95.0;
  sp.run.serve.requests = args.smoke ? 100 : 1000;
  sp.run.serve.backlog = args.smoke ? 64 : 128;
  sp.run.serve.drains = 4;
  sp.run.serve_opts.lambda = kLambda0;  // Direct (expanded) factors.
  sp.run.cv.n = args.smoke ? 1024 : 2048;
  sp.run.cv.lambdas = {kLambda0, kLambda1};
  sp.run.cv.hybrid = true;
  sp.run.cv.gmres_rtol = kRtol;
  sp.run.cv.reps = 3;
  sp.run.min_rounds = 4;  // One round in every segment.

  const data::Dataset ds =
      make_dataset(data::SyntheticKind::SusyLike, sp.n, args.seed);
  Layer layer;
  double factor_mb = 0.0;
  auto round = [&](int r, Samples& into, bool traced) {
    Layer* L = traced ? &layer : nullptr;
    fdks::obs::Snapshot b0;
    if (L) b0 = fdks::obs::snapshot();
    double secs = 0.0;
    auto h = build_hmatrix(ds, kBandwidth, sp.run.askit, secs);
    into["setup_s"].push_back(secs);
    rep.attempt();
    if (L) {
      L->rank_sum = counter(fdks::obs::snapshot(), "skeleton.rank_sum") -
                    counter(b0, "skeleton.rank_sum");
    }
    const Matrix u =
        random_block(sp.n, sp.block, derive_seed(args.seed, 100 + r));
    const RoundOut out = dist_round(sp, *h, u, r == 0, into, L, rep);
    check_round(*h, u, out, rep);
    if (r == 0) {
      const double ex = exact_kernel_residual(ds.points, kBandwidth, kLambda0,
                                              out.x_fresh, col(u, 0), kExactRows,
                                              derive_seed(args.seed, 200));
      std::fprintf(stderr,
                   "fdksbench: exact-kernel residual %.3g (bound %g)\n", ex,
                   sp.exact_bound);
      rep.check(ex <= sp.exact_bound, "exact-kernel residual " +
                                          std::to_string(ex) + " > bound " +
                                          std::to_string(sp.exact_bound));
      // Distributed == sequential: the sequential HybridSolver on the
      // same matrix and right-hand side, within the GMRES tolerance.
      Spans::Scope span(spans(), "core.HybridSolver");
      core::HybridSolver seq(*h, hybrid_options(kLambda0));
      const std::vector<double> xs = seq.solve(col(u, 0));
      rep.attempt(2);
      const double diff = rel_diff(out.x_fresh, xs);
      rep.check(diff <= kTolFactor * kRtol,
                "distributed hybrid differs from the sequential one by " +
                    std::to_string(diff));
      // The frontier-subtree factors all ranks hold together.
      factor_mb = static_cast<double>(seq.factor_bytes()) / 1048576.0;
    }
    return h;
  };
  const RunOutcome o = run_workload(ds, sp.run, args, round, rep);

  if (!args.trace) {
    report_end_to_end(o.samples, o.served, o.cv.seconds, factor_mb, rep);
    return 0;
  }
  const HMatrix& h = *o.h_traced;
  report_layer_defaults(rep);
  const auto& st = h.stats();
  rep.metric("knn.build_s", st.knn_seconds, "s");
  rep.metric("askit.skeleton_s", st.skeleton_seconds, "s");
  rep.metric("askit.rank_sum", layer.rank_sum, "count");
  rep.metric("askit.frontier_nodes", static_cast<double>(h.frontier().size()),
             "count");
  rep.metric("factor.wall_s", layer.factor_wall, "s");
  rep.metric("factor.other_s", layer.factor_wall, "s");
  rep.metric("factor.gemm_gflop", layer.gemm_flops * 1e-9, "GFLOP");
  rep.metric("factor.gemm_gflops",
             layer.factor_wall > 0 ? layer.gemm_flops * 1e-9 / layer.factor_wall
                                   : 0.0,
             "GFLOP/s");
  rep.metric("gsks.kernel_evals_per_rhs", layer.gsks_evals, "count");
  rep.metric("gsks.gflops", gsks_vector_gflops(h, derive_seed(args.seed, 600)),
             "GFLOP/s");
  rep.metric("gmres.iters_per_rhs", layer.gmres_iters, "count");
  rep.metric("gmres.iter_ms",
             layer.gmres_iter_count > 0
                 ? layer.gmres_iter_s / layer.gmres_iter_count * 1e3
                 : 0.0,
             "ms");
  rep.metric("hybrid.reduced_size", layer.reduced, "count");
  rep.metric("mpisim.messages_per_rhs", layer.messages, "count");
  rep.metric("mpisim.bytes_per_rhs", layer.bytes, "B");
  rep.metric("mpisim.wait_s_per_rhs", layer.wait_s, "s");
  rep.metric("mpisim.factor_bytes", layer.factor_bytes, "B");
  report_shared_layers(ds, sp.run, o, rep);
  return 0;
}

}  // namespace fdksbench
