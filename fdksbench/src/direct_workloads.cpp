// krr-cv and serve-gsks: the full-tree fast direct solver, driven through
// the same rounds with different data, kernel-block scheme and sizes.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "core/solver.hpp"
#include "replay.hpp"
#include "serve/factor_cache.hpp"
#include "workloads.hpp"

namespace fdksbench {

namespace {

namespace core = fdks::core;
namespace data = fdks::data;
using fdks::askit::AskitConfig;
using fdks::askit::HMatrix;

struct DirectSpec {
  data::SyntheticKind kind = data::SyntheticKind::Normal;
  index_t n = 8192;
  fdks::kernel::Scheme scheme = fdks::kernel::Scheme::StoredGemv;
  double lambda0 = 1.0;
  std::vector<double> sweep;  ///< Refactorization lambdas; ends at lambda0.
  index_t block = 16;         ///< Block-solve width.
  bool labels_in_block = false;  ///< Column 0 of the block = labels.
  int factors_per_round = 1;  ///< Fresh factorizations timed per round.
  int solves_per_round = 4;   ///< Timed single-RHS solves per round.
  int blocks_per_round = 2;   ///< Timed block solves at lambda0 per round.
  double exact_bound = 1.0;   ///< Exact-kernel sampled-row residual bound.
  RunPlan run;
};

/// Per-layer observations of one traced round.
struct Layer {
  double rank_sum = 0.0;
  double gemm_flops = 0.0;
  double factor_wall = 0.0;
  double gsks_evals_per_rhs = 0.0;
  std::vector<double> leaf, v, z, tel, seal, wall;
};

constexpr double kResidualTol = 1e-10;  // Direct solves vs HMatrix::apply.
constexpr double kSameTol = 1e-12;      // Block/scalar, refactor/fresh.
// The four replayed phases must account for the library's solve time
// within this margin (the rest is permutation and workspace).
constexpr double kReplayMinPct = 50.0;
constexpr double kReplayMaxPct = 150.0;

void check_residual(const HMatrix& h, std::span<const double> x,
                    std::span<const double> u, double lambda,
                    const std::string& what, Report& rep) {
  const double r = h.relative_residual(x, u, lambda);
  rep.check(r <= kResidualTol,
            what + ": residual " + std::to_string(r) + " > 1e-10");
}

/// One round: build, factorize, single and block solves, the lambda
/// sweep. Timed units land in `s`; the round's HMatrix is returned.
///
/// Every answer is checked outside the timed windows. The first solve of
/// each right-hand side is checked against the treecode operator
/// (HMatrix::apply); each timed repeat of it must reproduce that answer
/// to 1e-12, which checks it as strictly at a fraction of the cost.
std::unique_ptr<HMatrix> direct_round(const DirectSpec& sp,
                                      const data::Dataset& ds,
                                      std::uint64_t seed, int round,
                                      Samples& s, Layer* layer, Report& rep) {
  fdks::obs::Snapshot snap0;
  if (layer) snap0 = fdks::obs::snapshot();
  double secs = 0.0;
  auto h = build_hmatrix(ds, sp.run.bandwidth, sp.run.askit, secs);
  s["setup_s"].push_back(secs);
  rep.attempt();
  if (layer) {
    const auto snap1 = fdks::obs::snapshot();
    layer->rank_sum = counter(snap1, "skeleton.rank_sum") -
                      counter(snap0, "skeleton.rank_sum");
  }

  core::SolverOptions so;
  so.lambda = sp.lambda0;
  so.scheme = sp.scheme;
  std::unique_ptr<core::FastDirectSolver> solver;
  for (int f = 0; f < sp.factors_per_round; ++f) {
    solver.reset();
    if (layer) snap0 = fdks::obs::snapshot();
    {
      Spans::Scope span(spans(), "core.FastDirectSolver");
      const double t0 = now_s();
      solver = std::make_unique<core::FastDirectSolver>(*h, so);
      secs = now_s() - t0;
    }
    s["factor_s"].push_back(secs);
    rep.attempt();
    if (layer) {
      layer->gemm_flops = counter(fdks::obs::snapshot(), "flops.gemm") -
                          counter(snap0, "flops.gemm");
      layer->factor_wall = secs;
    }
  }

  Matrix u = random_block(sp.n, sp.block, derive_seed(seed, 100 + round));
  if (sp.labels_in_block)
    for (index_t i = 0; i < sp.n; ++i)
      u(i, 0) = ds.labels[static_cast<size_t>(i)];
  const auto u0 = col(u, 0);

  // Reference answers: one certified solve per distinct right-hand side
  // (the first also warms the caches and is the fresh-factor reference
  // for the refactorization check).
  constexpr int kDistinct = 2;
  std::vector<std::vector<double>> ref(kDistinct);
  for (int k = 0; k < kDistinct; ++k) {
    Spans::Scope span(spans(), "core.solve");
    ref[static_cast<size_t>(k)] = solver->solve(col(u, k));
    rep.attempt();
    check_residual(*h, ref[static_cast<size_t>(k)], col(u, k), sp.lambda0,
                   "single solve", rep);
  }
  if (round == 0) {
    const double ex = exact_kernel_residual(ds.points, sp.run.bandwidth,
                                            sp.lambda0, ref[0], u0, kExactRows,
                                            derive_seed(seed, 200));
    std::fprintf(stderr, "fdksbench: exact-kernel residual %.3g (bound %g)\n",
                 ex, sp.exact_bound);
    rep.check(ex <= sp.exact_bound,
              "exact-kernel residual " + std::to_string(ex) + " > bound " +
                  std::to_string(sp.exact_bound));
  }

  for (int k = 0; k < sp.solves_per_round; ++k) {
    const int which = k % kDistinct;
    if (layer) snap0 = fdks::obs::snapshot();
    std::vector<double> x;
    {
      Spans::Scope span(spans(), "core.solve");
      const double t0 = now_s();
      x = solver->solve(col(u, which));
      s["solve_ms"].push_back((now_s() - t0) * 1e3);
    }
    if (layer) {
      layer->gsks_evals_per_rhs +=
          (counter(fdks::obs::snapshot(), "gsks.kernel_evals") -
           counter(snap0, "gsks.kernel_evals")) /
          sp.solves_per_round;
    }
    rep.attempt();
    rep.check(rel_diff(x, ref[static_cast<size_t>(which)]) <= kSameTol,
              "repeated single solve differs from its certified answer");
  }

  auto block_solve = [&] {
    Matrix x;
    {
      Spans::Scope span(spans(), "core.solve_block");
      const double t0 = now_s();
      x = solver->solve(u);
      s["block_rhs_per_s"].push_back(static_cast<double>(sp.block) /
                                     (now_s() - t0));
    }
    rep.attempt();
    return x;
  };

  // Blocks at lambda0: columns equal the scalar solves; repeats equal
  // the first block.
  const Matrix xb0 = block_solve();
  for (int k = 0; k < kDistinct; ++k)
    rep.check(rel_diff(col(xb0, k), ref[static_cast<size_t>(k)]) <= kSameTol,
              "block column " + std::to_string(k) +
                  " differs from the scalar solve");
  {
    const index_t j = sp.block - 1;
    const std::vector<double> xj = solver->solve(col(u, j));
    rep.check(rel_diff(col(xb0, j), xj) <= kSameTol,
              "block column " + std::to_string(j) +
                  " differs from the scalar solve");
  }
  for (int b = 1; b < sp.blocks_per_round; ++b) {
    const Matrix xb = block_solve();
    rep.check(rel_diff(std::span<const double>(xb.data(), xb.size()),
                       std::span<const double>(xb0.data(), xb0.size())) <=
                  kSameTol,
              "repeated block solve differs from the first");
  }

  for (double lam : sp.sweep) {
    {
      Spans::Scope span(spans(), "core.refactorize");
      const double t0 = now_s();
      solver->refactorize(lam);
      secs = now_s() - t0;
    }
    s["refactor_s"].push_back(secs);
    rep.attempt();
    if (layer) {
      const core::FactorProfile& p = solver->profile();
      double seal = 0.0;
      {
        Spans::Scope span(spans(), "core.content_checksum");
        const double t0 = now_s();
        const std::uint64_t sum = solver->factor_tree().content_checksum();
        seal = now_s() - t0;
        rep.check(sum == solver->sealed_checksum(),
                  "content checksum differs from the sealed one");
      }
      layer->leaf.push_back(p.leaf_seconds);
      layer->v.push_back(p.v_assembly_seconds);
      layer->z.push_back(p.z_factor_seconds);
      layer->tel.push_back(p.telescope_seconds);
      layer->seal.push_back(seal);
      layer->wall.push_back(secs);
    }
    const Matrix xb = block_solve();
    check_residual(*h, col(xb, 0), u0, lam, "sweep block column 0", rep);
  }

  // The sweep ends at lambda0: the refactorized solver must reproduce
  // the fresh factorization.
  const std::vector<double> x_back = solver->solve(u0);
  rep.check(rel_diff(x_back, ref[0]) <= kSameTol,
            "refactorized solve differs from the fresh factorization");
  return h;
}

void report_layer(const HMatrix& h, const Layer& L, Report& rep) {
  const auto& st = h.stats();
  rep.metric("knn.build_s", st.knn_seconds, "s");
  rep.metric("askit.skeleton_s", st.skeleton_seconds, "s");
  rep.metric("askit.rank_sum", L.rank_sum, "count");
  rep.metric("askit.frontier_nodes", static_cast<double>(h.frontier().size()),
             "count");
  const double leaf = mean(L.leaf), v = mean(L.v), z = mean(L.z),
               tel = mean(L.tel), seal = mean(L.seal), wall = mean(L.wall);
  rep.metric("factor.leaf_s", leaf, "s");
  rep.metric("factor.v_assembly_s", v, "s");
  rep.metric("factor.z_factor_s", z, "s");
  rep.metric("factor.telescope_s", tel, "s");
  rep.metric("factor.seal_s", seal, "s");
  rep.metric("factor.other_s", wall - leaf - v - z - tel - seal, "s");
  rep.metric("factor.wall_s", wall, "s");
  rep.metric("factor.gemm_gflop", L.gemm_flops * 1e-9, "GFLOP");
  rep.metric("factor.gemm_gflops",
             L.factor_wall > 0.0 ? L.gemm_flops * 1e-9 / L.factor_wall : 0.0,
             "GFLOP/s");
  rep.metric("gsks.kernel_evals_per_rhs", L.gsks_evals_per_rhs, "count");
}

/// Solve-phase replay on the serving solver's factors, at B = 1 and at
/// the block width, beside the library's own solve of the same block.
void replay_layer(const DirectSpec& sp, const core::FastDirectSolver& solver,
                  std::uint64_t seed, Report& rep) {
  const core::FactorTree& ft = solver.factor_tree();
  constexpr int kReps = 3;
  for (const index_t b : {index_t{1}, sp.block}) {
    const Matrix u = random_block(sp.n, b, derive_seed(seed, 300 + b));
    std::vector<double> lib_ms, leaf, v, z, w;
    Matrix x_lib, x_rep;
    for (int r = 0; r < kReps; ++r) {
      {
        Spans::Scope span(spans(), b == 1 ? "core.solve" : "core.solve_block");
        const double t0 = now_s();
        if (b == 1) {
          const std::vector<double> x = solver.solve(col(u, 0));
          x_lib = Matrix(sp.n, 1);
          std::copy(x.begin(), x.end(), x_lib.col(0));
        } else {
          x_lib = solver.solve(u);
        }
        lib_ms.push_back((now_s() - t0) * 1e3);
      }
      PhaseTimes t;
      {
        Spans::Scope span(spans(), "replay.solve");
        x_rep = replay_solve(ft, u, t);
      }
      leaf.push_back(t.leaf * 1e3);
      v.push_back(t.v * 1e3);
      z.push_back(t.z * 1e3);
      w.push_back(t.w * 1e3);
    }
    rep.attempt(2 * kReps);
    for (index_t j = 0; j < b; ++j)
      rep.check(rel_diff(col(x_rep, j), col(x_lib, j)) <= kSameTol,
                "replayed solve differs from the library solve");
    const std::string sfx = b == 1 ? "" : "_bw";
    const double phases = median(leaf) + median(v) + median(z) + median(w);
    rep.metric("solve.leaf_ms" + sfx, median(leaf), "ms");
    rep.metric("solve.v_apply_ms" + sfx, median(v), "ms");
    rep.metric("solve.z_solve_ms" + sfx, median(z), "ms");
    rep.metric("solve.w_apply_ms" + sfx, median(w), "ms");
    const double pct = 100.0 * phases / median(lib_ms);
    rep.metric("solve.replay_pct" + sfx, pct, "%");
    rep.check(pct >= kReplayMinPct && pct <= kReplayMaxPct,
              "replayed phases cover " + std::to_string(pct) +
                  "% of the library solve");
    if (b == 1) {
      const double bytes = static_cast<double>(stored_v_bytes(ft));
      rep.metric("solve.v_apply_gbs", bytes / (median(v) * 1e-3) * 1e-9,
                 "GB/s");
    } else if (sp.scheme == fdks::kernel::Scheme::Gsks) {
      // Gram part 2 d and summation part 2 B flops per kernel entry.
      const double flops = 2.0 * v_kernel_evals(ft) *
                           static_cast<double>(solver.factor_tree()
                                                   .hmatrix()
                                                   .dim() +
                                               b);
      rep.metric("gsks.gflops", flops / (median(v) * 1e-3) * 1e-9,
                 "GFLOP/s");
    }
  }
}

int run_direct(DirectSpec& sp, const Args& args, Report& rep) {
  const data::Dataset ds = make_dataset(sp.kind, sp.n, args.seed);
  sp.run.serve_opts.lambda = sp.lambda0;
  sp.run.serve_opts.scheme = sp.scheme;
  Layer layer;
  const RunOutcome o = run_workload(
      ds, sp.run, args,
      [&](int r, Samples& into, bool traced) {
        return direct_round(sp, ds, args.seed, r, into,
                            traced ? &layer : nullptr, rep);
      },
      rep);
  if (!args.trace) {
    report_end_to_end(
        o.samples, o.served, o.cv.seconds,
        static_cast<double>(o.solver->factor_bytes()) / 1048576.0, rep);
    return 0;
  }
  report_layer_defaults(rep);
  report_layer(*o.h_traced, layer, rep);
  replay_layer(sp, *o.solver, args.seed, rep);
  report_shared_layers(ds, sp.run, o, rep);
  return 0;
}

}  // namespace

int run_krr_cv(const Args& args, Report& rep) {
  DirectSpec sp;
  sp.kind = data::SyntheticKind::CovtypeLike;  // d = 54 (Table IV).
  sp.n = args.smoke ? 2048 : 8192;
  sp.run.bandwidth = 3.0;
  sp.run.askit.leaf_size = 128;
  sp.run.askit.max_rank = 128;
  sp.run.askit.tol = 1e-5;  // Adaptive rank, capped at 128.
  sp.run.askit.num_neighbors = 16;
  sp.run.askit.approx_neighbors = true;
  sp.run.askit.seed = derive_seed(args.seed, 1);
  sp.scheme = fdks::kernel::Scheme::StoredGemv;
  sp.lambda0 = 1.0;
  sp.sweep = {0.3, 1.0};
  sp.block = 16;
  sp.labels_in_block = true;
  sp.factors_per_round = 1;
  sp.solves_per_round = 8;
  sp.blocks_per_round = 2;
  sp.exact_bound = 0.6;
  sp.run.serve.rate_per_s = args.smoke ? 400.0 : 40.0;
  sp.run.serve.requests = args.smoke ? 100 : 1000;
  sp.run.serve.backlog = args.smoke ? 64 : 128;
  sp.run.serve.drains = 8;
  sp.run.cv.n = args.smoke ? 1024 : 2048;
  sp.run.cv.lambdas = {1.0, 0.1};
  sp.run.cv.reps = 3;
  return run_direct(sp, args, rep);
}

int run_serve_gsks(const Args& args, Report& rep) {
  DirectSpec sp;
  sp.kind = data::SyntheticKind::Normal;  // d = 64, the paper's recipe.
  sp.n = args.smoke ? 2048 : 8192;
  sp.run.bandwidth = 0.8;
  sp.run.askit.leaf_size = 128;
  sp.run.askit.max_rank = 64;
  sp.run.askit.tol = 0.0;  // Fixed rank 64: the same work for every seed.
  sp.run.askit.num_neighbors = 0;
  sp.run.askit.seed = derive_seed(args.seed, 1);
  sp.scheme = fdks::kernel::Scheme::Gsks;
  sp.lambda0 = 1.0;
  sp.sweep = {0.5, 1.0};
  sp.block = 64;
  sp.factors_per_round = 2;
  sp.solves_per_round = 12;
  sp.blocks_per_round = 3;
  sp.exact_bound = 0.03;
  sp.run.serve.rate_per_s = args.smoke ? 400.0 : 95.0;
  sp.run.serve.requests = args.smoke ? 100 : 1000;
  sp.run.serve.backlog = args.smoke ? 64 : 128;
  sp.run.serve.drains = 4;
  sp.run.cv.n = args.smoke ? 1024 : 2048;
  sp.run.cv.lambdas = {1.0, 0.1};
  sp.run.cv.reps = 6;
  return run_direct(sp, args, rep);
}

}  // namespace fdksbench
