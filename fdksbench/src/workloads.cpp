#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "data/preprocess.hpp"
#include "krr/krr.hpp"
#include "tree/ball_tree.hpp"

namespace fdksbench {

namespace data = fdks::data;

data::Dataset make_dataset(data::SyntheticKind kind, index_t n,
                           std::uint64_t seed) {
  data::Dataset ds = data::make_synthetic(kind, n, seed);
  if (!ds.labeled() && ds.has_targets()) {
    // Binary task on a regression set: is the response above zero.
    ds.labels.resize(ds.targets.size());
    for (size_t i = 0; i < ds.targets.size(); ++i)
      ds.labels[i] = ds.targets[i] > 0.0 ? 1.0 : -1.0;
  }
  return ds;
}

std::unique_ptr<fdks::askit::HMatrix> build_hmatrix(
    const data::Dataset& ds, double bandwidth,
    const fdks::askit::AskitConfig& askit, double& secs) {
  Spans::Scope span(spans(), "askit.HMatrix");
  const double t0 = now_s();
  auto h = std::make_unique<fdks::askit::HMatrix>(
      ds.points, fdks::kernel::Kernel::gaussian(bandwidth), askit);
  secs = now_s() - t0;
  return h;
}

double time_ball_tree(const data::Dataset& ds,
                      const fdks::askit::AskitConfig& askit) {
  Spans::Scope span(spans(), "tree.BallTree");
  const double t0 = now_s();
  const fdks::tree::BallTree tree(
      ds.points, fdks::tree::BallTreeConfig{askit.leaf_size, askit.seed});
  return now_s() - t0;
}

CvOutcome run_cv(const data::Dataset& labelled, double bandwidth,
                 const fdks::askit::AskitConfig& askit, const CvPlan& plan,
                 std::uint64_t seed, Report& rep) {
  // A seeded random subset of plan.n points.
  const double frac =
      std::min(1.0, static_cast<double>(plan.n) /
                        static_cast<double>(labelled.n()));
  data::Dataset subset = labelled;
  if (frac < 1.0) subset = data::train_test_split(labelled, frac, seed).second;

  fdks::krr::KrrConfig cfg;
  cfg.askit = askit;
  cfg.use_hybrid = plan.hybrid;
  cfg.gmres.rtol = plan.gmres_rtol;
  cfg.gmres.max_iters = 400;
  const double hs[] = {bandwidth};
  const std::uint64_t split_seed = derive_seed(seed, 7);

  CvOutcome out;
  fdks::krr::CvResult res;
  {
    Spans::Scope span(spans(), "krr.cross_validate");
    const double t0 = now_s();
    res = fdks::krr::cross_validate(subset, hs, plan.lambdas, cfg, 0.2,
                                    split_seed);
    out.seconds = now_s() - t0;
  }
  out.cells = static_cast<int>(res.cells.size());
  rep.attempt();

  // The holdout cross_validate scored on: the same split, recomputed.
  const auto holdout = data::train_test_split(subset, 0.2, split_seed).second;
  double pos = 0.0;
  for (double y : holdout.labels) pos += y > 0.0 ? 1.0 : 0.0;
  const double n_hold = static_cast<double>(holdout.labels.size());
  const double majority = std::max(pos, n_hold - pos) / n_hold;
  rep.check(res.best.accuracy > majority,
            "cross-validation accuracy " + std::to_string(res.best.accuracy) +
                " does not beat the majority-class rate " +
                std::to_string(majority));
  return out;
}

void report_end_to_end(const Samples& s, const ServeOutcome& so, double cv_s,
                       double factor_mb, Report& rep) {
  auto med = [&](const char* k) {
    const auto it = s.find(k);
    return it == s.end() ? 0.0 : median(it->second);
  };
  // Sample counts and in-run spread, for tuning the run's make-up.
  for (const auto& [k, v] : s) {
    const double m = median(v);
    std::fprintf(stderr, "fdksbench: %-16s n=%3zu median=%.5g iqr/median=%.3f\n",
                 k.c_str(), v.size(), m,
                 m > 0.0 ? (quantile(v, 0.75) - quantile(v, 0.25)) / m : 0.0);
  }
  rep.metric("setup_s", med("setup_s"), "s");
  rep.metric("factor_s", med("factor_s"), "s");
  rep.metric("refactor_s", med("refactor_s"), "s");
  rep.metric("cv_s", cv_s, "s");
  rep.metric("solve_ms", med("solve_ms"), "ms");
  rep.metric("block_rhs_per_s", med("block_rhs_per_s"), "1/s");
  rep.metric("serve_ms_p50", quantile(so.latency_ms, 0.5), "ms");
  rep.metric("serve_ms_p99", quantile(so.latency_ms, 0.99), "ms");
  rep.metric("serve_rhs_per_s", median(so.drain_rhs_per_s), "1/s");
  rep.metric("factor_mb", factor_mb, "MiB");
  rep.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

namespace {

double timed_work(const Samples& s) {
  double t = 0.0;
  for (const char* k : {"setup_s", "factor_s", "refactor_s"})
    if (const auto it = s.find(k); it != s.end())
      for (double v : it->second) t += v;
  if (const auto it = s.find("solve_ms"); it != s.end())
    for (double v : it->second) t += v * 1e-3;
  return t;
}

/// Interleaved segments of an untraced run.
constexpr int kSegments = 4;

/// Share k of `total` split over `parts` (shares sum to total).
int share(int total, int k, int parts) {
  return total * (k + 1) / parts - total * k / parts;
}

}  // namespace

RunOutcome run_workload(const data::Dataset& ds, const RunPlan& plan,
                        const Args& args, const RoundFn& round, Report& rep) {
  RunOutcome o;
  fdks::serve::FactorCache cache(1);
  std::unique_ptr<ServingSession> session;
  std::vector<double> cv_secs;
  const std::uint64_t cv_seed = derive_seed(args.seed, 400);

  // Serving through the factor cache: the first lookup factorizes, every
  // later one (a front end resolving its factors) hits.
  auto start_serving = [&] {
    {
      Spans::Scope span(spans(), "serve.FactorCache.get");
      o.solver = cache.get(*o.h_serve, plan.serve_opts);
    }
    {
      Spans::Scope span(spans(), "serve.FactorCache.get");
      rep.check(cache.get(*o.h_serve, plan.serve_opts) == o.solver,
                "factor cache lookup missed");
    }
    rep.attempt(2);
    session = std::make_unique<ServingSession>(
        o.solver, plan.serve, derive_seed(args.seed, 500), args.trace, rep);
  };
  auto cross_validate = [&] {
    const CvOutcome c =
        run_cv(ds, plan.bandwidth, plan.askit, plan.cv, cv_seed, rep);
    cv_secs.push_back(c.seconds);
    o.cv.cells = c.cells;
  };

  if (args.trace) {
    Samples plain;
    o.h_serve = round(0, plain, false);
    fdks::obs::reset();
    fdks::obs::set_enabled(true);
    spans().set_enabled(true);
    o.h_traced = round(0, o.samples, true);
    const double base = timed_work(plain);
    o.overhead_pct = 100.0 * (timed_work(o.samples) - base) / base;
    start_serving();
    for (int r = 0; r < plan.cv.reps; ++r) cross_validate();
    for (int d = 0; d < plan.serve.drains; ++d) session->drain();
    session->open_loop(plan.serve.requests);
  } else {
    double round_time = 0.0, slowest = 0.0;
    int rounds = 0;
    for (int k = 0; k < kSegments; ++k) {
      if (rounds < plan.min_rounds || round_time + slowest <= args.seconds) {
        const double t0 = now_s();
        auto h = round(rounds++, o.samples, false);
        const double dt = now_s() - t0;
        round_time += dt;
        slowest = std::max(slowest, dt);
        if (!o.h_serve) o.h_serve = std::move(h);
      }
      if (!session) start_serving();
      for (int r = share(plan.cv.reps, k, kSegments); r > 0; --r)
        cross_validate();
      for (int d = share(plan.serve.drains, k, kSegments); d > 0; --d)
        session->drain();
      session->open_loop(share(plan.serve.requests, k, kSegments));
    }
  }
  o.served = session->finish();
  o.cache = cache.stats();
  o.cv.seconds = median(cv_secs);
  return o;
}

void report_shared_layers(const data::Dataset& ds, const RunPlan& plan,
                          const RunOutcome& o, Report& rep) {
  const ServeOutcome& so = o.served;
  rep.metric("serve.batches", static_cast<double>(so.batches), "count");
  rep.metric("serve.batch_width_mean",
             so.batches > 0 ? static_cast<double>(so.batched_requests) /
                                  static_cast<double>(so.batches)
                            : 0.0,
             "count");
  rep.metric("serve.batch_ms_p50", so.batch_ms_p50, "ms");
  rep.metric("serve.queue_ms_p50", quantile(so.queue_ms, 0.5), "ms");
  rep.metric("serve.gen_lag_ms_p99", quantile(so.gen_lag_ms, 0.99), "ms");
  rep.metric("cache.hits", static_cast<double>(o.cache.hits), "count");
  rep.metric("cache.misses", static_cast<double>(o.cache.misses), "count");
  rep.metric("krr.cells", o.cv.cells, "count");
  rep.metric("krr.cell_s", o.cv.cells > 0 ? o.cv.seconds / o.cv.cells : 0.0,
             "s");
  rep.metric("trace.overhead_pct", o.overhead_pct, "%");
  rep.metric("tree.build_s", time_ball_tree(ds, plan.askit), "s");
}

void report_layer_defaults(Report& rep) {
  static const std::pair<const char*, const char*> kLayer[] = {
      {"tree.build_s", "s"},
      {"knn.build_s", "s"},
      {"askit.skeleton_s", "s"},
      {"askit.rank_sum", "count"},
      {"askit.frontier_nodes", "count"},
      {"factor.leaf_s", "s"},
      {"factor.v_assembly_s", "s"},
      {"factor.z_factor_s", "s"},
      {"factor.telescope_s", "s"},
      {"factor.seal_s", "s"},
      {"factor.other_s", "s"},
      {"factor.wall_s", "s"},
      {"factor.gemm_gflop", "GFLOP"},
      {"factor.gemm_gflops", "GFLOP/s"},
      {"factor.pct_peak", "%"},
      {"solve.leaf_ms", "ms"},
      {"solve.v_apply_ms", "ms"},
      {"solve.z_solve_ms", "ms"},
      {"solve.w_apply_ms", "ms"},
      {"solve.leaf_ms_bw", "ms"},
      {"solve.v_apply_ms_bw", "ms"},
      {"solve.z_solve_ms_bw", "ms"},
      {"solve.w_apply_ms_bw", "ms"},
      {"solve.replay_pct", "%"},
      {"solve.replay_pct_bw", "%"},
      {"solve.v_apply_gbs", "GB/s"},
      {"solve.v_apply_pct_triad", "%"},
      {"gsks.kernel_evals_per_rhs", "count"},
      {"gsks.gflops", "GFLOP/s"},
      {"gmres.iters_per_rhs", "count"},
      {"gmres.iter_ms", "ms"},
      {"hybrid.reduced_size", "count"},
      {"mpisim.messages_per_rhs", "count"},
      {"mpisim.bytes_per_rhs", "B"},
      {"mpisim.wait_s_per_rhs", "s"},
      {"mpisim.factor_bytes", "B"},
      {"serve.batches", "count"},
      {"serve.batch_width_mean", "count"},
      {"serve.batch_ms_p50", "ms"},
      {"serve.queue_ms_p50", "ms"},
      {"serve.gen_lag_ms_p99", "ms"},
      {"cache.hits", "count"},
      {"cache.misses", "count"},
      {"krr.cells", "count"},
      {"krr.cell_s", "s"},
      {"trace.overhead_pct", "%"},
      {"machine.fma_gflops", "GFLOP/s"},
      {"machine.triad_gbs", "GB/s"},
  };
  for (const auto& [name, unit] : kLayer) rep.metric(name, 0.0, unit);
}

}  // namespace fdksbench
