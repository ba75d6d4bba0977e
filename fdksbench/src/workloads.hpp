// The three workloads and the pieces they share.
//
//   krr-cv       kernel ridge training on covtype-like points: one
//                HMatrix, a lambda sweep of refactorizations with block
//                solves, and krr::cross_validate (stored-GEMV V blocks).
//   serve-gsks   requests through FactorCache + ServeEngine on the Normal
//                set with matrix-free GSKS V blocks.
//   dist-hybrid  DistributedHybridSolver over mpisim on level-restricted
//                susy-like points, GMRES on the reduced system.
//
// Every workload reports every end-to-end metric. Each run does whole
// rounds of the same operations; the untraced run reports end-to-end
// metrics, the traced run (--trace 1) per-layer metrics.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "askit/hmatrix.hpp"
#include "data/generators.hpp"
#include "core/solver.hpp"
#include "harness.hpp"
#include "serve/factor_cache.hpp"
#include "serving.hpp"

namespace fdksbench {

/// krr::cross_validate over a small lambda grid at one bandwidth, on a
/// seeded random subset of the workload's labelled points.
struct CvPlan {
  index_t n = 2048;
  std::vector<double> lambdas;
  bool hybrid = false;
  double gmres_rtol = 1e-8;
  int reps = 3;  ///< Timed repetitions per run; the median is reported.
};

struct CvOutcome {
  double seconds = 0.0;  ///< Wall time (median over repetitions).
  int cells = 0;
};

/// One timed cross-validation; checks that the best holdout accuracy
/// beats the holdout's majority-class rate.
CvOutcome run_cv(const fdks::data::Dataset& labelled, double bandwidth,
                 const fdks::askit::AskitConfig& askit, const CvPlan& plan,
                 std::uint64_t seed, Report& rep);

/// The workload's dataset: `n` points of `kind` from `seed`. Sets labels
/// from the sign of the regression target when the kind has none.
fdks::data::Dataset make_dataset(fdks::data::SyntheticKind kind, index_t n,
                                 std::uint64_t seed);

/// Build the HMatrix inside a span; returns wall seconds through `secs`.
std::unique_ptr<fdks::askit::HMatrix> build_hmatrix(
    const fdks::data::Dataset& ds, double bandwidth,
    const fdks::askit::AskitConfig& askit, double& secs);

/// Seconds to build the ball tree alone, with the HMatrix's own leaf size
/// and seed (HMatrix::stats() does not fill in its tree time).
double time_ball_tree(const fdks::data::Dataset& ds,
                      const fdks::askit::AskitConfig& askit);

/// Stamp the serving outcome and the per-run medians every workload
/// shares into the report (untraced run).
void report_end_to_end(const Samples& s, const ServeOutcome& so,
                       double cv_s, double factor_mb, Report& rep);

/// Zero every per-layer metric so that each traced run reports the full
/// set; layers a workload does not run stay at 0.
void report_layer_defaults(Report& rep);

/// A workload round: build, factorize, solve (timed units into `into`).
/// `traced` marks the traced run's round, which also gathers per-layer
/// observations. Returns the round's HMatrix.
using RoundFn = std::function<std::unique_ptr<fdks::askit::HMatrix>(
    int round, Samples& into, bool traced)>;

/// The make-up every workload shares: rounds, cross-validation, serving.
struct RunPlan {
  int min_rounds = 2;  ///< Rounds run even past --seconds.
  double bandwidth = 1.0;
  fdks::askit::AskitConfig askit;
  CvPlan cv;
  ServePlan serve;
  fdks::core::SolverOptions serve_opts;  ///< The served factorization.
};

struct RunOutcome {
  Samples samples;
  CvOutcome cv;
  ServeOutcome served;
  std::unique_ptr<fdks::askit::HMatrix> h_serve;  ///< First round's.
  std::unique_ptr<fdks::askit::HMatrix> h_traced;  ///< Traced round's.
  std::shared_ptr<const fdks::core::FastDirectSolver> solver;  ///< Served.
  fdks::serve::FactorCache::Stats cache;
  double overhead_pct = 0.0;  ///< Traced round against the same untraced.
};

/// Run a workload. Untraced, the run is four interleaved segments,
/// each with (while rounds fit in args.seconds, at least min_rounds in
/// all) one round, then its share of the cross-validations, drains and
/// open-loop requests, so every metric's samples spread over the whole
/// run. Traced, round 0 runs untraced and then traced, followed by all
/// cross-validations, drains and the open loop in one piece.
RunOutcome run_workload(const fdks::data::Dataset& ds, const RunPlan& plan,
                        const Args& args, const RoundFn& round, Report& rep);

/// Stamp the per-layer metrics every workload shares: serving, cache,
/// krr, tracing overhead and the tree build.
void report_shared_layers(const fdks::data::Dataset& ds, const RunPlan& plan,
                          const RunOutcome& o, Report& rep);

int run_krr_cv(const Args& args, Report& rep);
int run_serve_gsks(const Args& args, Report& rep);
int run_dist_hybrid(const Args& args, Report& rep);

}  // namespace fdksbench
