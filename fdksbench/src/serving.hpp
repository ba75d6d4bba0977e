// Serving load: requests through serve::FactorCache and serve::ServeEngine.
//
// Two measurements, both on one engine:
//   drain      — a standing backlog is queued while the engine is paused,
//                then released; completed requests per second while it
//                drains is the engine's capacity.
//   open loop  — Poisson arrivals at one fixed offered rate from a single
//                generator thread. Each request is timed from when it was
//                due, so a stall that delays later submissions counts
//                against them; how late the generator ran is reported.
// Both can run in several segments interleaved with other work; samples
// pool across segments. Sampled answers are compared with a solo solve
// of the same right-hand side on the same factors (outside the timed
// windows).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/solver.hpp"
#include "harness.hpp"
#include "obs/eventlog.hpp"
#include "serve/engine.hpp"

namespace fdksbench {

struct ServePlan {
  double rate_per_s = 100.0;  ///< Offered open-loop rate.
  int requests = 1000;        ///< Open-loop requests per run.
  int backlog = 128;          ///< Requests queued before each drain.
  int drains = 4;             ///< Drains per run (median reported).
  index_t batch_max = 64;     ///< Engine block width.
};

struct ServeOutcome {
  std::vector<double> latency_ms;       ///< Open loop, from due time.
  std::vector<double> gen_lag_ms;       ///< Submit time minus due time.
  std::vector<double> queue_ms;         ///< admitted -> batched (traced).
  std::vector<double> drain_rhs_per_s;  ///< One per drain.
  std::uint64_t batches = 0;            ///< Open-loop batches.
  std::uint64_t batched_requests = 0;   ///< Open-loop requests batched.
  double batch_ms_p50 = 0.0;            ///< Traced: serve.batch_seconds.
};

class EventTap;

/// One engine over `solver`, warmed with a full batch on construction.
/// Every request is one attempted operation in `rep`; every request that
/// does not come back Ok, or whose sampled answer differs from the solo
/// solve by more than 1e-12, one failed.
class ServingSession {
 public:
  ServingSession(std::shared_ptr<const fdks::core::FastDirectSolver> solver,
                 const ServePlan& plan, std::uint64_t seed, bool traced,
                 Report& rep);
  ~ServingSession();
  ServingSession(const ServingSession&) = delete;
  ServingSession& operator=(const ServingSession&) = delete;

  /// One drain of plan.backlog requests.
  void drain();
  /// The next `requests` open-loop requests of the run's arrival
  /// schedule, starting now.
  void open_loop(int requests);
  /// Compare the sampled answers with solo solves; the pooled outcome.
  ServeOutcome finish();

 private:
  std::shared_ptr<const fdks::core::FastDirectSolver> solver_;
  ServePlan plan_;
  bool traced_;
  Report& rep_;
  Matrix pool_;                 ///< Right-hand sides, one per column.
  std::vector<double> gaps_;    ///< Poisson inter-arrival times.
  int next_ = 0;                ///< Next open-loop request index.
  std::size_t drained_ = 0;     ///< Requests submitted by drains.
  std::shared_ptr<EventTap> tap_;
  std::unique_ptr<fdks::serve::ServeEngine> engine_;
  ServeOutcome out_;
  std::vector<std::pair<int, std::vector<double>>> sampled_;
};

}  // namespace fdksbench
