#include "serving.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <future>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>

#include "obs/eventlog.hpp"
#include "serve/engine.hpp"

namespace fdksbench {

namespace {

using fdks::serve::ServeEngine;
using fdks::serve::ServeError;
using fdks::serve::ServeResult;
using Clock = std::chrono::steady_clock;

constexpr int kVerifyEvery = 125;  // Every k-th open-loop answer vs solo.

std::vector<double> column(const Matrix& pool, std::size_t i) {
  const index_t j = static_cast<index_t>(i % static_cast<size_t>(pool.cols()));
  const auto c = col(pool, j);
  return {c.begin(), c.end()};
}

}  // namespace

/// Event-log sink of the traced run: remembers the id of the request the
/// calling thread just submitted, and when each request was admitted and
/// batched (steady clock at emission; the sink runs synchronously inside
/// the engine's emit).
class EventTap {
 public:
  void on_line(std::string_view line) {
    const std::uint64_t id = field_u64(line, "\"request_id\":");
    const double t = now_s();
    if (line.find("\"event\":\"admitted\"") != std::string_view::npos) {
      last_admitted_ = id;
      std::lock_guard<std::mutex> lk(mu_);
      admitted_[id] = t;
    } else if (line.find("\"event\":\"batched\"") != std::string_view::npos) {
      std::lock_guard<std::mutex> lk(mu_);
      batched_[id] = t;
    }
  }
  /// Id of the request the calling thread's last submit() admitted.
  static std::uint64_t last_admitted() { return last_admitted_; }
  /// Queue wait (admitted -> batched) in ms, when both were seen.
  bool queue_ms(std::uint64_t id, double& ms) const {
    std::lock_guard<std::mutex> lk(mu_);
    const auto a = admitted_.find(id);
    const auto b = batched_.find(id);
    if (a == admitted_.end() || b == batched_.end()) return false;
    ms = (b->second - a->second) * 1e3;
    return true;
  }

 private:
  static std::uint64_t field_u64(std::string_view line, std::string_view key) {
    const size_t p = line.find(key);
    if (p == std::string_view::npos) return 0;
    const std::string digits(line.substr(p + key.size(), 24));
    char* end = nullptr;
    const unsigned long long v = std::strtoull(digits.c_str(), &end, 10);
    return end == digits.c_str() ? 0 : static_cast<std::uint64_t>(v);
  }

  static thread_local std::uint64_t last_admitted_;
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, double> admitted_;
  std::unordered_map<std::uint64_t, double> batched_;
};

thread_local std::uint64_t EventTap::last_admitted_ = 0;

namespace {

/// Wait for a request; false (with the reason on stderr) unless Ok.
bool settle(std::future<ServeResult>& f, ServeResult* out) {
  try {
    ServeResult r = f.get();
    const bool ok = r.code == fdks::serve::ServeCode::Ok;
    if (out != nullptr) *out = std::move(r);
    return ok;
  } catch (const ServeError& e) {
    std::fprintf(stderr, "fdksbench: request failed: %s\n", e.what());
    return false;
  }
}

double drain_once(ServeEngine& eng, const ServePlan& plan, const Matrix& pool,
                  std::size_t first, Report& rep) {
  std::vector<std::future<ServeResult>> futs;
  futs.reserve(static_cast<size_t>(plan.backlog));
  eng.pause();
  for (int i = 0; i < plan.backlog; ++i)
    futs.push_back(eng.submit(column(pool, first + static_cast<size_t>(i))));
  Spans::Scope span(spans(), "serve.drain");
  const double t0 = now_s();
  eng.resume();
  int ok = 0;
  for (auto& f : futs) ok += settle(f, nullptr) ? 1 : 0;
  const double dt = now_s() - t0;
  rep.attempt(static_cast<std::uint64_t>(plan.backlog));
  for (int i = ok; i < plan.backlog; ++i)
    rep.check(false, "drained request did not complete Ok");
  return static_cast<double>(plan.backlog) / dt;
}

}  // namespace

ServingSession::ServingSession(
    std::shared_ptr<const fdks::core::FastDirectSolver> solver,
    const ServePlan& plan, std::uint64_t seed, bool traced, Report& rep)
    : solver_(std::move(solver)),
      plan_(plan),
      traced_(traced),
      rep_(rep),
      pool_(random_block(solver_->factor_tree().hmatrix().n(), plan.batch_max,
                         derive_seed(seed, 1))),
      tap_(std::make_shared<EventTap>()) {
  std::mt19937_64 rng(derive_seed(seed, 2));
  std::exponential_distribution<double> gap(plan.rate_per_s);
  gaps_.resize(static_cast<size_t>(plan.requests));
  for (double& g : gaps_) g = gap(rng);
  out_.latency_ms.reserve(static_cast<size_t>(plan.requests));

  fdks::serve::ServeOptions so;
  so.batch_max = plan.batch_max;
  if (traced) {
    auto tap = tap_;
    so.event_log = std::make_shared<fdks::obs::EventLog>(
        [tap](std::string_view line) { tap->on_line(line); });
  }
  engine_ = std::make_unique<ServeEngine>(solver_, so);

  // Warm the worker and its caches with one full batch before timing.
  std::vector<std::future<ServeResult>> warm;
  for (index_t i = 0; i < plan.batch_max; ++i)
    warm.push_back(engine_->submit(column(pool_, static_cast<size_t>(i))));
  rep_.attempt(static_cast<std::uint64_t>(plan.batch_max));
  for (auto& f : warm) rep_.check(settle(f, nullptr), "warm-up request");
}

ServingSession::~ServingSession() = default;

void ServingSession::drain() {
  out_.drain_rhs_per_s.push_back(
      drain_once(*engine_, plan_, pool_, drained_, rep_));
  drained_ += static_cast<size_t>(plan_.backlog);
}

void ServingSession::open_loop(int requests) {
  const int first = next_;
  const int n = std::min(requests, plan_.requests - first);
  if (n <= 0) return;
  next_ += n;
  if (traced_) fdks::obs::reset();  // Engine idle: a quiescent point.
  const ServeEngine::Stats before = engine_->stats();

  std::vector<double> due(static_cast<size_t>(n));
  double t = 0.0;
  for (int i = 0; i < n; ++i) {
    t += gaps_[static_cast<size_t>(first + i)];
    due[static_cast<size_t>(i)] = t;
  }
  std::vector<std::future<ServeResult>> futs(static_cast<size_t>(n));
  std::vector<std::uint64_t> ids(static_cast<size_t>(n), 0);
  std::vector<char> ok(static_cast<size_t>(n), 0);
  std::vector<double> done(static_cast<size_t>(n), 0.0);
  std::vector<ServeResult> kept(static_cast<size_t>(n));
  std::mutex mu;
  std::condition_variable cv;
  int submitted = 0;
  int collect_failed = 0;
  auto sampled = [&](int i) {
    return (first + i) % kVerifyEvery == 0;
  };

  auto loop_span = std::make_unique<Spans::Scope>(spans(), "serve.open_loop");
  const int loop_parent = spans().current();
  const Clock::time_point c_start =
      Clock::now() + std::chrono::milliseconds(10);
  const double t_start =
      std::chrono::duration<double>(c_start.time_since_epoch()).count();

  // The collector waits on each request in submission order; batches
  // complete in FIFO order, so each wake-up is that request's completion.
  std::thread collector([&] {
    for (int i = 0; i < n; ++i) {
      std::future<ServeResult> f;
      {
        std::unique_lock<std::mutex> lk(mu);
        if (!cv.wait_for(lk, std::chrono::seconds(120),
                         [&] { return submitted > i; })) {
          ++collect_failed;
          return;
        }
        f = std::move(futs[static_cast<size_t>(i)]);
      }
      if (!f.valid()) continue;  // Rejected at submit.
      f.wait();
      done[static_cast<size_t>(i)] = now_s();
      if (settle(f, sampled(i) ? &kept[static_cast<size_t>(i)] : nullptr))
        ok[static_cast<size_t>(i)] = 1;
    }
  });

  for (int i = 0; i < n; ++i) {
    const size_t k = static_cast<size_t>(i);
    std::vector<double> rhs = column(pool_, static_cast<size_t>(first + i));
    const auto offset = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(due[k]));
    std::this_thread::sleep_until(c_start + offset);
    out_.gen_lag_ms.push_back((now_s() - (t_start + due[k])) * 1e3);
    std::future<ServeResult> f;
    try {
      f = engine_->submit(std::move(rhs));
      ids[k] = EventTap::last_admitted();
    } catch (const ServeError& e) {
      std::fprintf(stderr, "fdksbench: submit rejected: %s\n", e.what());
    }
    {
      std::lock_guard<std::mutex> lk(mu);
      futs[k] = std::move(f);
      ++submitted;
    }
    cv.notify_one();
  }
  collector.join();
  loop_span.reset();

  const ServeEngine::Stats after = engine_->stats();
  out_.batches += after.batches - before.batches;
  out_.batched_requests += after.requests - before.requests;
  if (traced_) {
    const auto snap = fdks::obs::snapshot();
    const auto it = snap.histograms.find("serve.batch_seconds");
    if (it != snap.histograms.end())
      out_.batch_ms_p50 = it->second.quantile(0.5) * 1e3;
  }

  rep_.attempt(static_cast<std::uint64_t>(n));
  rep_.check(collect_failed == 0, "open-loop collector timed out");
  for (int i = 0; i < n; ++i) {
    const size_t k = static_cast<size_t>(i);
    if (!ok[k]) {
      rep_.check(false, "open-loop request " + std::to_string(first + i) +
                            " did not complete Ok");
      continue;
    }
    const double due_t = t_start + due[k];
    out_.latency_ms.push_back((done[k] - due_t) * 1e3);
    if (sampled(i)) sampled_.emplace_back(first + i, std::move(kept[k].x));
    if (traced_) {
      spans().add("serve.request", due_t, done[k], loop_parent, ids[k]);
      double q = 0.0;
      if (tap_->queue_ms(ids[k], q)) out_.queue_ms.push_back(q);
    }
  }
}

ServeOutcome ServingSession::finish() {
  // Batched answers equal a solo solve of the same right-hand side.
  for (const auto& [i, x] : sampled_) {
    const std::vector<double> rhs = column(pool_, static_cast<size_t>(i));
    const std::vector<double> solo = solver_->solve(rhs);
    const double diff = rel_diff(x, solo);
    rep_.check(diff <= 1e-12, "served answer " + std::to_string(i) +
                                  " differs from solo solve by " +
                                  std::to_string(diff));
  }
  return out_;
}

}  // namespace fdksbench
