// Shared pieces of the fdks benchmark: clocks and robust statistics, the
// run report (metrics plus operation accounting), benchmark-side spans,
// obs-snapshot deltas, and the independent correctness checks.
//
// Everything here lives outside the library: spans wrap the calls the
// benchmark makes into a layer's public functions, and the checks use
// their own arithmetic (an exact Gaussian kernel row sum) rather than
// fdks::kernel, so a wrong kernel, permutation or lambda in the library
// shows as an O(1) error instead of being checked against itself.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "la/matrix.hpp"
#include "obs/obs.hpp"

namespace fdksbench {

using fdks::la::index_t;
using fdks::la::Matrix;

/// Command-line settings of one workload run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 12.0;
  bool trace = false;
  bool smoke = false;   ///< Small sizes, every check on: the self-test.
  std::string out_dir;  ///< Where the traced run writes its span file.
};

/// Seconds on the steady clock.
double now_s();

/// Median and linear-interpolation quantile (q in [0, 1]) of a sample;
/// 0 for an empty sample.
double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);

/// Metrics plus operation accounting for one run. Every timed unit of
/// work is one attempted operation; every failed check counts as one
/// failed operation and is described on stderr.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Record a check on an operation already attempted.
  void check(bool ok, const std::string& what);
  bool has_failures() const { return failed_ > 0; }
  /// The single JSON line the benchmark prints last.
  std::string json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Named timing samples collected over a run (medians are reported).
using Samples = std::map<std::string, std::vector<double>>;

// ---- Spans ------------------------------------------------------------

/// In-memory spans recorded around the benchmark's calls into the
/// library (traced runs only). Spans on one thread nest through a
/// thread-local stack; serving request spans carry the engine's
/// request id. Written out once, as Chrome trace-event JSON, at the end.
class Spans {
 public:
  struct Span {
    std::string name;
    double t0 = 0.0;
    double t1 = 0.0;
    int parent = -1;
    std::uint64_t request_id = 0;
    std::uint64_t tid = 0;
  };

  /// RAII scope: records [construction, destruction) when enabled.
  class Scope {
   public:
    Scope(Spans& s, std::string_view name, std::uint64_t request_id = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* s_ = nullptr;
    int index_ = -1;
  };

  void set_enabled(bool on) { on_ = on; }
  bool enabled() const { return on_; }
  /// Record a finished span with explicit times (serving requests,
  /// timed on another thread). Returns its index.
  int add(std::string_view name, double t0, double t1, int parent,
          std::uint64_t request_id);
  /// Index of the innermost open span on the calling thread, or -1.
  int current() const;
  bool write_chrome(const std::string& path) const;

 private:
  int open(std::string_view name, std::uint64_t request_id);
  void close(int index);

  bool on_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

Spans& spans();

// ---- obs snapshots ------------------------------------------------------

/// Counter value in a snapshot (0 when absent).
double counter(const fdks::obs::Snapshot& s, std::string_view key);
/// Histogram sum and sample count in a snapshot (0 when absent).
double hist_sum(const fdks::obs::Snapshot& s, std::string_view key);
double hist_count(const fdks::obs::Snapshot& s, std::string_view key);

// ---- Checks -------------------------------------------------------------

/// ||a - b|| / ||b||.
double rel_diff(std::span<const double> a, std::span<const double> b);

/// Rows sampled by the exact-kernel check.
inline constexpr int kExactRows = 128;

/// Relative residual of the EXACT kernel system on sampled rows:
/// ||((lambda I + K) x - u)_S|| / ||u_S|| with K(p, q) =
/// exp(-|p - q|^2 / (2 h^2)) evaluated by this function's own loop over
/// `points` (d-by-N, original order). Rows S are drawn from `seed`.
double exact_kernel_residual(const Matrix& points, double bandwidth,
                             double lambda, std::span<const double> x,
                             std::span<const double> u, int rows,
                             std::uint64_t seed);

/// N-by-B block of i.i.d. standard normal right-hand sides.
Matrix random_block(index_t n, index_t b, std::uint64_t seed);

/// Deterministic sub-seed for stream `k` of a run seeded with `seed`.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k);

/// Column j of a matrix as a span.
inline std::span<const double> col(const Matrix& m, index_t j) {
  return {m.col(j), static_cast<size_t>(m.rows())};
}

/// Peak resident set of this process in MiB.
double peak_rss_mb();

}  // namespace fdksbench
