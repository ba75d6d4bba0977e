#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <random>
#include <sstream>

#include <sys/resource.h>

namespace fdksbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// ---- Report ---------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  ++failed_;
  std::fprintf(stderr, "fdksbench: CHECK FAILED: %s\n", what.c_str());
}

std::string Report::json() const {
  std::ostringstream o;
  o.precision(17);
  const std::uint64_t failed = std::min(failed_, attempted_);
  o << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
    << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed
    << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    if (!first) o << ", ";
    first = false;
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    o << "\"" << name << "\": {\"value\": " << v << ", \"unit\": \""
      << vu.second << "\"}";
  }
  o << "}}";
  return o.str();
}

// ---- Spans ----------------------------------------------------------------

namespace {

std::uint64_t thread_tag() {
  static std::atomic<std::uint64_t> next{1};
  thread_local const std::uint64_t tag = next.fetch_add(1);
  return tag;
}

thread_local std::vector<int> t_open;  // Open span indices, innermost last.

}  // namespace

Spans& spans() {
  static Spans s;
  return s;
}

Spans::Scope::Scope(Spans& s, std::string_view name,
                    std::uint64_t request_id) {
  if (!s.enabled()) return;
  s_ = &s;
  index_ = s.open(name, request_id);
}

Spans::Scope::~Scope() {
  if (s_ != nullptr) s_->close(index_);
}

int Spans::open(std::string_view name, std::uint64_t request_id) {
  const int parent = current();
  const double t = now_s();
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(
      Span{std::string(name), t, t, parent, request_id, thread_tag()});
  const int idx = static_cast<int>(spans_.size()) - 1;
  t_open.push_back(idx);
  return idx;
}

void Spans::close(int index) {
  const double t = now_s();
  {
    std::lock_guard<std::mutex> lk(mu_);
    spans_[static_cast<size_t>(index)].t1 = t;
  }
  if (!t_open.empty() && t_open.back() == index) t_open.pop_back();
}

int Spans::current() const { return t_open.empty() ? -1 : t_open.back(); }

int Spans::add(std::string_view name, double t0, double t1, int parent,
               std::uint64_t request_id) {
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(
      Span{std::string(name), t0, t1, parent, request_id, thread_tag()});
  return static_cast<int>(spans_.size()) - 1;
}

bool Spans::write_chrome(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "fdksbench: cannot write span file %s\n",
                 path.c_str());
    return false;
  }
  const double origin = spans_.empty() ? 0.0 : spans_.front().t0;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"request_id\":%llu}}\n",
                 i == 0 ? "" : ",", s.name.c_str(),
                 static_cast<unsigned long long>(s.tid),
                 (s.t0 - origin) * 1e6, (s.t1 - s.t0) * 1e6, i, s.parent,
                 static_cast<unsigned long long>(s.request_id));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// ---- obs snapshots --------------------------------------------------------

double counter(const fdks::obs::Snapshot& s, std::string_view key) {
  const auto it = s.counters.find(std::string(key));
  return it == s.counters.end() ? 0.0 : it->second;
}

double hist_sum(const fdks::obs::Snapshot& s, std::string_view key) {
  const auto it = s.histograms.find(std::string(key));
  return it == s.histograms.end() ? 0.0 : it->second.sum;
}

double hist_count(const fdks::obs::Snapshot& s, std::string_view key) {
  const auto it = s.histograms.find(std::string(key));
  return it == s.histograms.end() ? 0.0
                                  : static_cast<double>(it->second.count);
}

// ---- Checks ---------------------------------------------------------------

double rel_diff(std::span<const double> a, std::span<const double> b) {
  double num = 0.0, den = 0.0;
  for (size_t i = 0; i < b.size(); ++i) {
    const double d = a[i] - b[i];
    num += d * d;
    den += b[i] * b[i];
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

double exact_kernel_residual(const Matrix& points, double bandwidth,
                             double lambda, std::span<const double> x,
                             std::span<const double> u, int rows,
                             std::uint64_t seed) {
  const index_t d = points.rows();
  const index_t n = points.cols();
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<index_t> pick(0, n - 1);
  const double scale = -0.5 / (bandwidth * bandwidth);
  double num = 0.0, den = 0.0;
  for (int r = 0; r < rows; ++r) {
    const index_t i = pick(rng);
    const double* pi = points.col(i);
    double row = lambda * x[static_cast<size_t>(i)];
    for (index_t j = 0; j < n; ++j) {
      const double* pj = points.col(j);
      double d2 = 0.0;
      for (index_t k = 0; k < d; ++k) {
        const double t = pi[k] - pj[k];
        d2 += t * t;
      }
      row += std::exp(scale * d2) * x[static_cast<size_t>(j)];
    }
    const double res = row - u[static_cast<size_t>(i)];
    num += res * res;
    den += u[static_cast<size_t>(i)] * u[static_cast<size_t>(i)];
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

Matrix random_block(index_t n, index_t b, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  return Matrix::random_gaussian(n, b, rng);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k) {
  // splitmix64 over (seed, stream): well-separated streams per purpose.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + (k + 1) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double peak_rss_mb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

}  // namespace fdksbench
