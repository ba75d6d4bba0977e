// fdksbench_calibrate: the machine's reference rates, measured in a
// process of its own so that its arrays never count toward a workload's
// peak resident memory.
//
//   fdksbench_calibrate --threads T
//
// machine.fma_gflops  FMA peak: T threads, each streaming 12 independent
//                     4-wide fused multiply-add chains (AVX2+FMA where the
//                     CPU has them, else 2-wide SSE2 multiply + add).
// machine.triad_gbs   STREAM triad a = b + s c over T threads, counting 24
//                     bytes per element (write-allocate traffic not
//                     counted). Each array is at least 4x the L2 + L3
//                     capacity reported by sysconf.
//
// Prints one JSON line with both rates and the sizes used.
#include <immintrin.h>
#include <omp.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr int kChains = 12;

__attribute__((target("avx2,fma"))) double fma_loop_avx2(long iters,
                                                         double seed) {
  __m256d acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm256_set1_pd(seed + c);
  const __m256d a = _mm256_set1_pd(0.999999);
  const __m256d b = _mm256_set1_pd(1e-7);
  for (long i = 0; i < iters; ++i)
    for (int c = 0; c < kChains; ++c) acc[c] = _mm256_fmadd_pd(acc[c], a, b);
  double out[4];
  __m256d s = acc[0];
  for (int c = 1; c < kChains; ++c) s = _mm256_add_pd(s, acc[c]);
  _mm256_storeu_pd(out, s);
  return out[0] + out[1] + out[2] + out[3];
}

double fma_loop_sse2(long iters, double seed) {
  __m128d acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm_set1_pd(seed + c);
  const __m128d a = _mm_set1_pd(0.999999);
  const __m128d b = _mm_set1_pd(1e-7);
  for (long i = 0; i < iters; ++i)
    for (int c = 0; c < kChains; ++c)
      acc[c] = _mm_add_pd(_mm_mul_pd(acc[c], a), b);
  double out[2];
  __m128d s = acc[0];
  for (int c = 1; c < kChains; ++c) s = _mm_add_pd(s, acc[c]);
  _mm_storeu_pd(out, s);
  return out[0] + out[1];
}

/// Best-of-five FMA peak over `threads` threads, in GFLOP/s.
double fma_peak(int threads, bool avx2) {
  const long iters = 20'000'000;
  const double width = avx2 ? 4.0 : 2.0;
  double best = 0.0;
  double sink = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
#pragma omp parallel num_threads(threads) reduction(+ : sink)
    sink += avx2 ? fma_loop_avx2(iters, omp_get_thread_num())
                 : fma_loop_sse2(iters, omp_get_thread_num());
    const double dt = now_s() - t0;
    const double flops = 2.0 * width * kChains * static_cast<double>(iters) *
                         static_cast<double>(threads);
    best = std::max(best, flops / dt * 1e-9);
  }
  if (sink == 42.0) std::fprintf(stderr, "%g\n", sink);  // Keep the work.
  return best;
}

/// Best-of-five STREAM triad over `threads` threads, in GB/s.
double triad(int threads, std::size_t n) {
  std::vector<double> a(n), b(n), c(n);
#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  }
  const double s = 3.0;
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
#pragma omp parallel for num_threads(threads) schedule(static)
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
    const double dt = now_s() - t0;
    best = std::max(best, 24.0 * static_cast<double>(n) / dt * 1e-9);
  }
  if (a[n / 2] != 7.0) std::fprintf(stderr, "triad: wrong result\n");
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  int threads = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      errno = 0;
      char* end = nullptr;
      const long v = std::strtol(argv[++i], &end, 10);
      if (errno != 0 || end == argv[i] || *end != '\0' || v < 1 || v > 64) {
        std::fprintf(stderr, "fdksbench_calibrate: bad --threads\n");
        return 2;
      }
      threads = static_cast<int>(v);
    } else {
      std::fprintf(stderr, "usage: fdksbench_calibrate --threads T\n");
      return 2;
    }
  }

  const long cores = std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
  const long l2 = std::max(0L, sysconf(_SC_LEVEL2_CACHE_SIZE));
  const long l3 = std::max(0L, sysconf(_SC_LEVEL3_CACHE_SIZE));
  double cache_bytes = static_cast<double>(l2) * static_cast<double>(cores) +
                       static_cast<double>(l3);
  if (cache_bytes <= 0.0) cache_bytes = 113.0 * 1048576.0;  // Unreported.
  const std::size_t n =
      static_cast<std::size_t>(4.0 * cache_bytes / sizeof(double)) + 1;

  __builtin_cpu_init();
  const bool avx2 =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  const double gflops = fma_peak(threads, avx2);
  const double gbs = triad(threads, n);
  std::printf(
      "{\"machine.fma_gflops\": %.6f, \"machine.triad_gbs\": %.6f, "
      "\"threads\": %d, \"fma_isa\": \"%s\", \"cache_mib\": %.1f, "
      "\"triad_array_mib\": %.1f}\n",
      gflops, gbs, threads, avx2 ? "avx2+fma" : "sse2",
      cache_bytes / 1048576.0,
      static_cast<double>(n) * sizeof(double) / 1048576.0);
  return 0;
}
