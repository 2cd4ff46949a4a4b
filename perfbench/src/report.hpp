// Order statistics for the benchmark's reports.
//
// Timings are reported as a median plus the highest percentile that still
// has at least ten samples beyond its nearest rank, always with the sample
// count, so a p99 is only ever reported from >= 1000 samples.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples a percentile must leave beyond it to be reportable.
inline constexpr std::size_t kTailSamples = 10;

/// Nearest-rank position (1-based) of quantile `q` in (0, 1] over n samples.
inline std::size_t nearest_rank(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Samples strictly above the nearest-rank `q` percentile.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

/// True when `q` has at least kTailSamples samples beyond it.
inline bool percentile_supported(std::size_t n, double q) {
  return n > 0 && samples_beyond(n, q) >= kTailSamples;
}

/// Mid-quantile: linear interpolation of the distinct sample values against
/// their mid-distribution F(x-) + P(X = x)/2. Virtual latencies take few
/// distinct values (one per uncontended protocol path), so a nearest-rank
/// percentile jumps between them as the mix shifts by a sample; the
/// mid-quantile moves continuously with the mix. On distinct samples it is
/// the ordinary interpolated percentile. Precondition: !samples.empty().
inline double percentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  double below = 0;  // samples strictly below the current value
  double prev_value = samples.front();
  double prev_mid = -1;
  for (std::size_t i = 0; i < samples.size();) {
    std::size_t j = i;
    while (j < samples.size() && samples[j] == samples[i]) ++j;
    const double mid = (below + 0.5 * static_cast<double>(j - i)) / n;
    if (q <= mid) {
      if (prev_mid < 0) return samples[i];
      const double t = (q - prev_mid) / (mid - prev_mid);
      return prev_value + t * (samples[i] - prev_value);
    }
    below += static_cast<double>(j - i);
    prev_value = samples[i];
    prev_mid = mid;
    i = j;
  }
  return samples.back();
}

/// Median (mean of the middle pair for even counts). Precondition: non-empty.
inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Host time of one pass with the host's interference taken out. Every pass
/// of a seed does the same work, and its host-clock marks (start, a tick per
/// period of virtual time, end) cut it into the same segments; another
/// tenant's burst slows some segments of some passes. The estimate sums each
/// segment's fastest time over the passes, so a slowdown shows only when it
/// is in the work itself. Precondition: at least one pass, and every pass has
/// the same number of marks (at least two).
inline double fastest_segments(const std::vector<std::vector<double>>& passes) {
  double total = 0;
  for (std::size_t k = 1; k < passes.front().size(); ++k) {
    double fastest = passes.front()[k] - passes.front()[k - 1];
    for (const auto& marks : passes) fastest = std::min(fastest, marks[k] - marks[k - 1]);
    total += fastest;
  }
  return total;
}

/// p50 and p99 of one operation kind, with the sample count.
struct Tail {
  std::size_t n = 0;
  double p50 = 0;
  double p99 = 0;
  bool p99_supported = false;
};

inline Tail summarize(const std::vector<double>& samples) {
  Tail t;
  t.n = samples.size();
  if (t.n == 0) return t;
  t.p50 = percentile(samples, 0.50);
  t.p99 = percentile(samples, 0.99);
  t.p99_supported = percentile_supported(t.n, 0.99);
  return t;
}

}  // namespace perfbench
