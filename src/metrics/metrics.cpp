#include "metrics/metrics.hpp"

#include <algorithm>
#include <limits>

#include "common/sim_error.hpp"

namespace gpusim {

namespace {

void check_not_empty(std::span<const double> slowdowns, const char* metric) {
  SIM_CHECK(!slowdowns.empty(),
            SimError(SimErrorKind::kInvariant, "metrics",
                     "fairness metric of an empty slowdown list")
                .detail("metric", metric));
}

void check_positive(double slowdown, const char* metric) {
  SIM_CHECK(slowdown > 0.0, SimError(SimErrorKind::kInvariant, "metrics",
                                     "slowdown must be positive")
                                .detail("metric", metric)
                                .detail("slowdown", slowdown));
}

}  // namespace

double unfairness(std::span<const double> slowdowns) {
  check_not_empty(slowdowns, "unfairness");
  const auto [lo, hi] =
      std::minmax_element(slowdowns.begin(), slowdowns.end());
  check_positive(*lo, "unfairness");
  return *hi / *lo;
}

double harmonic_speedup(std::span<const double> slowdowns) {
  check_not_empty(slowdowns, "harmonic_speedup");
  double sum = 0.0;
  for (double s : slowdowns) {
    check_positive(s, "harmonic_speedup");
    sum += s;
  }
  return static_cast<double>(slowdowns.size()) / sum;
}

double estimation_error(double estimated, double actual) {
  if (!std::isfinite(estimated) || !std::isfinite(actual) || actual <= 0.0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return std::abs(estimated - actual) / actual;
}

double mean(std::span<const double> values) {
  double sum = 0.0;
  std::size_t n = 0;
  for (double v : values) {
    if (!std::isfinite(v)) continue;
    sum += v;
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

}  // namespace gpusim
