#include "metrics/metrics.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>

#include "common/sim_error.hpp"

namespace gpusim {
namespace {

template <typename Fn>
SimErrorKind error_kind_of(Fn&& fn) {
  try {
    fn();
  } catch (const SimError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "expected a SimError";
  return SimErrorKind::kHarness;
}

TEST(MetricsTest, UnfairnessMaxOverMin) {
  const std::array<double, 2> even = {2.0, 2.0};
  EXPECT_DOUBLE_EQ(unfairness(even), 1.0);
  const std::array<double, 2> paper = {3.44, 1.37};  // paper's SD+SA
  EXPECT_NEAR(unfairness(paper), 2.51, 0.01);
  const std::array<double, 4> quad = {1.0, 2.0, 3.0, 6.0};
  EXPECT_DOUBLE_EQ(unfairness(quad), 6.0);
}

TEST(MetricsTest, HarmonicSpeedupEq27) {
  // H.Speedup = N / sum(slowdowns).
  const std::array<double, 2> s = {2.0, 2.0};
  EXPECT_DOUBLE_EQ(harmonic_speedup(s), 0.5);
  const std::array<double, 2> one = {1.0, 1.0};
  EXPECT_DOUBLE_EQ(harmonic_speedup(one), 1.0);
  const std::array<double, 4> quad = {4.0, 4.0, 4.0, 4.0};
  EXPECT_DOUBLE_EQ(harmonic_speedup(quad), 0.25);
}

TEST(MetricsTest, EstimationErrorEq26) {
  EXPECT_DOUBLE_EQ(estimation_error(2.0, 2.0), 0.0);
  EXPECT_NEAR(estimation_error(2.2, 2.0), 0.1, 1e-12);
  EXPECT_NEAR(estimation_error(1.8, 2.0), 0.1, 1e-12) << "error is absolute";
  EXPECT_DOUBLE_EQ(estimation_error(1.0, 4.0), 0.75);
}

TEST(MetricsTest, MeanHandlesEmptyAndValues) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  const std::array<double, 3> v = {1.0, 2.0, 6.0};
  EXPECT_DOUBLE_EQ(mean(v), 3.0);
}

TEST(MetricsTest, MeanSkipsNonFiniteSamples) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // An all-NaN span has no usable samples and must behave like empty.
  const std::array<double, 3> all_nan = {kNaN, kNaN, kNaN};
  EXPECT_DOUBLE_EQ(mean(all_nan), 0.0);
  // Mixed spans average only the finite entries — the divisor must be the
  // finite count, not the span size.
  const std::array<double, 5> mixed = {kNaN, 2.0, kInf, 4.0, -kInf};
  EXPECT_DOUBLE_EQ(mean(mixed), 3.0);
  const std::array<double, 2> one_finite = {kNaN, 7.5};
  EXPECT_DOUBLE_EQ(mean(one_finite), 7.5);
}

TEST(MetricsTest, EstimationErrorUndefinedCasesReturnNaN) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // No baseline: a starved app measures actual == 0 (or garbage below it).
  EXPECT_TRUE(std::isnan(estimation_error(2.0, 0.0)));
  EXPECT_TRUE(std::isnan(estimation_error(2.0, -1.0)));
  // Non-finite inputs must not propagate into the error column.
  EXPECT_TRUE(std::isnan(estimation_error(kNaN, 2.0)));
  EXPECT_TRUE(std::isnan(estimation_error(2.0, kNaN)));
  EXPECT_TRUE(std::isnan(estimation_error(kInf, 2.0)));
  EXPECT_TRUE(std::isnan(estimation_error(2.0, kInf)));
  // Healthy inputs still produce a finite error.
  EXPECT_TRUE(std::isfinite(estimation_error(2.0, 1.5)));
}

TEST(MetricsTest, EstimationErrorNaNSkippedByMean) {
  // The intended composition: per-interval errors with holes (no baseline
  // yet) aggregate to the mean of the defined intervals only.
  const std::array<double, 3> errors = {
      estimation_error(2.2, 2.0),   // 0.1
      estimation_error(2.0, 0.0),   // NaN — skipped
      estimation_error(1.0, 4.0)};  // 0.75
  EXPECT_NEAR(mean(errors), (0.1 + 0.75) / 2.0, 1e-12);
}

TEST(MetricsTest, UnfairnessIsScaleInvariant) {
  const std::array<double, 3> a = {1.5, 2.0, 3.0};
  const std::array<double, 3> b = {3.0, 4.0, 6.0};
  EXPECT_DOUBLE_EQ(unfairness(a), unfairness(b));
}

// Failing inputs: these stay checked in optimized builds.

TEST(MetricsTest, UnfairnessOfEmptyListIsRejected) {
  EXPECT_EQ(error_kind_of([] { unfairness({}); }), SimErrorKind::kInvariant);
}

TEST(MetricsTest, UnfairnessOfNonPositiveSlowdownIsRejected) {
  const std::array<double, 2> s = {2.0, 0.0};
  EXPECT_EQ(error_kind_of([&] { unfairness(s); }), SimErrorKind::kInvariant);
}

TEST(MetricsTest, HarmonicSpeedupOfEmptyListIsRejected) {
  EXPECT_EQ(error_kind_of([] { harmonic_speedup({}); }),
            SimErrorKind::kInvariant);
}

TEST(MetricsTest, HarmonicSpeedupOfNonPositiveSlowdownIsRejected) {
  const std::array<double, 3> s = {1.5, -1.0, 2.0};
  EXPECT_EQ(error_kind_of([&] { harmonic_speedup(s); }),
            SimErrorKind::kInvariant);
}

}  // namespace
}  // namespace gpusim
