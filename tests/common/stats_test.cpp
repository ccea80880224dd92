#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

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

TEST(PerAppCounterTest, TotalsAccumulate) {
  PerAppCounter c;
  c.add(0);
  c.add(0, 4);
  c.add(2, 10);
  EXPECT_EQ(c.total(0), 5u);
  EXPECT_EQ(c.total(1), 0u);
  EXPECT_EQ(c.total(2), 10u);
  EXPECT_EQ(c.grand_total(), 15u);
}

TEST(PerAppCounterTest, IntervalSemantics) {
  PerAppCounter c;
  c.add(1, 7);
  EXPECT_EQ(c.interval(1), 7u);
  c.snapshot();
  EXPECT_EQ(c.interval(1), 0u);
  EXPECT_EQ(c.total(1), 7u);
  c.add(1, 3);
  EXPECT_EQ(c.interval(1), 3u);
  EXPECT_EQ(c.total(1), 10u);
  EXPECT_EQ(c.grand_interval(), 3u);
}

TEST(PerAppCounterTest, ResetClearsEverything) {
  PerAppCounter c;
  c.add(0, 5);
  c.snapshot();
  c.add(0, 2);
  c.reset();
  EXPECT_EQ(c.total(0), 0u);
  EXPECT_EQ(c.interval(0), 0u);
}

TEST(RunningMeanTest, MeanOfSamples) {
  RunningMean m;
  EXPECT_DOUBLE_EQ(m.mean(), 0.0);
  m.add(2.0);
  m.add(4.0);
  m.add(6.0);
  EXPECT_EQ(m.count(), 3u);
  EXPECT_DOUBLE_EQ(m.mean(), 4.0);
}

TEST(HistogramTest, BucketsAndOverflow) {
  Histogram h(0.1, 5);  // [0, 0.5) + overflow
  h.add(0.05);
  h.add(0.15);
  h.add(0.15);
  h.add(0.7);  // overflow
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 2u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_DOUBLE_EQ(h.fraction(1), 0.5);
}

TEST(HistogramTest, FractionBelowEdge) {
  Histogram h(0.1, 10);
  for (double v : {0.01, 0.05, 0.11, 0.25, 0.95}) h.add(v);
  EXPECT_DOUBLE_EQ(h.fraction_below(0.1), 2.0 / 5);
  EXPECT_DOUBLE_EQ(h.fraction_below(0.2), 3.0 / 5);
  EXPECT_DOUBLE_EQ(h.fraction_below(0.3), 4.0 / 5);
}

TEST(HistogramTest, ValueExactlyOnEdgeGoesToUpperBucket) {
  Histogram h(0.1, 5);
  h.add(0.1);
  EXPECT_EQ(h.count(0), 0u);
  EXPECT_EQ(h.count(1), 1u);
}

TEST(HistogramTest, EmptyHistogramFractions) {
  Histogram h(0.1, 5);
  EXPECT_DOUBLE_EQ(h.fraction(0), 0.0);
  EXPECT_DOUBLE_EQ(h.fraction_below(0.3), 0.0);
}

// Failing inputs: these stay checked in optimized builds.

TEST(PerAppCounterTest, OutOfRangeAppIndexIsRejected) {
  PerAppCounter c;
  EXPECT_EQ(error_kind_of([&] { c.add(kMaxApps); }), SimErrorKind::kInvariant);
  EXPECT_EQ(error_kind_of([&] { c.add(kInvalidApp); }),
            SimErrorKind::kInvariant);
  EXPECT_EQ(c.grand_total(), 0u) << "a rejected add must not write";
}

TEST(HistogramTest, NonPositiveGeometryIsRejected) {
  EXPECT_EQ(error_kind_of([] { Histogram h(0.0, 5); }),
            SimErrorKind::kConfig);
  EXPECT_EQ(error_kind_of([] { Histogram h(0.1, 0); }),
            SimErrorKind::kConfig);
}

TEST(HistogramTest, NegativeOrNanSampleIsRejected) {
  Histogram h(0.1, 5);
  EXPECT_EQ(error_kind_of([&] { h.add(-0.5); }), SimErrorKind::kInvariant);
  EXPECT_EQ(error_kind_of([&] { h.add(std::nan("")); }),
            SimErrorKind::kInvariant);
  EXPECT_EQ(h.total(), 0u);
}

}  // namespace
}  // namespace gpusim
