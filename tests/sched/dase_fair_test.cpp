#include "sched/dase_fair.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "common/sim_error.hpp"
#include "kernels/app_registry.hpp"

namespace gpusim {
namespace {

TEST(InterpolationTest, IdentityAtAssignedCount) {
  EXPECT_DOUBLE_EQ(DaseFairPolicy::interpolate_reciprocal(0.5, 8, 8, 16),
                   0.5);
}

TEST(InterpolationTest, PaperWorkedExample) {
  // Paper Section VII: slowdown 2 on 8 of 16 SMs -> reciprocal 0.5; at 12
  // SMs the interpolated reciprocal is 0.5 + (12-8)/(16-8) * 0.5 = 0.75.
  EXPECT_DOUBLE_EQ(DaseFairPolicy::interpolate_reciprocal(0.5, 8, 12, 16),
                   0.75);
}

TEST(InterpolationTest, EndpointsReachOneAndZero) {
  EXPECT_DOUBLE_EQ(DaseFairPolicy::interpolate_reciprocal(0.5, 8, 16, 16),
                   1.0);
  EXPECT_DOUBLE_EQ(DaseFairPolicy::interpolate_reciprocal(0.5, 8, 0, 16),
                   0.0);
}

TEST(InterpolationTest, DownwardUsesEq30) {
  // Eq. 30: r - (8-4)/8 * r = r/2.
  EXPECT_DOUBLE_EQ(DaseFairPolicy::interpolate_reciprocal(0.6, 8, 4, 16),
                   0.3);
}

class InterpolationSweep : public ::testing::TestWithParam<double> {};

TEST_P(InterpolationSweep, MonotoneNondecreasingInSmCount) {
  const double r = GetParam();
  double prev = -1.0;
  for (int x = 0; x <= 16; ++x) {
    const double v = DaseFairPolicy::interpolate_reciprocal(r, 8, x, 16);
    EXPECT_GE(v, prev - 1e-12) << "x=" << x;
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    prev = v;
  }
}

INSTANTIATE_TEST_SUITE_P(Reciprocals, InterpolationSweep,
                         ::testing::Values(0.1, 0.25, 0.5, 0.8, 1.0));

TEST(SearchTest, BalancedAppsStayEven) {
  // Equal reciprocals: the even split is already optimal.
  const std::vector<double> r = {0.5, 0.5};
  const std::vector<int> assigned = {8, 8};
  double unf = 0.0;
  const auto best =
      DaseFairPolicy::search_best_split(r, assigned, 16, 1, &unf);
  EXPECT_EQ(best, (std::vector<int>{8, 8}));
  EXPECT_NEAR(unf, 1.0, 1e-9);
}

TEST(SearchTest, ShiftsSmsTowardTheSlowedApp) {
  // App 0 slowed 4x (r=0.25), app 1 slowed 1.33x (r=0.75): fairness
  // improves by giving app 0 more SMs.
  const std::vector<double> r = {0.25, 0.75};
  const std::vector<int> assigned = {8, 8};
  double unf = 0.0;
  const auto best =
      DaseFairPolicy::search_best_split(r, assigned, 16, 1, &unf);
  ASSERT_EQ(best.size(), 2u);
  EXPECT_GT(best[0], 8);
  EXPECT_LT(best[1], 8);
  EXPECT_EQ(best[0] + best[1], 16);
  EXPECT_LT(unf, 3.0) << "must improve on the even split's predicted 3.0";
}

TEST(SearchTest, RespectsMinimumSmsPerApp) {
  const std::vector<double> r = {0.05, 0.95};
  const std::vector<int> assigned = {8, 8};
  const auto best = DaseFairPolicy::search_best_split(r, assigned, 16, 2);
  EXPECT_GE(best[0], 2);
  EXPECT_GE(best[1], 2);
}

TEST(SearchTest, FourAppSplitSumsToTotal) {
  const std::vector<double> r = {0.3, 0.5, 0.7, 0.9};
  const std::vector<int> assigned = {4, 4, 4, 4};
  const auto best = DaseFairPolicy::search_best_split(r, assigned, 16, 1);
  ASSERT_EQ(best.size(), 4u);
  EXPECT_EQ(std::accumulate(best.begin(), best.end(), 0), 16);
  // Most slowed app (r=0.3) must not lose SMs relative to the least.
  EXPECT_GE(best[0], best[3]);
}

// Release-safe input checks: each bad input raises a typed SimError in
// every build type instead of reading out of bounds.

TEST(SearchTest, RejectsEmptyReciprocals) {
  try {
    DaseFairPolicy::search_best_split({}, {}, 16, 1);
    FAIL() << "searched a split over zero applications";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kInvariant) << e.what();
  }
}

TEST(SearchTest, RejectsReciprocalCountMismatch) {
  // Two reciprocals but one SM count: the search would read assigned[1].
  try {
    DaseFairPolicy::search_best_split({0.5, 0.5}, {8}, 16, 1);
    FAIL() << "searched with mismatched reciprocal and SM-count vectors";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kInvariant) << e.what();
  }
}

TEST(DaseFairPolicyTest, RejectsMissingModel) {
  try {
    DaseFairPolicy policy(nullptr);
    FAIL() << "constructed DASE-Fair without a model";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kHarness) << e.what();
  }
}

TEST(EligibilityTest, ShortOrSmallKernelsAreExcluded) {
  KernelProfile ok = *find_app("VA");
  EXPECT_TRUE(dase_fair_eligible(ok));

  KernelProfile few_blocks = ok;
  few_blocks.blocks_total = 8;
  EXPECT_FALSE(dase_fair_eligible(few_blocks));

  KernelProfile short_warps = ok;
  short_warps.instrs_per_warp = 100;
  EXPECT_FALSE(dase_fair_eligible(short_warps));
}

TEST(EligibilityTest, AllRegistryAppsAreEligible) {
  for (const auto& app : app_registry()) {
    EXPECT_TRUE(dase_fair_eligible(app)) << app.abbr;
  }
}

}  // namespace
}  // namespace gpusim
