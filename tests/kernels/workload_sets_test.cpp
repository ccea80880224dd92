#include "kernels/workload_sets.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/sim_error.hpp"

namespace gpusim {
namespace {

TEST(WorkloadSetsTest, AllPairsCountIsChoose15Two) {
  const auto pairs = all_two_app_workloads();
  EXPECT_EQ(pairs.size(), 105u);  // C(15, 2)
  std::set<std::string> labels;
  for (const auto& w : pairs) {
    ASSERT_EQ(w.apps.size(), 2u);
    EXPECT_NE(w.apps[0].abbr, w.apps[1].abbr);
    EXPECT_TRUE(labels.insert(w.label()).second) << w.label();
  }
}

TEST(WorkloadSetsTest, LabelJoinsAbbreviations) {
  const auto pairs = all_two_app_workloads();
  EXPECT_EQ(pairs.front().label(), "BS+AA");
}

TEST(WorkloadSetsTest, RandomQuadsAreDistinctAndDeterministic) {
  const auto a = random_four_app_workloads(30, 99);
  const auto b = random_four_app_workloads(30, 99);
  ASSERT_EQ(a.size(), 30u);
  std::set<std::string> labels;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].apps.size(), 4u);
    EXPECT_EQ(a[i].label(), b[i].label()) << "determinism";
    // Apps within one quad are distinct.
    std::set<std::string> abbrs;
    for (const auto& app : a[i].apps) {
      EXPECT_TRUE(abbrs.insert(app.abbr).second);
    }
    // Quads are distinct as sets.
    std::vector<std::string> sorted;
    for (const auto& app : a[i].apps) sorted.push_back(app.abbr);
    std::sort(sorted.begin(), sorted.end());
    std::string key;
    for (const auto& s : sorted) key += s + "+";
    EXPECT_TRUE(labels.insert(key).second) << key;
  }
}

TEST(WorkloadSetsTest, DifferentSeedsGiveDifferentQuads) {
  const auto a = random_four_app_workloads(10, 1);
  const auto b = random_four_app_workloads(10, 2);
  int same = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    same += a[i].label() == b[i].label() ? 1 : 0;
  }
  EXPECT_LT(same, 5);
}

TEST(WorkloadSetsTest, MotivationSetContainsPaperPair) {
  const auto set = motivation_workloads();
  EXPECT_EQ(set.size(), 5u);
  // The paper's Fig. 2 fourth bar is SD+SA with unfairness 2.51.
  EXPECT_EQ(set[3].label(), "SD+SA");
  for (const auto& w : set) EXPECT_EQ(w.apps.size(), 2u);
}

TEST(WorkloadSetsTest, RandomPairsDistinctAndBounded) {
  const auto pairs = random_two_app_workloads(30, 7);
  EXPECT_EQ(pairs.size(), 30u);
  std::set<std::string> labels;
  for (const auto& w : pairs) {
    EXPECT_TRUE(labels.insert(w.label()).second);
  }
  // Requesting more than C(15,2) caps at 105.
  EXPECT_EQ(random_two_app_workloads(1000, 7).size(), 105u);
}

TEST(WorkloadSetsTest, MoreQuadsThanExistAreRejected) {
  // C(15, 4) = 1365 distinct quads; asking for one more used to loop forever.
  EXPECT_EQ(random_four_app_workloads(1365, 3).size(), 1365u);
  try {
    random_four_app_workloads(1366, 3);
    ADD_FAILURE() << "expected a SimError";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kConfig) << e.what();
  }
}

}  // namespace
}  // namespace gpusim
