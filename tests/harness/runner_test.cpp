#include "harness/runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/sim_error.hpp"
#include "harness/sweep.hpp"
#include "kernels/app_registry.hpp"

namespace gpusim {
namespace {

RunConfig quick_config() {
  RunConfig rc;
  rc.co_run_cycles = 60'000;
  rc.gpu.estimation_interval = 20'000;
  return rc;
}

TEST(RunnerTest, CoRunProducesConsistentResult) {
  ExperimentRunner runner(quick_config());
  const Workload w{{*find_app("VA"), *find_app("SD")}};
  const CoRunResult r = runner.run(w, ModelSet{.dase = true});
  EXPECT_EQ(r.label, "VA+SD");
  EXPECT_EQ(r.cycles, 60'000u);
  ASSERT_EQ(r.apps.size(), 2u);
  for (const AppResult& a : r.apps) {
    EXPECT_GT(a.instructions, 0u);
    EXPECT_GT(a.ipc_shared, 0.0);
    EXPECT_GT(a.ipc_alone, 0.0);
    EXPECT_GT(a.actual_slowdown, 1.0) << "sharing must cost something";
    EXPECT_GT(a.estimates.at("DASE"), 0.9);
  }
  EXPECT_GE(r.unfairness, 1.0);
  EXPECT_GT(r.harmonic_speedup, 0.0);
  EXPECT_LE(r.harmonic_speedup, 1.0);
  // Bandwidth decomposition is a sane partition of capacity.
  double total = r.wasted_bw_share + r.idle_bw_share;
  for (double share : r.app_bw_share) {
    EXPECT_GE(share, 0.0);
    total += share;
  }
  EXPECT_NEAR(total, 1.0, 0.05);
}

TEST(RunnerTest, CustomSmSplitApplied) {
  ExperimentRunner runner(quick_config());
  const Workload w{{*find_app("VA"), *find_app("SA")}};
  const std::vector<int> split = {4, 12};
  const CoRunResult r4 =
      runner.run(w, ModelSet{.dase = true}, PolicyKind::kEven, &split);
  const CoRunResult r8 = runner.run(w, ModelSet{.dase = true});
  // With only 4 SMs, VA executes fewer instructions than with 8.
  EXPECT_LT(r4.apps[0].instructions, r8.apps[0].instructions);
  EXPECT_GT(r4.apps[1].instructions, r8.apps[1].instructions);
}

TEST(RunnerTest, AloneStatsAreCachedAndPlausible) {
  ExperimentRunner runner(quick_config());
  const KernelProfile va = *find_app("VA");
  const AloneStats& first = runner.alone_stats(va);
  EXPECT_GT(first.ipc, 0.0);
  EXPECT_GT(first.bw_util, 0.0);
  EXPECT_LT(first.bw_util, 1.0);
  const AloneStats& second = runner.alone_stats(va);
  EXPECT_EQ(&first, &second) << "same cached object";
}

TEST(RunnerTest, ExactReplayAndCachedIpcAgree) {
  // Our kernels are stationary, so the cheap cached-IPC mode must land
  // close to the exact-replay methodology (DESIGN.md Section 2).
  RunConfig rc = quick_config();
  rc.co_run_cycles = 100'000;
  const Workload w{{*find_app("VA"), *find_app("SA")}};

  rc.alone_mode = RunConfig::AloneMode::kExactReplay;
  ExperimentRunner exact(rc);
  const CoRunResult re = exact.run(w, ModelSet{});

  rc.alone_mode = RunConfig::AloneMode::kCachedIpc;
  ExperimentRunner cached(rc);
  const CoRunResult rc2 = cached.run(w, ModelSet{});

  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(re.apps[i].actual_slowdown, rc2.apps[i].actual_slowdown,
                re.apps[i].actual_slowdown * 0.08)
        << w.apps[i].abbr;
  }
}

TEST(RunnerTest, EpochModelsAttachWithoutDisturbingResult) {
  ExperimentRunner runner(quick_config());
  const Workload w{{*find_app("VA"), *find_app("SD")}};
  const CoRunResult r = runner.run(
      w, ModelSet{.dase = true, .mise = true, .asm_model = true});
  for (const AppResult& a : r.apps) {
    EXPECT_TRUE(a.estimates.contains("DASE"));
    EXPECT_TRUE(a.estimates.contains("MISE"));
    EXPECT_TRUE(a.estimates.contains("ASM"));
  }
}

TEST(RunnerTest, MeanErrorAggregatesPerApp) {
  ExperimentRunner runner(quick_config());
  const Workload w{{*find_app("CS"), *find_app("CT")}};
  const CoRunResult r = runner.run(w, ModelSet{.dase = true});
  double sum = 0.0;
  for (const AppResult& a : r.apps) sum += a.estimation_error_of("DASE");
  EXPECT_NEAR(r.mean_error_of("DASE"), sum / 2.0, 1e-12);
}

TEST(RunnerTest, MissingModelEstimateRaisesStructuredError) {
  AppResult app;
  app.abbr = "VA";
  app.actual_slowdown = 2.0;
  app.estimates["DASE"] = 1.8;
  try {
    app.estimation_error_of("MISE");
    FAIL() << "estimation_error_of accepted a model that never ran";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kHarness);
    const std::string what = e.what();
    EXPECT_NE(what.find("MISE"), std::string::npos);
    EXPECT_NE(what.find("DASE"), std::string::npos)
        << "message should list the models that are available";
    EXPECT_NE(what.find("VA"), std::string::npos);
  }
}

TEST(RunnerTest, OversubscribedSplitRaisesStructuredError) {
  ExperimentRunner runner(quick_config());
  const Workload w{{*find_app("VA"), *find_app("SD")}};
  const std::vector<int> split = {100, 100};
  EXPECT_THROW(runner.run(w, ModelSet{.dase = true}, PolicyKind::kEven,
                          &split),
               SimError);
}

TEST(RunnerTest, CyclesFromEnvParsesAndFallsBack) {
  ::setenv("GPUSIM_TEST_CYCLES", "12345", 1);
  EXPECT_EQ(cycles_from_env("GPUSIM_TEST_CYCLES", 5), 12345u);
  ::setenv("GPUSIM_TEST_CYCLES", "not-a-number", 1);
  EXPECT_EQ(cycles_from_env("GPUSIM_TEST_CYCLES", 5), 5u);
  ::unsetenv("GPUSIM_TEST_CYCLES");
  EXPECT_EQ(cycles_from_env("GPUSIM_TEST_CYCLES", 7), 7u);
}

// ---- Alone lane --------------------------------------------------------

RunConfig lane_config(RunConfig::AloneMode mode) {
  RunConfig rc;
  rc.co_run_cycles = 30'000;
  rc.gpu.estimation_interval = 10'000;
  rc.alone_mode = mode;
  return rc;
}

/// Pairs whose apps repeat across pairs.  The same-app pair comes first,
/// so both of its slots miss the cache in the same run().
std::vector<Workload> lane_workloads() {
  const KernelProfile va = *find_app("VA");
  const KernelProfile sd = *find_app("SD");
  const KernelProfile sa = *find_app("SA");
  return {Workload{{sd, sd}}, Workload{{va, sd}}, Workload{{sa, va}},
          Workload{{sd, sa}}};
}

/// Threads in this process, or -1 where /proc/self/task is unavailable.
int live_threads() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return -1;
  int n = 0;
  for (; it != std::filesystem::directory_iterator(); ++it) ++n;
  return n;
}

/// Waits (briefly) for the thread count to fall back to `baseline`: a
/// joined thread can linger in /proc for a moment after pthread_join.
bool threads_back_to(int baseline) {
  for (int i = 0; i < 200; ++i) {
    if (live_threads() <= baseline) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

class AloneLaneTest : public ::testing::TestWithParam<RunConfig::AloneMode> {};

TEST_P(AloneLaneTest, MatchesSeriallyWarmedBaselines) {
  const RunConfig rc = lane_config(GetParam());
  const std::vector<Workload> workloads = lane_workloads();

  ExperimentRunner warmed(rc);
  std::set<std::string> distinct;
  for (const Workload& w : workloads) {
    for (const KernelProfile& app : w.apps) {
      warmed.alone_stats(app);
      distinct.insert(app.abbr);
    }
  }
  ASSERT_EQ(warmed.alone_runs(), distinct.size());

  ExperimentRunner fresh(rc);
  const bool cached = GetParam() == RunConfig::AloneMode::kCachedIpc;
  for (const Workload& w : workloads) {
    const CoRunResult r = fresh.run(w, ModelSet{.dase = true});
    EXPECT_EQ(SweepRunner::to_json(r),
              SweepRunner::to_json(warmed.run(w, ModelSet{.dase = true})))
        << w.label();
    // Each slot's alone IPC equals its serial measurement, bit for bit.
    for (std::size_t i = 0; i < w.apps.size(); ++i) {
      const double serial =
          cached ? warmed.alone_stats(w.apps[i]).ipc
                 : static_cast<double>(r.apps[i].instructions) /
                       fresh.measure_alone_cycles(
                           w.apps[i],
                           harness_app_seed(rc.base_seed, static_cast<int>(i)),
                           r.apps[i].instructions);
      EXPECT_EQ(r.apps[i].ipc_alone, serial) << w.label() << " slot " << i;
    }
  }
  EXPECT_EQ(warmed.alone_runs(), distinct.size())
      << "a warmed cache must not be measured again";
  // Cached-IPC runs measure each distinct app once — SD once across
  // SD+SD, VA+SD and SD+SA; exact replays never touch the cache.
  EXPECT_EQ(fresh.alone_runs(), cached ? distinct.size() : 0u);
}

INSTANTIATE_TEST_SUITE_P(
    BothAloneModes, AloneLaneTest,
    ::testing::Values(RunConfig::AloneMode::kCachedIpc,
                      RunConfig::AloneMode::kExactReplay),
    [](const ::testing::TestParamInfo<RunConfig::AloneMode>& info) {
      return info.param == RunConfig::AloneMode::kCachedIpc
                 ? std::string("CachedIpc")
                 : std::string("ExactReplay");
    });

std::string failure_of(ExperimentRunner& runner, const Workload& w,
                       SimErrorKind expected) {
  try {
    runner.run(w, ModelSet{.dase = true});
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), expected) << e.what();
    return e.what();
  }
  ADD_FAILURE() << "run() did not throw";
  return "";
}

TEST(AloneLaneFailureTest, CoRunErrorWinsAndLeavesRunnerUsable) {
  RunConfig rc = lane_config(RunConfig::AloneMode::kCachedIpc);
  rc.cycle_budget = rc.co_run_cycles / 2;
  const Workload w{{*find_app("VA"), *find_app("SD")}};
  const int before = live_threads();

  ExperimentRunner runner(rc);
  const std::string first =
      failure_of(runner, w, SimErrorKind::kBudgetExceeded);
  if (before > 0) {
    EXPECT_TRUE(threads_back_to(before));
  }

  // The failed run leaves the runner as a fresh one would behave: the same
  // co-run error again, and baselines equal to an unbudgeted runner's
  // (budgets never apply to alone runs).
  ExperimentRunner fresh(rc);
  EXPECT_EQ(failure_of(runner, w, SimErrorKind::kBudgetExceeded),
            failure_of(fresh, w, SimErrorKind::kBudgetExceeded));
  EXPECT_EQ(first, failure_of(fresh, w, SimErrorKind::kBudgetExceeded));
  ExperimentRunner unbudgeted(lane_config(RunConfig::AloneMode::kCachedIpc));
  for (const KernelProfile& app : w.apps) {
    EXPECT_EQ(runner.alone_stats(app).ipc, unbudgeted.alone_stats(app).ipc)
        << app.abbr;
  }
}

TEST(AloneLaneFailureTest, EarlyCoRunFailureStopsTheLane) {
  // Long baselines beside a co-run its cycle budget kills almost at once.
  RunConfig rc = lane_config(RunConfig::AloneMode::kCachedIpc);
  rc.co_run_cycles = 300'000;
  rc.cycle_budget = 2'000;
  const Workload w{{*find_app("VA"), *find_app("SD")}};
  using Clock = std::chrono::steady_clock;

  // Reference, timed on this machine in this run: one of the two baselines
  // the lane would measure.
  ExperimentRunner reference(rc);
  const Clock::time_point t0 = Clock::now();
  reference.alone_stats(w.apps[1]);
  const Clock::duration one_baseline = Clock::now() - t0;

  // A lane that ignored the co-run's failure would hold run() for both
  // baselines; a stopped lane returns well inside one.
  ExperimentRunner runner(rc);
  const Clock::time_point t1 = Clock::now();
  failure_of(runner, w, SimErrorKind::kBudgetExceeded);
  const Clock::duration failed_after = Clock::now() - t1;
  EXPECT_LT(failed_after, one_baseline / 2)
      << "run() returned after "
      << std::chrono::duration<double>(failed_after).count()
      << " s; one baseline takes "
      << std::chrono::duration<double>(one_baseline).count() << " s";
  EXPECT_EQ(runner.alone_runs(), 0u);
}

TEST(AloneLaneFailureTest, SetCancelFlagInterruptsWithoutLeavingThreads) {
  for (const RunConfig::AloneMode mode :
       {RunConfig::AloneMode::kCachedIpc,
        RunConfig::AloneMode::kExactReplay}) {
    std::atomic<bool> cancel{true};
    RunConfig rc = lane_config(mode);
    rc.cancel = &cancel;
    const Workload w{{*find_app("SD"), *find_app("SA")}};
    const int before = live_threads();

    ExperimentRunner runner(rc);
    failure_of(runner, w, SimErrorKind::kInterrupted);
    if (before > 0) {
      EXPECT_TRUE(threads_back_to(before))
          << "run() left a thread behind: " << live_threads() << " live, "
          << before << " before";
    }

    // The lane's baselines honour the flag too (the co-run error wins, so
    // run() alone cannot show it): a synchronous baseline is interrupted.
    try {
      runner.alone_stats(w.apps[0]);
      ADD_FAILURE() << "an alone baseline ignored the cancel flag";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), SimErrorKind::kInterrupted) << e.what();
    }

    // Once the flag clears, the same runner reproduces a fresh result.
    cancel.store(false);
    ExperimentRunner fresh(rc);
    EXPECT_EQ(SweepRunner::to_json(runner.run(w, ModelSet{.dase = true})),
              SweepRunner::to_json(fresh.run(w, ModelSet{.dase = true})));
  }
}

TEST(AloneCacheTest, EditedProfileUnderCachedAbbrIsRejected) {
  ExperimentRunner runner(lane_config(RunConfig::AloneMode::kCachedIpc));
  const KernelProfile sb = *find_app("SB");
  KernelProfile hog = sb;
  hog.mem_fraction = sb.mem_fraction * 2.0;
  runner.alone_stats(sb);
  try {
    runner.alone_stats(hog);
    FAIL() << "an edited SB was served the unedited SB's baseline";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kHarness);
    const std::string what = e.what();
    EXPECT_NE(what.find("SB"), std::string::npos) << what;
    EXPECT_NE(what.find("mem_fraction"), std::string::npos) << what;
  }
  // run() checks before simulating anything, within one workload too.
  ExperimentRunner other(lane_config(RunConfig::AloneMode::kCachedIpc));
  EXPECT_THROW(other.run(Workload{{sb, hog}}, ModelSet{}), SimError);
  EXPECT_EQ(other.alone_runs(), 0u);
  EXPECT_THROW(runner.run(Workload{{hog, sb}}, ModelSet{}), SimError);
  EXPECT_EQ(runner.alone_runs(), 1u);
}

}  // namespace
}  // namespace gpusim
