#include "sched/policies.hpp"

#include <gtest/gtest.h>

#include "harness/runner.hpp"
#include "kernels/app_registry.hpp"

namespace gpusim {
namespace {

TEST(LeftoverTest, FullGridFirstAppTakesEverything) {
  const auto alloc = LeftoverPolicy::allocation(16, {16, 16});
  EXPECT_EQ(std::count(alloc.begin(), alloc.end(), 0), 16);
  EXPECT_EQ(std::count(alloc.begin(), alloc.end(), 1), 0);
}

TEST(LeftoverTest, SmallFirstGridLeavesRoom) {
  const auto alloc = LeftoverPolicy::allocation(16, {6, 16});
  EXPECT_EQ(std::count(alloc.begin(), alloc.end(), 0), 6);
  EXPECT_EQ(std::count(alloc.begin(), alloc.end(), 1), 10);
}

TEST(LeftoverTest, UnfilledSmsStayIdle) {
  const auto alloc = LeftoverPolicy::allocation(16, {4, 3});
  EXPECT_EQ(std::count(alloc.begin(), alloc.end(), 0), 4);
  EXPECT_EQ(std::count(alloc.begin(), alloc.end(), 1), 3);
  EXPECT_EQ(std::count(alloc.begin(), alloc.end(), kInvalidApp), 9);
}

TEST(LeftoverTest, StarvesSecondAppEndToEnd) {
  // The paper's Section II argument against LEFTOVER: a full-GPU grid
  // prevents any later application from ever running.
  RunConfig rc;
  rc.co_run_cycles = 60'000;
  rc.alone_mode = RunConfig::AloneMode::kCachedIpc;
  ExperimentRunner runner(rc);
  const Workload w{{*find_app("AA"), *find_app("SD")}};
  const CoRunResult r = runner.run(w, ModelSet{}, PolicyKind::kLeftover);
  EXPECT_GT(r.apps[0].instructions, 0u);
  EXPECT_EQ(r.apps[1].instructions, 0u);
  EXPECT_GE(r.unfairness, 1e5);
}

TEST(TemporalTest, AlternatesFullGpuOwnership) {
  GpuConfig cfg;
  Gpu gpu(cfg, {AppLaunch{*find_app("CT"), 42},
                AppLaunch{*find_app("QR"), 43}});
  TemporalPolicy policy(TemporalOptions{.quantum = 20'000});
  // Drive manually, polling the hook every cycle, so we can observe
  // ownership between quanta.
  auto step = [&] {
    if (policy.next_event_after(gpu.now(), gpu) == gpu.now()) {
      policy.fire(gpu.now(), gpu);
    }
    gpu.cycle();
  };
  for (Cycle c = 0; c < 15'000; ++c) step();
  EXPECT_EQ(gpu.sms_assigned(0), 16);
  EXPECT_EQ(gpu.sms_assigned(1), 0);
  // Run past the quantum; compute kernels drain within a block lifetime.
  for (Cycle c = 0; c < 250'000; ++c) step();
  EXPECT_GE(policy.switches(), 1u);
  EXPECT_GT(gpu.instructions().total(1), 0u)
      << "the second app must get its turn";
}

TEST(TemporalTest, BothAppsProgressViaRunner) {
  RunConfig rc;
  rc.co_run_cycles = 400'000;
  rc.temporal.quantum = 60'000;
  rc.alone_mode = RunConfig::AloneMode::kCachedIpc;
  ExperimentRunner runner(rc);
  const Workload w{{*find_app("CT"), *find_app("QR")}};
  const CoRunResult r = runner.run(w, ModelSet{}, PolicyKind::kTemporal);
  EXPECT_GT(r.apps[0].instructions, 0u);
  EXPECT_GT(r.apps[1].instructions, 0u);
  EXPECT_GE(r.repartitions, 2u);
}

TEST(QosTest, GrowsQosAppUntilTargetMet) {
  // SD's slowdown on an even split is far above 2.0; the controller must
  // move SMs toward it and its measured slowdown must drop.
  RunConfig rc;
  rc.co_run_cycles = 1'000'000;
  rc.alone_mode = RunConfig::AloneMode::kCachedIpc;
  rc.qos.qos_app = 1;  // SD in the workload below
  rc.qos.target_slowdown = 2.5;
  ExperimentRunner runner(rc);
  const Workload w{{*find_app("AA"), *find_app("SD")}};
  const CoRunResult even = runner.run(w, ModelSet{.dase = true});
  const CoRunResult qos =
      runner.run(w, ModelSet{.dase = true}, PolicyKind::kDaseQos);
  EXPECT_GT(qos.repartitions, 0u);
  EXPECT_LT(qos.apps[1].actual_slowdown, even.apps[1].actual_slowdown)
      << "the QoS app must speed up at the co-runner's expense";
}

TEST(QosTest, RespectsMinimumShareForOthers) {
  GpuConfig cfg;
  Gpu gpu(cfg, {AppLaunch{*find_app("AA"), 42},
                AppLaunch{*find_app("SD"), 43}});
  gpu.set_partition(even_partition(16, 2));
  DaseModel model({}, 0);
  DaseQosPolicy policy(&model,
                       DaseQosOptions{.qos_app = 0,
                                      .target_slowdown = 1.0,  // insatiable
                                      .warmup_intervals = 0,
                                      .min_sms_per_app = 2});
  Simulation sim_unused(cfg, {AppLaunch{*find_app("AA"), 1}});
  // Feed synthetic intervals claiming a huge slowdown; the policy may only
  // grow app 0 until app 1 holds its minimum 2 SMs.
  for (int round = 0; round < 40; ++round) {
    gpu.run(2'000);
    if (gpu.migration_in_progress()) continue;
    IntervalSample s = gpu.end_interval();
    model.on_interval(s, gpu);
    policy.on_interval(s, gpu);
  }
  // Let any final drain settle.
  Cycle waited = 0;
  while (gpu.migration_in_progress() && waited < 3'000'000) {
    gpu.run(5'000);
    waited += 5'000;
  }
  EXPECT_GE(gpu.sms_assigned(1), 2);
  EXPECT_LE(gpu.sms_assigned(0), 14);
}

// Release-safe input checks: each bad input raises a typed SimError in
// every build type.

TEST(QosTest, RejectsMissingModel) {
  try {
    DaseQosPolicy policy(nullptr, DaseQosOptions{});
    FAIL() << "constructed DASE-QoS without a model";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kHarness) << e.what();
  }
}

TEST(QosTest, RejectsTargetSlowdownBelowOne) {
  DaseModel model({}, 0);
  try {
    DaseQosPolicy policy(&model, DaseQosOptions{.target_slowdown = 0.5});
    FAIL() << "accepted a target slowdown no application can undercut";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kConfig) << e.what();
  }
}

TEST(QosTest, RejectsQosAppOutsideTheCoRun) {
  GpuConfig cfg;
  Gpu gpu(cfg, {AppLaunch{*find_app("AA"), 42},
                AppLaunch{*find_app("SD"), 43}});
  gpu.set_partition(even_partition(16, 2));
  gpu.run(1'000);
  ASSERT_FALSE(gpu.migration_in_progress());
  DaseModel model({}, 0);
  DaseQosPolicy policy(&model, DaseQosOptions{.qos_app = 2,
                                              .warmup_intervals = 0});
  const IntervalSample s = gpu.end_interval();
  try {
    policy.on_interval(s, gpu);
    FAIL() << "indexed estimates with a QoS app the co-run does not have";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kConfig) << e.what();
  }
}

}  // namespace
}  // namespace gpusim
