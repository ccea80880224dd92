#include <gtest/gtest.h>

#include "baselines/asm_model.hpp"
#include "baselines/mise_model.hpp"
#include "baselines/priority_epochs.hpp"
#include "common/sim_error.hpp"
#include "kernels/app_registry.hpp"

namespace gpusim {
namespace {

class BaselinesTest : public ::testing::Test {
 protected:
  BaselinesTest() : gpu_(cfg_, {AppLaunch{*find_app("VA"), 1}}) {}

  /// Sample with priority-epoch measurements filled in.  Counter fields
  /// that sum across the 6 partitions are entered pre-multiplied.
  IntervalSample epoch_sample(double alpha, u64 prio_served, u64 prio_wall,
                              u64 norm_served, u64 norm_wall) {
    IntervalSample s;
    s.length = 50'000;
    s.total_sms = 16;
    s.count_apps = 2;
    s.nonpriority_cycles = norm_wall * 6;
    s.apps.resize(1);
    AppIntervalData& d = s.apps[0];
    d.app = 0;
    d.num_sms = 8;
    d.sm_cycles = 8 * 50'000;
    d.alpha = alpha;
    d.priority_served = prio_served;
    d.priority_cycles = prio_wall * 6;
    d.nonpriority_served = norm_served;
    d.requests_served = prio_served + norm_served;
    return s;
  }

  GpuConfig cfg_;
  Gpu gpu_;
};

TEST_F(BaselinesTest, MiseNonIntensiveUsesAlphaCorrection) {
  // ARSR = 500/2500 = 0.2; SRSR = 4000/40000 = 0.1; ratio 2.
  auto s = epoch_sample(0.5, 500, 2'500, 4'000, 40'000);
  MiseModel model({}, 0);
  model.on_interval(s, gpu_);
  ASSERT_TRUE(model.latest()[0].valid);
  EXPECT_FALSE(model.latest()[0].mbb);
  EXPECT_NEAR(model.latest()[0].slowdown_all, 1.0 - 0.5 + 0.5 * 2.0, 1e-9);
}

TEST_F(BaselinesTest, MiseMemoryBoundUsesPureRatio) {
  auto s = epoch_sample(0.9, 500, 2'500, 4'000, 40'000);
  MiseModel model({}, 0);
  model.on_interval(s, gpu_);
  EXPECT_TRUE(model.latest()[0].mbb);
  EXPECT_NEAR(model.latest()[0].slowdown_all, 2.0, 1e-9);
}

TEST_F(BaselinesTest, MiseRatioFloorsAtOne) {
  // Service rate *better* during normal operation than in epochs.
  auto s = epoch_sample(0.5, 100, 2'500, 8'000, 40'000);
  MiseModel model({}, 0);
  model.on_interval(s, gpu_);
  EXPECT_NEAR(model.latest()[0].slowdown_all, 1.0, 1e-9);
}

TEST_F(BaselinesTest, MiseInvalidWithoutEpochData) {
  auto s = epoch_sample(0.5, 0, 0, 4'000, 40'000);
  s.apps[0].priority_cycles = 0;
  MiseModel model({}, 0);
  model.on_interval(s, gpu_);
  EXPECT_FALSE(model.latest()[0].valid);
}

TEST_F(BaselinesTest, MiseComputeOnlyIntervalIsUnslowed) {
  auto s = epoch_sample(0.0, 0, 2'500, 0, 40'000);
  MiseModel model({}, 0);
  model.on_interval(s, gpu_);
  EXPECT_TRUE(model.latest()[0].valid);
  EXPECT_NEAR(model.latest()[0].slowdown_all, 1.0, 1e-9);
}

TEST_F(BaselinesTest, AsmUsesCacheAccessRates) {
  auto s = epoch_sample(0.5, 500, 2'500, 4'000, 40'000);
  AppIntervalData& d = s.apps[0];
  d.l2_accesses = 10'000;
  d.l2_accesses_priority = 1'000;     // CAR_alone = 0.4
  d.l2_accesses_nonpriority = 8'000;  // CAR_shared = 0.2
  AsmModel model({}, 0);
  model.on_interval(s, gpu_);
  EXPECT_NEAR(model.latest()[0].slowdown_all, 1.0 - 0.5 + 0.5 * 2.0, 1e-9);
}

TEST_F(BaselinesTest, AsmAtdCorrectionRaisesEstimate) {
  auto base = epoch_sample(0.5, 500, 2'500, 4'000, 40'000);
  base.apps[0].l2_accesses = 10'000;
  base.apps[0].l2_accesses_priority = 1'000;
  base.apps[0].l2_accesses_nonpriority = 8'000;

  auto contended = base;
  contended.apps[0].ellc_miss_scaled = 2'000;  // contention traffic

  AsmModel m1({}, 0);
  AsmModel m2({}, 0);
  m1.on_interval(base, gpu_);
  m2.on_interval(contended, gpu_);
  EXPECT_GT(m2.latest()[0].slowdown_all, m1.latest()[0].slowdown_all)
      << "discounting contention misses lowers CAR_shared -> higher ratio";
}

TEST_F(BaselinesTest, ModelsReportTheirNames) {
  EXPECT_EQ(MiseModel().name(), "MISE");
  EXPECT_EQ(AsmModel().name(), "ASM");
}

// ---------------------------------------------------------------------------
// Priority-epoch driver
// ---------------------------------------------------------------------------

TEST_F(BaselinesTest, EpochDriverSchedule) {
  // interval 1000, epoch 100, 2 apps: cycles [800, 900) -> app 0,
  // [900, 1000) -> app 1, otherwise no priority.
  GpuConfig cfg;
  Gpu gpu(cfg, {AppLaunch{*find_app("VA"), 1}, AppLaunch{*find_app("SA"), 2}});
  PriorityEpochDriver driver(1000, 100, 2);
  auto prio_at = [&](Cycle now) {
    driver.fire(now, gpu);
    return gpu.partition(0).mc().priority_app();
  };
  EXPECT_EQ(prio_at(0), kInvalidApp);
  EXPECT_EQ(prio_at(500), kInvalidApp);
  EXPECT_EQ(prio_at(800), 0);
  EXPECT_EQ(prio_at(899), 0);
  EXPECT_EQ(prio_at(900), 1);
  EXPECT_EQ(prio_at(999), 1);
  EXPECT_EQ(prio_at(1000), kInvalidApp) << "next window restarts cleanly";
  EXPECT_EQ(prio_at(1800), 0);
}

TEST_F(BaselinesTest, EpochDriverAppliesToAllPartitions) {
  GpuConfig cfg;
  Gpu gpu(cfg, {AppLaunch{*find_app("VA"), 1}, AppLaunch{*find_app("SA"), 2}});
  PriorityEpochDriver driver(1000, 100, 2);
  driver.fire(850, gpu);
  for (int p = 0; p < gpu.num_partitions(); ++p) {
    EXPECT_EQ(gpu.partition(p).mc().priority_app(), 0);
  }
}

TEST_F(BaselinesTest, EpochDriverPublishesEveryPriorityChange) {
  // interval 1000, epoch 100, 2 apps: the priority changes at 800, 900 and
  // 1000 of every window, and at `now` itself when the driver is out of
  // step with the schedule (first use, or a restore).
  GpuConfig cfg;
  Gpu gpu(cfg, {AppLaunch{*find_app("VA"), 1}, AppLaunch{*find_app("SA"), 2}});
  PriorityEpochDriver driver(1000, 100, 2);
  EXPECT_EQ(driver.next_event_after(0, gpu), 800u);
  EXPECT_EQ(driver.next_event_after(850, gpu), 850u) << "out of step";
  driver.fire(850, gpu);
  EXPECT_EQ(driver.next_event_after(850, gpu), 900u);
  EXPECT_EQ(driver.next_event_after(851, gpu), 900u);
  driver.fire(900, gpu);
  EXPECT_EQ(driver.next_event_after(901, gpu), 1000u);
  driver.fire(1000, gpu);
  EXPECT_EQ(driver.next_event_after(1000, gpu), 1800u);
  EXPECT_EQ(driver.next_event_after(1799, gpu), 1800u);
}

TEST_F(BaselinesTest, EpochDriverDefaultsLeaveMeasurementRegion) {
  GpuConfig cfg;
  auto driver = PriorityEpochDriver::with_defaults(cfg, 4);
  // 4 epochs of interval/20 leave 80% of the interval priority-free;
  // construction would throw otherwise.
  SUCCEED();
}

TEST_F(BaselinesTest, EpochDriverRejectsZeroApps) {
  try {
    PriorityEpochDriver driver(1000, 100, 0);
    FAIL() << "built an epoch schedule for no applications";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kConfig) << e.what();
  }
}

TEST_F(BaselinesTest, EpochDriverRejectsEpochsFillingTheInterval) {
  // 2 apps x 500 cycles = the whole 1000-cycle interval: no no-priority
  // region would remain to measure the shared service rate in.
  try {
    PriorityEpochDriver driver(1000, 500, 2);
    FAIL() << "built an epoch schedule with no measurement region";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kConfig) << e.what();
  }
}

}  // namespace
}  // namespace gpusim
