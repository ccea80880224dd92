#include "gpu/simulator.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "kernels/app_registry.hpp"

namespace gpusim {
namespace {

struct RecordingObserver : IntervalObserver {
  std::vector<IntervalSample> samples;
  void on_interval(const IntervalSample& sample, Gpu&) override {
    samples.push_back(sample);
  }
};

/// Publishes an event every `period` cycles, offset by `phase`, and
/// records the cycles it fired at together with the GPU clock then.
struct PeriodicHook : CycleHook {
  PeriodicHook(Cycle period, Cycle phase) : period(period), phase(phase) {}
  Cycle period;
  Cycle phase;
  std::vector<Cycle> fired;
  std::vector<Cycle> gpu_now;
  Cycle next_event_after(Cycle now, const Gpu&) const override {
    if (now <= phase) return phase;
    return phase + ((now - phase + period - 1) / period) * period;
  }
  void fire(Cycle now, Gpu& gpu) override {
    fired.push_back(now);
    gpu_now.push_back(gpu.now());
  }
};

TEST(SimulatorTest, FiresIntervalsAtConfiguredLength) {
  GpuConfig cfg;
  cfg.estimation_interval = 10'000;
  Simulation sim(cfg, {AppLaunch{*find_app("VA"), 42}});
  sim.gpu().set_partition(even_partition(16, 1));
  RecordingObserver obs;
  sim.add_observer(&obs);
  sim.run(45'000);
  EXPECT_EQ(sim.intervals_completed(), 4u);
  ASSERT_EQ(obs.samples.size(), 4u);
  for (const auto& s : obs.samples) {
    EXPECT_EQ(s.length, 10'000u);
  }
  EXPECT_EQ(obs.samples[2].start, 20'000u);
}

TEST(SimulatorTest, CycleHooksFireExactlyAtPublishedCycles) {
  // Period 7,001 and phase 13 put events off every interval (5,000),
  // watchdog (1,024) and run() chunk boundary, and the uneven run() lengths
  // end calls mid-period and on an event cycle (14,015).  The hook must fire
  // once per published cycle, before that cycle simulates, on the engine.
  GpuConfig cfg;
  cfg.estimation_interval = 5'000;
  Simulation sim(cfg, {AppLaunch{*find_app("VA"), 42}});
  sim.gpu().set_partition(even_partition(16, 1));
  PeriodicHook hook(7'001, 13);
  sim.add_cycle_hook(&hook);
  for (Cycle len : {4'000u, 10'015u, 1u, 20'983u}) sim.run(len);
  const std::vector<Cycle> want = {13, 7'014, 14'015, 21'016, 28'017};
  EXPECT_EQ(hook.fired, want);
  EXPECT_EQ(hook.gpu_now, want);
  EXPECT_EQ(sim.intervals_completed(), 6u);
  EXPECT_TRUE(sim.gpu().activity_engine_active());
}

TEST(SimulatorTest, HookEventAtAnIntervalBoundaryFiresAfterTheObservers) {
  // An event on an interval boundary fires after that interval's
  // observers, as the observers fire at the end of the cycle before it.
  GpuConfig cfg;
  cfg.estimation_interval = 5'000;
  Simulation sim(cfg, {AppLaunch{*find_app("VA"), 42}});
  sim.gpu().set_partition(even_partition(16, 1));
  std::vector<std::string> log;
  struct Obs : IntervalObserver {
    std::vector<std::string>* log;
    void on_interval(const IntervalSample& s, Gpu&) override {
      log->push_back("interval@" + std::to_string(s.start + s.length));
    }
  } obs;
  obs.log = &log;
  struct Hook : PeriodicHook {
    std::vector<std::string>* log = nullptr;
    Hook() : PeriodicHook(10'000, 0) {}
    void fire(Cycle now, Gpu& gpu) override {
      PeriodicHook::fire(now, gpu);
      log->push_back("hook@" + std::to_string(now));
    }
  } hook;
  hook.log = &log;
  sim.add_observer(&obs);
  sim.add_cycle_hook(&hook);
  sim.run(12'000);
  EXPECT_EQ(log, (std::vector<std::string>{"hook@0", "interval@5000",
                                           "interval@10000", "hook@10000"}));
}

TEST(SimulatorTest, ObserversFireInRegistrationOrder) {
  GpuConfig cfg;
  cfg.estimation_interval = 5'000;
  Simulation sim(cfg, {AppLaunch{*find_app("VA"), 42}});
  sim.gpu().set_partition(even_partition(16, 1));
  std::vector<int> order;
  struct Tagger : IntervalObserver {
    Tagger(std::vector<int>* o, int t) : order(o), tag(t) {}
    std::vector<int>* order;
    int tag;
    void on_interval(const IntervalSample&, Gpu&) override {
      order->push_back(tag);
    }
  };
  Tagger a(&order, 1);
  Tagger b(&order, 2);
  sim.add_observer(&a);
  sim.add_observer(&b);
  sim.run(5'000);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimulatorTest, RunUntilInstructionsStopsAtTarget) {
  GpuConfig cfg;
  Simulation sim(cfg, {AppLaunch{*find_app("CS"), 42}});
  sim.gpu().set_partition(even_partition(16, 1));
  sim.run_until_instructions(0, 100'000, 1'000'000);
  EXPECT_GE(sim.gpu().instructions().total(0), 100'000u);
  EXPECT_LT(sim.gpu().now(), 200'000u) << "compute app reaches it quickly";
}

TEST(SimulatorTest, RunUntilInstructionsHonoursCycleCap) {
  GpuConfig cfg;
  Simulation sim(cfg, {AppLaunch{*find_app("SD"), 42}});
  sim.gpu().set_partition(even_partition(16, 1));
  sim.run_until_instructions(0, 1ull << 60, 20'000);
  EXPECT_EQ(sim.gpu().now(), 20'000u);
}

}  // namespace
}  // namespace gpusim
