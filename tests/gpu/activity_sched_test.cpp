// Activity-tracked cycle engine equivalence suite.
//
// The engine (gpu/gpu.hpp) is an execution strategy, not a model change:
// a run with it enabled must be bit-identical to the per-cycle loop in
// every piece of simulated state.  These tests sweep randomized configs —
// SM/partition counts, queue depths, crossbar accepts per cycle, retry
// knobs, random workload mixes — through the divergence auditor with the
// engine (plus fast-forward) on one side and both off on the other, and
// rotate through the hazardous scenarios: fault schedules (which pin the
// engine off mid-construction), mid-run repartitions (SM drains and
// handovers on the engine), snapshot/restore (synced-cursor reset on
// load), the MISE/ASM priority-epoch hook (priority flips between engine
// chunks) and the temporal policy's quantum hook (full-GPU drains, and
// quanta that end mid-drain).  Any hash mismatch names the component.
#include "gpu/simulator.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "baselines/priority_epochs.hpp"
#include "common/fault_injection.hpp"
#include "common/loop_profiler.hpp"
#include "common/rng.hpp"
#include "harness/divergence.hpp"
#include "kernels/app_registry.hpp"
#include "sched/policies.hpp"

namespace gpusim {
namespace {

struct RandomCase {
  GpuConfig cfg;
  std::vector<AppLaunch> launches;
  int num_apps = 0;
  Cycle cycles = 0;
  Cycle stride = 0;
  std::string fault_spec;  // empty = no faults
};

RandomCase make_case(u64 seed, bool with_faults) {
  Rng rng(seed);
  RandomCase c;
  c.cfg.num_sms = 8 + static_cast<int>(rng.next_below(9));        // 8..16
  c.cfg.num_partitions = 2 + static_cast<int>(rng.next_below(5));  // 2..6
  c.cfg.noc_queue_depth = 4 << rng.next_below(3);                  // 4/8/16
  c.cfg.partition_resp_queue_depth =
      64 << rng.next_below(3);                                     // 64..256
  c.cfg.mshr_retry_enabled = rng.next_bool(0.5);
  c.cfg.estimation_interval = 5'000 + 1'000 * rng.next_below(6);
  c.num_apps = 2 + static_cast<int>(rng.next_below(3));            // 2..4
  const auto& registry = app_registry();
  for (int i = 0; i < c.num_apps; ++i) {
    const KernelProfile& profile = registry[rng.next_below(registry.size())];
    c.launches.push_back(AppLaunch{profile, 100 + seed * 8 + i});
  }
  c.cycles = 30'000 + 5'000 * rng.next_below(7);                   // 30k..60k
  c.stride = 3'000 + 500 * rng.next_below(5);
  if (with_faults) {
    const u64 nth = 100 + rng.next_below(300);
    const u64 part = rng.next_below(c.cfg.num_partitions);
    const u64 from = 1'000 + rng.next_below(5'000);
    const u64 until = from + 2'000 + rng.next_below(6'000);
    c.fault_spec = "drop-resp:nth=" + std::to_string(nth) +
                   ";stall:part=" + std::to_string(part) +
                   ",from=" + std::to_string(from) +
                   ",until=" + std::to_string(until) +
                   ";seed=" + std::to_string(1 + rng.next_below(1000));
  }
  // Drawn last so the earlier draws keep describing the same cases.
  c.cfg.noc_accepts_per_cycle = 1 + static_cast<int>(rng.next_below(2));  // 1/2
  return c;
}

std::unique_ptr<Simulation> make_sim(const RandomCase& c, bool engine_on) {
  auto sim = std::make_unique<Simulation>(c.cfg, c.launches);
  sim->set_activity_sched(engine_on);
  sim->set_fast_forward(engine_on);
  sim->gpu().set_partition(even_partition(sim->gpu().num_sms(), c.num_apps));
  return sim;
}

void expect_equivalent_finals(Simulation& a, Simulation& b,
                              const RandomCase& c) {
  EXPECT_EQ(a.gpu().now(), b.gpu().now());
  EXPECT_EQ(a.state_hash(), b.state_hash());
  for (AppId app = 0; app < static_cast<AppId>(c.num_apps); ++app) {
    EXPECT_EQ(a.gpu().instructions().total(app),
              b.gpu().instructions().total(app))
        << "app " << static_cast<int>(app);
  }
}

/// One side's cycle hooks for the hooked scenarios; each run owns its own
/// copy, so the two sides' hook state evolves independently.
struct SideHooks {
  std::unique_ptr<PriorityEpochDriver> epochs;
  std::unique_ptr<TemporalPolicy> temporal;
};

SideHooks attach_hooks(Simulation& sim, const RandomCase& c, int scenario) {
  SideHooks h;
  if (scenario == 4) {
    h.epochs = std::make_unique<PriorityEpochDriver>(
        PriorityEpochDriver::with_defaults(c.cfg, c.num_apps));
    sim.add_cycle_hook(h.epochs.get());
  } else if (scenario == 5) {
    // Quanta of 2K-4K cycles are shorter than many drains, so some end
    // mid-drain and must fire on the cycle after the drain completes.
    h.temporal = std::make_unique<TemporalPolicy>(
        TemporalOptions{.quantum = c.stride - 1'000});
    sim.add_cycle_hook(h.temporal.get());
  }
  return h;
}

TEST(ActivitySchedTest, RandomConfigsAuditCleanEngineOnVsOff) {
  // Scenario rotation by index: 0 plain, 1 fault schedule, 2 mid-run
  // repartition, 3 snapshot/restore, 4 priority-epoch hook, 5 temporal
  // quantum hook — six configs per scenario.
  constexpr int kCases = 36;
  u64 temporal_switches = 0;  // some drains outlast a case; most do not
  for (int i = 0; i < kCases; ++i) {
    const int scenario = i % 6;
    SCOPED_TRACE("case " + std::to_string(i) + " scenario " +
                 std::to_string(scenario));
    RandomCase c = make_case(7'000 + i, scenario == 1);
    if (scenario == 2 || scenario == 5) {
      // Short warps, so drains finish within the run and the handovers
      // happen on the engine rather than after it.
      for (AppLaunch& l : c.launches) l.profile.instrs_per_warp = 40;
    }

    auto a = make_sim(c, /*engine_on=*/true);
    auto b = make_sim(c, /*engine_on=*/false);

    // Each side gets its own injector built from the same spec; identical
    // schedules and seeds inject identical faults.
    std::unique_ptr<FaultInjector> inj_a;
    std::unique_ptr<FaultInjector> inj_b;
    if (!c.fault_spec.empty()) {
      const FaultSchedule schedule = FaultSchedule::parse(c.fault_spec);
      inj_a = std::make_unique<FaultInjector>(schedule);
      inj_b = std::make_unique<FaultInjector>(schedule);
      a->gpu().set_fault_injector(inj_a.get());
      b->gpu().set_fault_injector(inj_b.get());
    }
    const SideHooks hooks_a = attach_hooks(*a, c, scenario);
    const SideHooks hooks_b = attach_hooks(*b, c, scenario);

    const Cycle half = c.cycles / 2;
    if (scenario == 2) {
      // Repartition mid-run: the engine must resync accruals and rebuild
      // its wake state when SM ownership changes under it.
      DivergenceReport first = audit_divergence(*a, *b, half, c.stride);
      ASSERT_FALSE(first.diverged) << first.to_string();
      std::vector<AppId> uneven = even_partition(c.cfg.num_sms, c.num_apps);
      uneven.front() = static_cast<AppId>(c.num_apps - 1);  // donate one SM
      a->gpu().set_partition(uneven);
      b->gpu().set_partition(uneven);
      DivergenceReport second =
          audit_divergence(*a, *b, c.cycles - half, c.stride);
      ASSERT_FALSE(second.diverged) << second.to_string();
      EXPECT_EQ(a->gpu().current_partition(), uneven) << "drain unfinished";
    } else if (scenario == 3) {
      // Snapshot the engine-on run mid-flight and restore it into a fresh
      // simulation; the restored run must stay in lockstep with the
      // never-interrupted engine-off run.
      DivergenceReport first = audit_divergence(*a, *b, half, c.stride);
      ASSERT_FALSE(first.diverged) << first.to_string();
      const std::vector<u8> bytes = a->snapshot();
      auto restored = make_sim(c, /*engine_on=*/true);
      restored->restore(bytes);
      DivergenceReport second =
          audit_divergence(*restored, *b, c.cycles - half, c.stride);
      ASSERT_FALSE(second.diverged) << second.to_string();
      expect_equivalent_finals(*restored, *b, c);
      continue;
    } else {
      DivergenceReport report = audit_divergence(*a, *b, c.cycles, c.stride);
      ASSERT_FALSE(report.diverged) << report.to_string();
    }
    if (hooks_a.temporal) {
      temporal_switches += hooks_a.temporal->switches();
      EXPECT_EQ(hooks_a.temporal->switches(), hooks_b.temporal->switches());
    }
    expect_equivalent_finals(*a, *b, c);
  }
  EXPECT_GT(temporal_switches, 0u);
}

TEST(ActivitySchedTest, HookEventsMatchPerCyclePolling) {
  // The engine-on/off audits run both sides through the same hook
  // scheduling, so they cannot see a hook fired late or early.  Here the
  // reference polls every hook before every cycle of a plain per-cycle
  // walk, firing whichever reports itself due — the per-cycle hook loop
  // run() used to have — while the other side runs run()'s event-bounded
  // chunks on the engine.  Every case switches fewer times than its quanta
  // would allow, so quanta end mid-drain and wait for the handover.
  for (int i = 0; i < 6; ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    RandomCase c = make_case(8'000 + i, /*with_faults=*/false);
    for (AppLaunch& l : c.launches) l.profile.instrs_per_warp = 40;
    c.cfg.estimation_interval = 1'000'000;  // no interval inside the run
    auto a = make_sim(c, /*engine_on=*/true);
    auto b = make_sim(c, /*engine_on=*/false);
    PriorityEpochDriver epochs_a(5'000, 250, c.num_apps);
    PriorityEpochDriver epochs_b(5'000, 250, c.num_apps);
    TemporalPolicy temporal_a(TemporalOptions{.quantum = c.stride - 1'000});
    TemporalPolicy temporal_b(TemporalOptions{.quantum = c.stride - 1'000});
    a->add_cycle_hook(&epochs_a);
    a->add_cycle_hook(&temporal_a);
    const std::vector<CycleHook*> hooks_b = {&epochs_b, &temporal_b};

    a->run(c.cycles);
    Gpu& gpu = b->gpu();
    while (gpu.now() < c.cycles) {
      for (CycleHook* hook : hooks_b) {
        if (hook->next_event_after(gpu.now(), gpu) == gpu.now()) {
          hook->fire(gpu.now(), gpu);
        }
      }
      gpu.cycle();
    }
    EXPECT_EQ(a->gpu().state_hash(), gpu.state_hash());
    EXPECT_EQ(temporal_a.switches(), temporal_b.switches());
    Hasher ha;
    Hasher hb;
    temporal_a.hash_state(ha);
    epochs_a.hash_state(ha);
    temporal_b.hash_state(hb);
    epochs_b.hash_state(hb);
    EXPECT_EQ(ha.digest(), hb.digest());
  }
}

TEST(ActivitySchedTest, EngineToggleMidRunResyncsExactly) {
  // Flipping the engine off and back on mid-run is a pure execution-strategy
  // change: the toggled run must match an engine-off run cycle for cycle.
  const RandomCase c = make_case(9'001, /*with_faults=*/false);
  auto a = make_sim(c, /*engine_on=*/true);
  auto b = make_sim(c, /*engine_on=*/false);
  const Cycle third = c.cycles / 3;
  DivergenceReport r1 = audit_divergence(*a, *b, third, c.stride);
  ASSERT_FALSE(r1.diverged) << r1.to_string();
  a->set_activity_sched(false);
  DivergenceReport r2 = audit_divergence(*a, *b, third, c.stride);
  ASSERT_FALSE(r2.diverged) << r2.to_string();
  a->set_activity_sched(true);
  DivergenceReport r3 = audit_divergence(*a, *b, third, c.stride);
  ASSERT_FALSE(r3.diverged) << r3.to_string();
  expect_equivalent_finals(*a, *b, c);
}

TEST(ActivitySchedTest, EngineOnRunActuallyFastForwards) {
  // Guard against the engine silently disabling itself: a finite tiny app
  // runs dry early, and the engine-on run must skip the dead tail.
  GpuConfig cfg;
  KernelProfile tiny = *find_app("CS");
  tiny.blocks_total = 64;
  Simulation sim(cfg, {AppLaunch{tiny, 7, /*restart_on_finish=*/false}});
  sim.set_activity_sched(true);
  sim.set_fast_forward(true);
  sim.gpu().set_partition(even_partition(cfg.num_sms, 1));
  sim.run(200'000);
  EXPECT_GT(sim.gpu().fast_forwarded_cycles(), 0u);
}

TEST(ActivitySchedTest, EngineStaysLiveUnderHooksAndDrains) {
  // Guard against the engine pinning itself off again under a hook or a
  // pending migration: a probe hook samples the GPU mid-run beside the
  // epoch driver, across a drained repartition, and the engine must be
  // active at every sample while visiting SMs less than every cycle.
  GpuConfig cfg;
  Simulation sim(cfg, {AppLaunch{*find_app("CT"), 3},
                       AppLaunch{*find_app("SD"), 4}});
  sim.gpu().set_partition(even_partition(cfg.num_sms, 2));
  PriorityEpochDriver epochs = PriorityEpochDriver::with_defaults(cfg, 2);
  struct Probe : CycleHook {
    int samples = 0;
    int inactive = 0;
    int mid_drain = 0;
    Cycle next_event_after(Cycle now, const Gpu&) const override {
      return (now + 99) / 100 * 100;
    }
    void fire(Cycle, Gpu& gpu) override {
      ++samples;
      if (!gpu.activity_engine_active()) ++inactive;
      if (gpu.migration_in_progress()) ++mid_drain;
    }
  } probe;
  sim.add_cycle_hook(&epochs);
  sim.add_cycle_hook(&probe);
  LoopProfiler prof;
  sim.set_loop_profiler(&prof);
  sim.run(20'000);
  std::vector<AppId> shifted = even_partition(cfg.num_sms, 2);
  for (int s = 0; s < 4; ++s) shifted[s] = 1;  // CT hands four SMs to SD
  sim.gpu().set_partition(shifted);
  ASSERT_TRUE(sim.gpu().migration_in_progress());
  sim.run(40'000);
  EXPECT_FALSE(sim.gpu().migration_in_progress());
  EXPECT_EQ(sim.gpu().current_partition(), shifted);
  EXPECT_EQ(probe.samples, 600);
  EXPECT_EQ(probe.inactive, 0);
  EXPECT_GT(probe.mid_drain, 0);
  EXPECT_LT(prof.visits(LoopProfiler::kSmAdvance),
            static_cast<u64>(cfg.num_sms) * 60'000);
}

}  // namespace
}  // namespace gpusim
