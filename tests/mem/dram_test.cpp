#include "mem/dram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace gpusim {
namespace {

/// Runs the controller until `count` requests complete or `max` cycles pass;
/// returns the completion cycles in order.
std::vector<Cycle> run_until_complete(MemoryController& mc, Cycle start,
                                      int count, Cycle max = 100000) {
  std::vector<Cycle> completions;
  std::vector<DramCmd> done;
  for (Cycle now = start; now < start + max; ++now) {
    done.clear();
    mc.cycle(now, done);
    for (std::size_t i = 0; i < done.size(); ++i) completions.push_back(now);
    if (static_cast<int>(completions.size()) >= count) break;
  }
  return completions;
}

DramCmd cmd(AppId app, int bank, u64 row, Cycle enq = 0) {
  DramCmd c;
  c.app = app;
  c.bank = bank;
  c.row = row;
  c.enqueued = enq;
  return c;
}

TEST(DramTest, ClosedBankTimingIsActivatePlusCasPlusBurst) {
  GpuConfig cfg;
  MemoryController mc(cfg, 1);
  ASSERT_TRUE(mc.try_enqueue(cmd(0, 3, 7)));
  const auto completions = run_until_complete(mc, 0, 1);
  ASSERT_EQ(completions.size(), 1u);
  // Issue at cycle 0, tRCD(18) prep, +1 cycle prep-retire, tCL(18) lead,
  // tBurst(6): completes within a small window of the sum.
  const Cycle expected = cfg.t_rcd() + cfg.t_cl() + cfg.t_burst();
  EXPECT_GE(completions[0], expected);
  EXPECT_LE(completions[0], expected + 4);
}

TEST(DramTest, RowHitFasterThanRowMiss) {
  GpuConfig cfg;
  MemoryController mc(cfg, 1);
  mc.try_enqueue(cmd(0, 0, 5));
  auto first = run_until_complete(mc, 0, 1);
  ASSERT_EQ(first.size(), 1u);
  const Cycle t0 = first[0];

  // Row hit: same bank, same row.
  mc.try_enqueue(cmd(0, 0, 5, t0 + 1));
  auto hit = run_until_complete(mc, t0 + 1, 1);
  const Cycle hit_latency = hit[0] - (t0 + 1);

  // Row miss: same bank, other row (needs PRE + ACT).
  mc.try_enqueue(cmd(0, 0, 9, hit[0] + 1));
  auto miss = run_until_complete(mc, hit[0] + 1, 1);
  const Cycle miss_latency = miss[0] - (hit[0] + 1);

  EXPECT_LT(hit_latency, miss_latency);
  EXPECT_GE(miss_latency - hit_latency, cfg.t_rp());
  EXPECT_EQ(mc.counters().row_hits.total(0), 1u);
  EXPECT_EQ(mc.counters().row_misses.total(0), 2u);
}

TEST(DramTest, FrFcfsPrefersRowHitOverOlderMiss) {
  GpuConfig cfg;
  MemoryController mc(cfg, 2);
  // Open row 5 on bank 0.
  mc.try_enqueue(cmd(0, 0, 5));
  run_until_complete(mc, 0, 1);

  // Older request: app 1, row miss on bank 0.  Newer: app 0 row hit.
  mc.try_enqueue(cmd(1, 0, 9, 1000));
  mc.try_enqueue(cmd(0, 0, 5, 1001));
  std::vector<DramCmd> done;
  std::vector<AppId> order;
  for (Cycle now = 1002; now < 2000 && order.size() < 2; ++now) {
    done.clear();
    mc.cycle(now, done);
    for (const auto& d : done) order.push_back(d.app);
  }
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0) << "row hit must be served first";
  EXPECT_EQ(order[1], 1);
}

TEST(DramTest, PriorityAppWinsTheIssueSlot) {
  // Both requests target the same bank (service serialises), the
  // non-priority one is older: with a priority app set, its request must
  // be issued — and therefore served — first.
  GpuConfig cfg;
  MemoryController mc(cfg, 2);
  mc.set_priority_app(1);
  mc.try_enqueue(cmd(0, 0, 5, 0));  // older, non-priority
  mc.try_enqueue(cmd(1, 0, 9, 1));  // newer, priority app
  std::vector<DramCmd> done;
  std::vector<AppId> order;
  for (Cycle now = 2; now < 3000 && order.size() < 2; ++now) {
    done.clear();
    mc.cycle(now, done);
    for (const auto& d : done) order.push_back(d.app);
  }
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1) << "priority request issued first";
  EXPECT_EQ(mc.counters().priority_served.total(1), 1u);
}

TEST(DramTest, QueueCapacityEnforced) {
  GpuConfig cfg;
  cfg.dram_queue_capacity = 4;
  MemoryController mc(cfg, 1);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(mc.try_enqueue(cmd(0, i, 1)));
  }
  EXPECT_TRUE(mc.queue_full());
  EXPECT_FALSE(mc.try_enqueue(cmd(0, 5, 1)));
  EXPECT_EQ(mc.total_outstanding(), 4);
}

TEST(DramTest, ExtraRowBufferMissDetection) {
  GpuConfig cfg;
  MemoryController mc(cfg, 2);
  // App 0 opens row 5 in bank 0; app 1 then opens row 9 in bank 0 (closing
  // app 0's row); app 0 returns to row 5 -> one ERBMiss for app 0 (Eq. 10).
  mc.try_enqueue(cmd(0, 0, 5));
  run_until_complete(mc, 0, 1);
  mc.try_enqueue(cmd(1, 0, 9, 500));
  run_until_complete(mc, 500, 1);
  mc.try_enqueue(cmd(0, 0, 5, 1500));
  run_until_complete(mc, 1500, 1);
  EXPECT_EQ(mc.counters().erb_miss.total(0), 1u);
  EXPECT_EQ(mc.counters().erb_miss.total(1), 0u);
}

TEST(DramTest, NoErbMissWhenOwnStreamChangesRows) {
  GpuConfig cfg;
  MemoryController mc(cfg, 1);
  // The same app walking different rows is not interference.
  for (u64 row = 0; row < 5; ++row) {
    mc.try_enqueue(cmd(0, 0, row, row * 500));
    run_until_complete(mc, row * 500, 1);
  }
  EXPECT_EQ(mc.counters().erb_miss.total(0), 0u);
}

TEST(DramTest, SaturatedThroughputMatchesEfficiencyCap) {
  // At saturation, useful throughput depends on the row-miss ratio: a
  // row hit occupies the bus for t_burst + gap; a row miss additionally
  // pays the miss bubble.  Sequential traffic approaches the hit cap,
  // random traffic the miss cap.
  GpuConfig cfg;
  Rng rng(3);
  const Cycle cycles = 50000;
  auto saturate = [&](bool sequential) {
    MemoryController mc(cfg, 1);
    u64 served = 0;
    u64 seq = 0;
    std::vector<DramCmd> done;
    for (Cycle now = 0; now < cycles; ++now) {
      while (!mc.queue_full()) {
        if (sequential) {
          const u64 line = seq++;
          mc.try_enqueue(
              cmd(0, static_cast<int>((line / 16) % 16), line / 256, now));
        } else {
          mc.try_enqueue(cmd(0, static_cast<int>(rng.next_below(16)),
                             rng.next_below(1 << 20), now));
        }
      }
      done.clear();
      mc.cycle(now, done);
      served += done.size();
    }
    return served;
  };
  const double hit_cap = static_cast<double>(cycles) /
                         (cfg.t_burst() + cfg.t_bus_gap());
  const double miss_cap =
      static_cast<double>(cycles) /
      (cfg.t_burst() + cfg.t_bus_gap() + cfg.t_miss_bubble());
  const u64 seq_served = saturate(true);
  const u64 rnd_served = saturate(false);
  EXPECT_GT(seq_served, hit_cap * 0.90);
  EXPECT_LE(seq_served, hit_cap * 1.01);
  EXPECT_GT(rnd_served, miss_cap * 0.92);
  EXPECT_LE(rnd_served, miss_cap * 1.01);
}

TEST(DramTest, BandwidthDecompositionCoversAllCycles) {
  GpuConfig cfg;
  MemoryController mc(cfg, 2);
  Rng rng(5);
  std::vector<DramCmd> done;
  const Cycle cycles = 30000;
  for (Cycle now = 0; now < cycles; ++now) {
    if (rng.next_bool(0.05)) {
      mc.try_enqueue(cmd(static_cast<AppId>(rng.next_below(2)),
                         static_cast<int>(rng.next_below(16)),
                         rng.next_below(1024), now));
    }
    done.clear();
    mc.cycle(now, done);
  }
  const McCounters& c = mc.counters();
  const u64 accounted = c.bus_data_cycles.grand_total() +
                        c.wasted_cycles.total() + c.idle_cycles.total();
  // Lump accounting can run slightly ahead/behind at the edges.
  EXPECT_NEAR(static_cast<double>(accounted), static_cast<double>(cycles),
              cycles * 0.02);
}

TEST(DramTest, BlpCountersTrackOutstandingWork) {
  GpuConfig cfg;
  MemoryController mc(cfg, 2);
  // Four banks' worth of requests for app 0, nothing for app 1.
  for (int b = 0; b < 4; ++b) mc.try_enqueue(cmd(0, b, 1));
  std::vector<DramCmd> done;
  for (Cycle now = 0; now < 10; ++now) {
    done.clear();
    mc.cycle(now, done);
  }
  const McCounters& c = mc.counters();
  EXPECT_GT(c.blp_time.total(0), 0u);
  EXPECT_EQ(c.blp_time.total(1), 0u);
  EXPECT_GT(c.blp_occupancy_int.total(0), c.blp_access_int.total(0))
      << "queued-but-not-executing banks count toward BLP only";
  // Average BLP over the window is at most the bank count.
  EXPECT_LE(c.blp_occupancy_int.total(0),
            c.blp_time.total(0) * static_cast<u64>(cfg.banks_per_mc));
}

TEST(DramTest, ServiceTimeAccumulatesPerApp) {
  GpuConfig cfg;
  MemoryController mc(cfg, 2);
  mc.try_enqueue(cmd(0, 0, 1));
  mc.try_enqueue(cmd(1, 8, 2));
  run_until_complete(mc, 0, 2);
  EXPECT_EQ(mc.counters().requests_served.total(0), 1u);
  EXPECT_EQ(mc.counters().requests_served.total(1), 1u);
  EXPECT_GT(mc.counters().bank_service_time.total(0), 0u);
  EXPECT_GT(mc.counters().bank_service_time.total(1), 0u);
}

TEST(DramTest, OutstandingReturnsToZeroAfterDrain) {
  GpuConfig cfg;
  MemoryController mc(cfg, 1);
  for (int i = 0; i < 10; ++i) {
    mc.try_enqueue(cmd(0, i % 16, i));
  }
  run_until_complete(mc, 0, 10);
  EXPECT_EQ(mc.total_outstanding(), 0);
  EXPECT_EQ(mc.queue_size(), 0);
  EXPECT_EQ(mc.bus_ready_size(), 0);
  EXPECT_EQ(mc.inflight_size(), 0);
  EXPECT_EQ(mc.preparing_banks(), 0);
}

class DramLocalitySweepTest : public ::testing::TestWithParam<double> {};

TEST_P(DramLocalitySweepTest, MoreLocalityNeverHurtsServiceRate) {
  // Property: raising the fraction of row-hit traffic cannot reduce served
  // throughput at fixed offered load.
  const double hit_fraction = GetParam();
  GpuConfig cfg;
  MemoryController mc(cfg, 1);
  Rng rng(9);
  u64 served = 0;
  u64 seq = 0;
  std::vector<DramCmd> done;
  const Cycle cycles = 40000;
  for (Cycle now = 0; now < cycles; ++now) {
    if (rng.next_bool(0.2) && !mc.queue_full()) {
      DramCmd c;
      c.app = 0;
      c.enqueued = now;
      if (rng.next_bool(hit_fraction)) {
        const u64 line = seq++;
        c.bank = static_cast<int>((line / 16) % 16);
        c.row = line / 256;
      } else {
        c.bank = static_cast<int>(rng.next_below(16));
        c.row = rng.next_below(1 << 20);
      }
      mc.try_enqueue(c);
    }
    done.clear();
    mc.cycle(now, done);
    served += done.size();
  }
  // At 0.2 req/cycle offered the system saturates; throughput must match
  // the locality-dependent efficiency cap: one request per
  // (t_burst + gap + miss_bubble * miss_fraction) cycles.
  const double per_req = (cfg.t_burst() + cfg.t_bus_gap()) +
                         cfg.t_miss_bubble() * (1.0 - hit_fraction);
  const double cap = static_cast<double>(cycles) / per_req;
  EXPECT_GT(served, cap * 0.80);
  EXPECT_LE(served, cap * 1.05);
}

INSTANTIATE_TEST_SUITE_P(HitFractions, DramLocalitySweepTest,
                         ::testing::Values(0.0, 0.3, 0.6, 0.9, 1.0));

// --- Bookkeeping audit ------------------------------------------------------
//
// The controller keeps a preparing-bank mask (walked by finish_preps and
// next_prep_done, and intersected with the queued-bank masks to skip an
// FR-FCFS scan that cannot pick anything).  These cases drive it through
// each path and re-derive the masks from the banks and the queue after
// every cycle.

struct AuditedTraffic {
  int num_apps = 1;
  double enqueue_p = 0.3;
  double hit_p = 0.5;           ///< chance a request reuses its bank's row
  Cycle priority_period = 0;    ///< 0 = no priority epochs
  Cycle cycles = 20'000;
};

struct AuditedStats {
  int max_committed = 0;  ///< peak preparing banks + bus-ready accesses
  int max_preparing = 0;
  u64 served = 0;
};

AuditedStats run_audited(MemoryController& mc, const GpuConfig& cfg,
                         const AuditedTraffic& t, u64 seed) {
  Rng rng(seed);
  std::vector<u64> row_of(cfg.banks_per_mc, 0);
  std::vector<DramCmd> done;
  AuditedStats stats;
  for (Cycle now = 0; now < t.cycles; ++now) {
    if (t.priority_period > 0 && now % t.priority_period == 0) {
      // Rotate none -> app 0 -> app 1 -> ... -> none.
      const Cycle epoch = now / t.priority_period % (t.num_apps + 1);
      mc.set_priority_app(epoch == 0 ? kInvalidApp
                                     : static_cast<AppId>(epoch - 1));
    }
    while (!mc.queue_full() && rng.next_bool(t.enqueue_p)) {
      const int bank = static_cast<int>(rng.next_below(cfg.banks_per_mc));
      if (!rng.next_bool(t.hit_p)) row_of[bank] = rng.next_below(64);
      mc.try_enqueue(cmd(static_cast<AppId>(rng.next_below(t.num_apps)), bank,
                         row_of[bank], now));
    }
    done.clear();
    mc.cycle(now, done);
    stats.served += done.size();
    stats.max_committed = std::max(
        stats.max_committed, mc.preparing_banks() + mc.bus_ready_size());
    stats.max_preparing = std::max(stats.max_preparing, mc.preparing_banks());
    const std::string audit = mc.audit_bookkeeping();
    if (!audit.empty()) {
      ADD_FAILURE() << "cycle " << now << ": " << audit;
      return stats;
    }
  }
  return stats;
}

TEST(DramAuditTest, RowHitsAndMisses) {
  GpuConfig cfg;
  MemoryController mc(cfg, 1);
  const AuditedStats stats =
      run_audited(mc, cfg, AuditedTraffic{.enqueue_p = 0.1}, 11);
  EXPECT_GT(stats.served, 0u);
  EXPECT_GT(mc.counters().row_hits.total(0), 0u);
  EXPECT_GT(mc.counters().row_misses.total(0), 0u);
}

TEST(DramAuditTest, FullCommittedPipeline) {
  // Saturating, mostly-missing traffic keeps the committed stages (bank
  // preps + bus-ready accesses) at their cap with a backlog queued behind.
  GpuConfig cfg;
  MemoryController mc(cfg, 2);
  const AuditedStats stats = run_audited(
      mc, cfg, AuditedTraffic{.num_apps = 2, .enqueue_p = 0.9, .hit_p = 0.1},
      12);
  EXPECT_EQ(stats.max_committed, 8);
  EXPECT_GT(stats.max_preparing, 1);
  EXPECT_TRUE(mc.queue_full());
}

TEST(DramAuditTest, PriorityEpochs) {
  GpuConfig cfg;
  MemoryController mc(cfg, 3);
  run_audited(mc, cfg,
              AuditedTraffic{.num_apps = 3,
                             .enqueue_p = 0.6,
                             .hit_p = 0.4,
                             .priority_period = 700},
              13);
  for (AppId a = 0; a < 3; ++a) {
    EXPECT_GT(mc.counters().priority_served.total(a), 0u) << "app " << a;
  }
  EXPECT_GT(mc.counters().nonpriority_served.grand_total(), 0u);
}

TEST(DramAuditTest, ThirtyTwoBanks) {
  // Every bit of the 32-bit bank masks in use, including bit 31.
  GpuConfig cfg;
  cfg.banks_per_mc = 32;
  MemoryController mc(cfg, 2);
  const AuditedStats stats = run_audited(
      mc, cfg, AuditedTraffic{.num_apps = 2, .enqueue_p = 0.5, .hit_p = 0.3},
      14);
  EXPECT_GT(stats.served, 0u);
  EXPECT_GT(stats.max_preparing, 1);
}

TEST(DramAuditTest, QueuedRequestWaitsWhileItsBankPrepares) {
  // The only queued request targets a preparing bank: no FR-FCFS
  // candidate exists, so it stays queued until the prep finishes.
  GpuConfig cfg;
  MemoryController mc(cfg, 1);
  std::vector<DramCmd> done;
  mc.try_enqueue(cmd(0, 4, 1));
  mc.cycle(0, done);
  ASSERT_EQ(mc.preparing_banks(), 1);
  mc.try_enqueue(cmd(0, 4, 2, 1));
  Cycle issued_at = 0;
  for (Cycle now = 1; issued_at == 0 && now < 1'000; ++now) {
    mc.cycle(now, done);
    ASSERT_EQ(mc.audit_bookkeeping(), "");
    if (mc.queue_size() == 0) issued_at = now;
  }
  // The first prep finishes at cycle tRCD, which frees the bank for the
  // second request's precharge + activate in the same cycle.
  EXPECT_EQ(issued_at, cfg.t_rcd());
  EXPECT_EQ(mc.preparing_banks(), 1);
}

TEST(DramAuditTest, RequestToAFreeBankIssuesPastOnesToPreparingBanks) {
  // App 0's only queued request waits on preparing bank 0; app 1's targets
  // free bank 5 and must issue — with no priority app (candidate banks are
  // the union over apps) and with app 1 holding priority (its own banks).
  for (const AppId priority : {kInvalidApp, AppId{1}}) {
    SCOPED_TRACE("priority app " + std::to_string(priority));
    GpuConfig cfg;
    MemoryController mc(cfg, 2);
    mc.set_priority_app(priority);
    std::vector<DramCmd> done;
    mc.try_enqueue(cmd(0, 0, 1));
    mc.cycle(0, done);
    ASSERT_EQ(mc.preparing_banks(), 1);
    mc.try_enqueue(cmd(0, 0, 2, 1));
    mc.try_enqueue(cmd(1, 5, 1, 1));
    mc.cycle(1, done);
    EXPECT_EQ(mc.audit_bookkeeping(), "");
    EXPECT_EQ(mc.preparing_banks(), 2) << "bank 5 must start its prep";
    EXPECT_EQ(mc.queue_size(), 1);
  }
}

TEST(DramAuditTest, LoadRejectsPreparingCountThatDisagreesWithBankFlags) {
  GpuConfig cfg;
  MemoryController mc(cfg, 2);
  run_audited(mc, cfg,
              AuditedTraffic{.num_apps = 2, .enqueue_p = 0.5, .cycles = 3'000},
              15);
  StateWriter w;
  mc.save(w);
  std::vector<u8> bytes = w.bytes();
  // Layout: "DRAM" tag, one record per bank, then the preparing count.
  StateReader peek(bytes);
  peek.expect_tag("DRAM");
  for (int b = 0; b < cfg.banks_per_mc; ++b) {
    peek.get_bool();
    peek.get_u64();
    peek.get_bool();
    DramCmd pending;
    read_item(peek, pending);
    peek.get_u64();
    peek.get_u64();
  }
  const std::size_t count_at = bytes.size() - peek.remaining();
  const i32 count = peek.get_i32();
  // Wrong but in range, so only the cross-check against the flags fails.
  bytes[count_at] = static_cast<u8>(count > 0 ? count - 1 : count + 1);

  {
    // The unmodified bytes load cleanly.
    MemoryController ok(cfg, 2);
    StateReader r(w.bytes());
    ok.load(r);
    EXPECT_EQ(ok.audit_bookkeeping(), "");
  }
  MemoryController restored(cfg, 2);
  StateReader r(bytes);
  try {
    restored.load(r);
    FAIL() << "loaded a preparing-bank count that no bank flag backs";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kSnapshot) << e.what();
  }
}

}  // namespace
}  // namespace gpusim
