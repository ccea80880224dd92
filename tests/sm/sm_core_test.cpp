#include "sm/sm_core.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "common/simstate.hpp"
#include "gpu/app_runtime.hpp"

namespace gpusim {
namespace {

KernelProfile compute_profile() {
  KernelProfile p;
  p.name = "compute";
  p.abbr = "CP";
  p.mem_fraction = 0.0001;  // essentially pure compute
  p.txns_per_mem_instr = 1;
  p.seq_locality = 1.0;
  p.working_set_bytes = 16 << 20;
  p.warps_per_block = 4;
  p.instrs_per_warp = 200;
  p.blocks_total = 1000;
  return p;
}

KernelProfile memory_profile() {
  KernelProfile p = compute_profile();
  p.abbr = "MM";
  p.mem_fraction = 0.5;
  return p;
}

KernelProfile l1_hot_profile() {
  KernelProfile p = memory_profile();
  p.abbr = "HT";
  p.hot_fraction = 0.999;
  p.hot_set_bytes = 128;  // a single line: everything hits after one fill
  return p;
}

/// Stand-in memory system for one SM: answers every request a fixed
/// latency after the SM sends it, and checks the SM's maintained warp
/// bookkeeping against the warp states after every cycle.
class AuditedLoop {
 public:
  explicit AuditedLoop(SmCore* sm, Cycle latency = 40)
      : sm_(sm), latency_(latency) {}

  /// Continues `other`'s in-flight responses and clock on another core
  /// (the restored copy of a snapshotted one).
  AuditedLoop(SmCore* sm, const AuditedLoop& other)
      : sm_(sm), latency_(other.latency_), now_(other.now_),
        max_warp_seen_(other.max_warp_seen_), inflight_(other.inflight_) {}

  void run(Cycle cycles) {
    for (const Cycle end = now_ + cycles; now_ < end; ++now_) {
      step();
      ASSERT_EQ(sm_->audit_bookkeeping(), "") << "cycle " << now_;
    }
  }

  /// Runs until the core is drained; false if that takes over `limit`.
  bool run_until_drained(Cycle limit) {
    for (const Cycle end = now_ + limit; now_ < end; ++now_) {
      if (sm_->drained()) return true;
      step();
      EXPECT_EQ(sm_->audit_bookkeeping(), "") << "cycle " << now_;
    }
    return sm_->drained();
  }

  Cycle now() const { return now_; }
  /// Highest warp index that has sent a memory request.
  WarpId max_warp_seen() const { return max_warp_seen_; }

 private:
  void step() {
    while (!inflight_.empty() && inflight_.front().first <= now_) {
      sm_->receive(inflight_.front().second);
      inflight_.pop_front();
    }
    sm_->cycle(now_);
    while (!sm_->out_queue().empty()) {
      const MemRequestPacket pkt = sm_->out_queue().pop();
      max_warp_seen_ = std::max(max_warp_seen_, pkt.warp);
      MemResponsePacket resp;
      resp.line_addr = pkt.line_addr;
      resp.app = pkt.app;
      resp.sm = pkt.sm;
      resp.warp = pkt.warp;
      inflight_.emplace_back(now_ + latency_, resp);
    }
  }

  SmCore* sm_;
  Cycle latency_;
  Cycle now_ = 0;
  WarpId max_warp_seen_ = -1;
  std::deque<std::pair<Cycle, MemResponsePacket>> inflight_;
};

class SmCoreTest : public ::testing::Test {
 protected:
  GpuConfig cfg_;
  AddressMap map_{cfg_};
};

TEST_F(SmCoreTest, UnassignedSmIdles) {
  SmCore sm(cfg_, 0, map_);
  EXPECT_FALSE(sm.assigned());
  for (Cycle c = 0; c < 100; ++c) sm.cycle(c);
  EXPECT_EQ(sm.counters().instructions.total(), 0u);
  EXPECT_EQ(sm.counters().idle_cycles.total(), 100u);
  EXPECT_TRUE(sm.drained());
}

TEST_F(SmCoreTest, ComputeKernelIssuesEveryCycle) {
  AppRuntime rt(compute_profile(), 0, 42);
  SmCore sm(cfg_, 0, map_);
  sm.assign(&rt);
  EXPECT_EQ(sm.app(), 0);
  for (Cycle c = 0; c < 1000; ++c) sm.cycle(c);
  // IPC ~1 modulo rare memory instructions.
  EXPECT_GT(sm.counters().instructions.total(), 980u);
}

TEST_F(SmCoreTest, OccupancyRespectsWarpAndBlockLimits) {
  KernelProfile p = compute_profile();
  p.warps_per_block = 10;
  AppRuntime rt(p, 0, 42);
  SmCore sm(cfg_, 0, map_);
  sm.assign(&rt);
  // 48 warp contexts / 10 per block = 4 blocks (max_blocks_per_sm is 8).
  EXPECT_EQ(sm.active_blocks(), 4);
  EXPECT_EQ(sm.live_warps(), 40);
}

TEST_F(SmCoreTest, ProfileOccupancyCapHonoured) {
  KernelProfile p = compute_profile();
  p.warps_per_block = 4;
  p.max_concurrent_blocks = 2;
  AppRuntime rt(p, 0, 42);
  SmCore sm(cfg_, 0, map_);
  sm.assign(&rt);
  EXPECT_EQ(sm.active_blocks(), 2);
  EXPECT_EQ(sm.live_warps(), 8);
}

TEST_F(SmCoreTest, BlocksCompleteAndRefill) {
  KernelProfile p = compute_profile();
  p.instrs_per_warp = 50;
  AppRuntime rt(p, 0, 42);
  SmCore sm(cfg_, 0, map_);
  sm.assign(&rt);
  for (Cycle c = 0; c < 5000; ++c) sm.cycle(c);
  EXPECT_GT(rt.blocks_completed(), 10u);
  EXPECT_GT(sm.active_blocks(), 0) << "refill keeps the SM occupied";
}

TEST_F(SmCoreTest, MemoryInstructionsEmitRequests) {
  AppRuntime rt(memory_profile(), 0, 42);
  SmCore sm(cfg_, 0, map_);
  sm.assign(&rt);
  int packets = 0;
  for (Cycle c = 0; c < 500; ++c) {
    sm.cycle(c);
    while (!sm.out_queue().empty()) {
      const MemRequestPacket pkt = sm.out_queue().pop();
      EXPECT_EQ(pkt.app, 0);
      EXPECT_EQ(pkt.sm, 0);
      EXPECT_GE(pkt.dest, 0);
      EXPECT_LT(pkt.dest, cfg_.num_partitions);
      ++packets;
    }
  }
  EXPECT_GT(packets, 0);
  EXPECT_GT(sm.counters().mem_instructions.total(), 0u);
}

TEST_F(SmCoreTest, WarpsBlockUntilResponses) {
  KernelProfile p = memory_profile();
  p.warps_per_block = 2;
  p.max_concurrent_blocks = 1;
  AppRuntime rt(p, 0, 42);
  SmCore sm(cfg_, 0, map_);
  sm.assign(&rt);
  // Run without delivering responses: all warps end up waiting on memory,
  // and the SM records memory-stall cycles (the alpha numerator).
  std::vector<MemRequestPacket> pending;
  for (Cycle c = 0; c < 2000; ++c) {
    sm.cycle(c);
    while (!sm.out_queue().empty()) pending.push_back(sm.out_queue().pop());
  }
  EXPECT_GT(sm.counters().mem_stall_cycles.total(), 1500u);
  const u64 instrs_stalled = sm.counters().instructions.total();

  // Deliver everything; the warps resume.
  Cycle now = 2000;
  for (const auto& pkt : pending) {
    MemResponsePacket resp;
    resp.line_addr = pkt.line_addr;
    resp.app = pkt.app;
    resp.sm = pkt.sm;
    resp.warp = pkt.warp;
    sm.receive(resp);
  }
  for (; now < 2100; ++now) {
    sm.cycle(now);
    while (!sm.out_queue().empty()) sm.out_queue().pop();
  }
  EXPECT_GT(sm.counters().instructions.total(), instrs_stalled);
}

TEST_F(SmCoreTest, L1HitsResolveLocally) {
  // Two warps touching the same hot line: the second access is an L1 hit
  // (after the response fills the line).
  KernelProfile p = memory_profile();
  p.hot_fraction = 0.999;
  p.hot_set_bytes = 128;  // a single line: everything hits after one fill
  p.warps_per_block = 4;
  p.max_concurrent_blocks = 1;
  AppRuntime rt(p, 0, 42);
  SmCore sm(cfg_, 0, map_);
  sm.assign(&rt);
  Cycle now = 0;
  for (; now < 3000; ++now) {
    sm.cycle(now);
    while (!sm.out_queue().empty()) {
      const MemRequestPacket pkt = sm.out_queue().pop();
      MemResponsePacket resp;
      resp.line_addr = pkt.line_addr;
      resp.app = pkt.app;
      resp.sm = pkt.sm;
      resp.warp = pkt.warp;
      sm.receive(resp);
    }
  }
  EXPECT_GT(sm.counters().l1_hits.total(), 100u);
}

TEST_F(SmCoreTest, DrainStopsNewBlocksAndEmpties) {
  KernelProfile p = compute_profile();
  p.instrs_per_warp = 100;
  AppRuntime rt(p, 0, 42);
  SmCore sm(cfg_, 0, map_);
  sm.assign(&rt);
  sm.start_drain();
  EXPECT_TRUE(sm.draining());
  Cycle c = 0;
  for (; c < 50000 && !sm.drained(); ++c) sm.cycle(c);
  EXPECT_TRUE(sm.drained());
  EXPECT_EQ(sm.active_blocks(), 0);
  sm.release();
  EXPECT_FALSE(sm.assigned());

  // Reassignment to another app works after release.
  AppRuntime rt2(memory_profile(), 1, 43);
  sm.assign(&rt2);
  EXPECT_EQ(sm.app(), 1);
  EXPECT_GT(sm.live_warps(), 0);
}

TEST_F(SmCoreTest, CancelDrainResumesFetching) {
  KernelProfile p = compute_profile();
  p.instrs_per_warp = 30;
  AppRuntime rt(p, 0, 42);
  SmCore sm(cfg_, 0, map_);
  sm.assign(&rt);
  sm.start_drain();
  sm.cancel_drain();
  for (Cycle c = 0; c < 5000; ++c) sm.cycle(c);
  EXPECT_GT(sm.active_blocks(), 0);
  EXPECT_GT(rt.blocks_completed(), 5u);
}

TEST_F(SmCoreTest, InstructionSinkReceivesPerAppCounts) {
  PerAppCounter sink;
  AppRuntime rt(compute_profile(), 2, 42);
  SmCore sm(cfg_, 0, map_);
  sm.set_instr_sink(&sink);
  sm.assign(&rt);
  for (Cycle c = 0; c < 100; ++c) sm.cycle(c);
  EXPECT_EQ(sink.total(2), sm.counters().instructions.total());
}

// --- Warp-mask bookkeeping ---------------------------------------------

TEST_F(SmCoreTest, BookkeepingConsistentComputeOnly) {
  AppRuntime rt(compute_profile(), 0, 42);
  SmCore sm(cfg_, 0, map_);
  sm.assign(&rt);
  EXPECT_EQ(sm.audit_bookkeeping(), "");
  AuditedLoop loop(&sm);
  loop.run(3000);
  EXPECT_GT(rt.blocks_completed(), 0u);
}

TEST_F(SmCoreTest, BookkeepingConsistentMemoryBound) {
  KernelProfile p = memory_profile();
  p.instrs_per_warp = 40;
  AppRuntime rt(p, 0, 42);
  SmCore sm(cfg_, 0, map_);
  sm.assign(&rt);
  AuditedLoop loop(&sm, 200);
  loop.run(20'000);
  EXPECT_GT(sm.counters().mem_stall_cycles.total(), 0u);
  EXPECT_GT(rt.blocks_completed(), 0u);
}

TEST_F(SmCoreTest, BookkeepingConsistentL1Hot) {
  AppRuntime rt(l1_hot_profile(), 0, 42);
  SmCore sm(cfg_, 0, map_);
  sm.assign(&rt);
  AuditedLoop loop(&sm);
  loop.run(3000);
  EXPECT_GT(sm.counters().l1_hits.total(), 100u);
}

TEST_F(SmCoreTest, BookkeepingConsistentThroughDrainCancelAndReassign) {
  KernelProfile p = memory_profile();
  p.instrs_per_warp = 60;
  AppRuntime rt(p, 0, 42);
  SmCore sm(cfg_, 0, map_);
  sm.assign(&rt);
  AuditedLoop loop(&sm);
  loop.run(500);
  sm.start_drain();
  loop.run(100);
  sm.cancel_drain();
  loop.run(500);
  sm.start_drain();
  ASSERT_TRUE(loop.run_until_drained(50'000));
  EXPECT_EQ(sm.active_blocks(), 0);
  EXPECT_EQ(sm.live_warps(), 0);
  sm.release();
  EXPECT_EQ(sm.audit_bookkeeping(), "");

  AppRuntime rt2(l1_hot_profile(), 1, 43);
  sm.assign(&rt2, loop.now());
  EXPECT_EQ(sm.audit_bookkeeping(), "");
  loop.run(1000);
  EXPECT_GT(sm.live_warps(), 0);
}

TEST_F(SmCoreTest, BookkeepingRebuiltOnLoadMidRun) {
  AppRuntime rt(memory_profile(), 0, 42);
  SmCore sm(cfg_, 0, map_);
  sm.assign(&rt);
  AuditedLoop loop(&sm, 100);
  loop.run(1500);
  ASSERT_GT(sm.waiting_warps(), 0) << "snapshot should catch warps mid-miss";

  StateWriter w_rt;
  rt.save(w_rt);
  StateWriter w_sm;
  sm.save(w_sm);
  AppRuntime rt2(memory_profile(), 0, 42);
  StateReader r_rt(w_rt.bytes());
  rt2.load(r_rt);
  SmCore restored(cfg_, 0, map_);
  StateReader r_sm(w_sm.bytes());
  restored.load(r_sm, &rt2);
  EXPECT_EQ(restored.audit_bookkeeping(), "");
  EXPECT_EQ(restored.live_warps(), sm.live_warps());
  EXPECT_EQ(restored.active_blocks(), sm.active_blocks());

  AuditedLoop restored_loop(&restored, loop);
  loop.run(2000);
  restored_loop.run(2000);
  Hasher a;
  sm.hash(a);
  Hasher b;
  restored.hash(b);
  EXPECT_EQ(a.digest(), b.digest());
}

TEST_F(SmCoreTest, BookkeepingConsistentWithTwoMaskWords) {
  // 96 contexts need two 64-bit mask words; 24 resident 4-warp blocks
  // fill all of them, so warps past index 63 issue and wait.
  cfg_.max_warps_per_sm = 96;
  cfg_.max_blocks_per_sm = 24;
  KernelProfile p = memory_profile();
  p.instrs_per_warp = 40;
  AppRuntime rt(p, 0, 42);
  SmCore sm(cfg_, 0, map_);
  sm.assign(&rt);
  EXPECT_EQ(sm.live_warps(), 96);
  EXPECT_EQ(sm.active_blocks(), 24);
  AuditedLoop loop(&sm, 200);
  loop.run(60'000);
  EXPECT_GE(loop.max_warp_seen(), 64);
  EXPECT_GT(rt.blocks_completed(), 24u);
}

TEST_F(SmCoreTest, LoadRejectsReadyCountThatDisagreesWithWarpStates) {
  AppRuntime rt(memory_profile(), 0, 42);
  SmCore sm(cfg_, 0, map_);
  sm.assign(&rt);
  AuditedLoop loop(&sm, 100);
  loop.run(1500);
  StateWriter w;
  sm.save(w);
  std::vector<u8> bytes = w.bytes();
  // Layout: "SMCR" tag, draining flag, last-issued index, ready count.
  constexpr std::size_t kReadyCountAt = 4 + 1 + 4;
  StateReader peek(bytes);
  peek.expect_tag("SMCR");
  peek.get_bool();
  peek.get_i32();
  const i32 ready = peek.get_i32();
  // Wrong but in range, so only the cross-check against the states fails.
  bytes[kReadyCountAt] = static_cast<u8>(ready > 0 ? ready - 1 : ready + 1);

  SmCore restored(cfg_, 0, map_);
  StateReader r(bytes);
  try {
    restored.load(r, &rt);
    FAIL() << "loaded a ready-warp count that no warp state backs";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kSnapshot) << e.what();
  }
}

}  // namespace
}  // namespace gpusim
