#include "noc/crossbar.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace gpusim {
namespace {

struct Packet {
  int dest = 0;
  int payload = 0;
  Cycle ready = 0;
};

template <typename Sink>
void write_item(Sink& s, const Packet& p) {
  s.put_i32(p.dest);
  s.put_i32(p.payload);
  s.put_u64(p.ready);
}
void read_item(StateReader& r, Packet& p) {
  p.dest = r.get_i32();
  p.payload = r.get_i32();
  p.ready = r.get_u64();
}

class CrossbarTest : public ::testing::Test {
 protected:
  static constexpr int kSources = 4;
  static constexpr int kDests = 2;

  CrossbarTest()
      : channel_(kSources, kDests, /*latency=*/5, /*accepts=*/1,
                 /*depth=*/8, [](const Packet& p) { return p.dest; }) {
    for (int s = 0; s < kSources; ++s) {
      queues_.emplace_back(std::make_unique<BoundedQueue<Packet>>(16));
      sources_.push_back(queues_.back().get());
    }
  }

  CrossbarChannel<Packet> channel_;
  std::vector<std::unique_ptr<BoundedQueue<Packet>>> queues_;
  std::vector<BoundedQueue<Packet>*> sources_;
};

TEST_F(CrossbarTest, DeliversWithLatency) {
  queues_[0]->try_push({.dest = 1, .payload = 42, .ready = 0});
  channel_.transfer(10, sources_);
  auto& dq = channel_.dest_queue(1);
  ASSERT_EQ(dq.size(), 1u);
  EXPECT_EQ(dq.front().payload, 42);
  EXPECT_EQ(dq.front().ready, 15u);
}

TEST_F(CrossbarTest, OnePacketPerSourcePerCycle) {
  queues_[0]->try_push({.dest = 0});
  queues_[0]->try_push({.dest = 1});
  channel_.transfer(0, sources_);
  // Source 0 may feed only one destination per cycle.
  EXPECT_EQ(channel_.dest_queue(0).size() + channel_.dest_queue(1).size(),
            1u);
  channel_.transfer(1, sources_);
  EXPECT_EQ(channel_.dest_queue(0).size() + channel_.dest_queue(1).size(),
            2u);
}

TEST_F(CrossbarTest, AcceptLimitPerDestination) {
  for (int s = 0; s < kSources; ++s) {
    queues_[s]->try_push({.dest = 0, .payload = s});
  }
  channel_.transfer(0, sources_);
  EXPECT_EQ(channel_.dest_queue(0).size(), 1u) << "1 accept per cycle";
  channel_.transfer(1, sources_);
  channel_.transfer(2, sources_);
  channel_.transfer(3, sources_);
  EXPECT_EQ(channel_.dest_queue(0).size(), 4u);
}

TEST_F(CrossbarTest, RoundRobinIsFairAcrossSources) {
  // All 4 sources permanently loaded toward dest 0; over many cycles each
  // must receive an equal share.
  std::map<int, int> delivered;
  for (Cycle now = 0; now < 400; ++now) {
    for (int s = 0; s < kSources; ++s) {
      if (queues_[s]->empty()) {
        queues_[s]->try_push({.dest = 0, .payload = s});
      }
    }
    channel_.transfer(now, sources_);
    auto& dq = channel_.dest_queue(0);
    while (!dq.empty()) ++delivered[dq.pop().payload];
  }
  for (int s = 0; s < kSources; ++s) {
    EXPECT_NEAR(delivered[s], 100, 2) << "source " << s;
  }
}

TEST_F(CrossbarTest, RespectsPacketReadyGate) {
  queues_[0]->try_push({.dest = 0, .payload = 1, .ready = 50});
  channel_.transfer(0, sources_);
  EXPECT_TRUE(channel_.dest_queue(0).empty());
  channel_.transfer(50, sources_);
  EXPECT_EQ(channel_.dest_queue(0).size(), 1u);
}

TEST_F(CrossbarTest, BackpressureWhenDestinationFull) {
  // Depth is 8; fill it and verify the 9th packet stays at the source.
  for (int i = 0; i < 9; ++i) queues_[0]->try_push({.dest = 0, .payload = i});
  for (Cycle now = 0; now < 20; ++now) channel_.transfer(now, sources_);
  EXPECT_EQ(channel_.dest_queue(0).size(), 8u);
  EXPECT_EQ(queues_[0]->size(), 1u);
  // Draining one slot lets it through.
  channel_.dest_queue(0).pop();
  channel_.transfer(100, sources_);
  EXPECT_EQ(channel_.dest_queue(0).size(), 8u);
  EXPECT_TRUE(queues_[0]->empty());
}

TEST_F(CrossbarTest, HeadOfLineBlocking) {
  // Head packet targets the full dest 0; a dest-1 packet behind it waits.
  for (int i = 0; i < 8; ++i) queues_[1]->try_push({.dest = 0});
  for (Cycle now = 0; now < 20; ++now) channel_.transfer(now, sources_);
  ASSERT_TRUE(channel_.dest_queue(0).full());
  queues_[0]->try_push({.dest = 0, .payload = 7});
  queues_[0]->try_push({.dest = 1, .payload = 8});
  channel_.transfer(100, sources_);
  EXPECT_TRUE(channel_.dest_queue(1).empty())
      << "dest-1 packet must wait behind the blocked head";
}

TEST_F(CrossbarTest, LoadRejectsOutOfRangeRoundRobinPointer) {
  // transfer() rotates candidate masks by the pointer, so a corrupt value
  // must be rejected at load, not shifted by.
  queues_[1]->try_push({.dest = 0});
  channel_.transfer(0, sources_);
  StateWriter w;
  channel_.save(w);
  {
    CrossbarChannel<Packet> ok(kSources, kDests, 5, 1, 8,
                               [](const Packet& p) { return p.dest; });
    StateReader r(w.bytes());
    ok.load(r);
    EXPECT_EQ(ok.rr_pointer(0), 2);
  }
  // Layout ends with one i32 pointer per destination.
  std::vector<u8> bytes = w.bytes();
  const std::size_t rr0_at = bytes.size() - 4 * kDests;
  ASSERT_EQ(bytes[rr0_at], 2);
  bytes[rr0_at] = kSources;  // one past the last source
  CrossbarChannel<Packet> restored(kSources, kDests, 5, 1, 8,
                                   [](const Packet& p) { return p.dest; });
  StateReader r(bytes);
  try {
    restored.load(r);
    FAIL() << "loaded a round-robin pointer past the last source";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kSnapshot) << e.what();
  }
}

TEST_F(CrossbarTest, AllEmptyReflectsState) {
  EXPECT_TRUE(channel_.all_empty());
  queues_[2]->try_push({.dest = 1});
  channel_.transfer(0, sources_);
  EXPECT_FALSE(channel_.all_empty());
}

// --- accepts_per_cycle > 1: round-robin pointer semantics -----------------
//
// After an accept the pointer moves to one past the winner, but the probe
// counter k keeps counting from where it was: the next probe is
// (updated pointer + k + 1) mod n, so a second accept in the same cycle
// skips k + 1 sources beyond the first winner, and the search still stops
// after n probes in total.  transfer() must reproduce this exactly.

struct MultiAcceptTest : ::testing::Test {
  static constexpr int kSources = 4;

  MultiAcceptTest()
      : channel_(kSources, /*num_dests=*/1, /*latency=*/1, /*accepts=*/2,
                 /*depth=*/8, [](const Packet& p) { return p.dest; }) {
    for (int s = 0; s < kSources; ++s) {
      queues_.emplace_back(std::make_unique<BoundedQueue<Packet>>(4));
      sources_.push_back(queues_.back().get());
    }
  }

  std::vector<int> accepted_payloads() {
    std::vector<int> out;
    auto& dq = channel_.dest_queue(0);
    while (!dq.empty()) out.push_back(dq.pop().payload);
    return out;
  }

  CrossbarChannel<Packet> channel_;
  std::vector<std::unique_ptr<BoundedQueue<Packet>>> queues_;
  std::vector<BoundedQueue<Packet>*> sources_;
};

TEST_F(MultiAcceptTest, SecondAcceptSkipsPastTheFirstWinner) {
  for (int s = 0; s < kSources; ++s) queues_[s]->try_push({.payload = s});
  // Pointer 0: probe 0 accepts source 0 (pointer -> 1); probe 1 looks at
  // 1 + 1 = source 2, skipping source 1.
  u64 blocked = 0;
  channel_.transfer(0, sources_, &blocked);
  EXPECT_EQ(accepted_payloads(), (std::vector<int>{0, 2}));
  EXPECT_EQ(channel_.rr_pointer(0), 3);
  EXPECT_EQ(blocked, 0b1010u);
  // Pointer 3: source 3 wins at probe 0 (pointer -> 0), then probe 1 is
  // 0 + 1 = source 1.
  channel_.transfer(1, sources_, &blocked);
  EXPECT_EQ(accepted_payloads(), (std::vector<int>{3, 1}));
  EXPECT_EQ(channel_.rr_pointer(0), 2);
  EXPECT_EQ(blocked, 0u);
}

TEST_F(MultiAcceptTest, CandidateRightAfterAWinnerWaitsACycle) {
  // Sources 1 and 2 ready, pointer 0, two accepts allowed: probe 1 accepts
  // source 1 (pointer -> 2); probes 2 and 3 look at sources 0 and 1, so
  // source 2 is never probed and waits for the next cycle.
  queues_[1]->try_push({.payload = 1});
  queues_[2]->try_push({.payload = 2});
  u64 blocked = 0;
  channel_.transfer(0, sources_, &blocked);
  EXPECT_EQ(accepted_payloads(), (std::vector<int>{1}));
  EXPECT_EQ(channel_.rr_pointer(0), 2);
  EXPECT_EQ(blocked, 0b0100u);
  channel_.transfer(1, sources_, &blocked);
  EXPECT_EQ(accepted_payloads(), (std::vector<int>{2}));
  EXPECT_EQ(channel_.rr_pointer(0), 3);
}

// --- masked transfer() vs the reference transfer_scan() -------------------

struct DiffCase {
  int sources = 1;
  int dests = 1;
  int accepts = 1;
  int depth = 1;
};

std::string describe(const DiffCase& c) {
  return std::to_string(c.sources) + "x" + std::to_string(c.dests) +
         " accepts=" + std::to_string(c.accepts) +
         " depth=" + std::to_string(c.depth);
}

/// Drives a masked channel and a scanning clone with identical randomized
/// traffic and asserts identical outcomes after every cycle.
void run_differential(const DiffCase& c, u64 seed, int cycles) {
  SCOPED_TRACE(describe(c) + " seed=" + std::to_string(seed));
  Rng rng(seed);
  CrossbarChannel<Packet> masked(c.sources, c.dests, /*latency=*/3,
                                 c.accepts, c.depth,
                                 [](const Packet& p) { return p.dest; });
  std::vector<BoundedQueue<Packet>> src_masked;
  for (int s = 0; s < c.sources; ++s) src_masked.emplace_back(4);

  // Pre-fill destination queues, up to full.
  for (int d = 0; d < c.dests; ++d) {
    const int fill = static_cast<int>(rng.next_below(c.depth + 1));
    for (int i = 0; i < fill; ++i) {
      masked.dest_queue(d).try_push({.dest = d, .payload = -1 - i});
    }
  }
  CrossbarChannel<Packet> scan = masked;  // clone, pre-fill included
  std::vector<BoundedQueue<Packet>> src_scan = src_masked;
  std::vector<BoundedQueue<Packet>*> ptr_masked;
  std::vector<BoundedQueue<Packet>*> ptr_scan;
  for (int s = 0; s < c.sources; ++s) {
    ptr_masked.push_back(&src_masked[s]);
    ptr_scan.push_back(&src_scan[s]);
  }

  const double inject_p = 0.2 + 0.7 * rng.next_double();
  const double drain_p = 0.1 + 0.8 * rng.next_double();
  int payload = 0;
  for (Cycle now = 0; now < static_cast<Cycle>(cycles); ++now) {
    for (int s = 0; s < c.sources; ++s) {
      if (src_masked[s].full() || !rng.next_bool(inject_p)) continue;
      Packet p;
      // 1 in 64 packets routes outside the channel: never accepted, so its
      // source stays head-of-line blocked — on both paths.
      p.dest = rng.next_below(64) == 0
                   ? c.dests
                   : static_cast<int>(rng.next_below(c.dests));
      p.payload = payload++;
      p.ready = now + rng.next_below(3);
      src_masked[s].try_push(p);
      src_scan[s].try_push(p);
    }
    for (int d = 0; d < c.dests; ++d) {
      if (masked.dest_queue(d).empty() || !rng.next_bool(drain_p)) continue;
      masked.dest_queue(d).pop();
      scan.dest_queue(d).pop();
    }

    u64 blocked_masked = ~u64{0};
    u64 blocked_scan = ~u64{0};
    const u64 got = masked.transfer(now, ptr_masked, &blocked_masked);
    const u64 want = scan.transfer_scan(now, ptr_scan, &blocked_scan);
    ASSERT_EQ(got, want) << "dest mask, cycle " << now;
    ASSERT_EQ(blocked_masked, blocked_scan) << "blocked mask, cycle " << now;
    for (int d = 0; d < c.dests; ++d) {
      ASSERT_EQ(masked.rr_pointer(d), scan.rr_pointer(d))
          << "rr, dest " << d << ", cycle " << now;
      const auto& a = masked.dest_queue(d);
      const auto& b = scan.dest_queue(d);
      ASSERT_EQ(a.size(), b.size()) << "dest " << d << ", cycle " << now;
      auto ib = b.begin();
      for (const Packet& pa : a) {
        ASSERT_EQ(pa.payload, ib->payload) << "dest " << d;
        ASSERT_EQ(pa.ready, ib->ready) << "dest " << d;
        ++ib;
      }
    }
    for (int s = 0; s < c.sources; ++s) {
      ASSERT_EQ(src_masked[s].size(), src_scan[s].size())
          << "source " << s << ", cycle " << now;
      if (!src_masked[s].empty()) {
        ASSERT_EQ(src_masked[s].front().payload, src_scan[s].front().payload);
      }
    }
  }
}

TEST(CrossbarDifferentialTest, RandomGeometriesMatchTheScan) {
  Rng pick(2024);
  for (int i = 0; i < 300; ++i) {
    DiffCase c;
    c.sources = 1 + static_cast<int>(pick.next_below(16));
    c.dests = 1 + static_cast<int>(pick.next_below(16));
    c.accepts = 1 + static_cast<int>(pick.next_below(3));
    c.depth = 1 + static_cast<int>(pick.next_below(4));
    run_differential(c, 100 + i, 200);
    if (HasFatalFailure()) return;
  }
}

TEST(CrossbarDifferentialTest, SixtyFourSourceEdgeMatchesTheScan) {
  // 64 sources fill the whole ready mask: rotations by every pointer value
  // and the full-width port mask are exercised.
  for (int accepts = 1; accepts <= 3; ++accepts) {
    for (int dests : {1, 6, 16, 64}) {
      run_differential(DiffCase{64, dests, accepts, 2}, 7 * accepts + dests,
                       400);
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace gpusim
