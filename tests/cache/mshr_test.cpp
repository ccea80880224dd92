#include "cache/mshr.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hpp"

namespace gpusim {
namespace {

std::vector<MshrWaiter> release_all(Mshr& m, u64 line) {
  std::vector<MshrWaiter> out;
  m.release(line, [&](const MshrWaiter& w) { out.push_back(w); });
  return out;
}

template <typename Fn>
SimErrorKind error_kind_of(Fn&& fn) {
  try {
    fn();
  } catch (const SimError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "expected a SimError";
  return SimErrorKind::kHarness;
}

TEST(MshrTest, FirstMissAllocates) {
  Mshr m(4);
  EXPECT_EQ(m.allocate(100, {0, 1, 0}), Mshr::AllocResult::kNewMiss);
  EXPECT_TRUE(m.contains(100));
  EXPECT_EQ(m.in_flight(), 1);
}

TEST(MshrTest, SecondaryMissMerges) {
  Mshr m(4);
  m.allocate(100, {0, 1, 0});
  EXPECT_EQ(m.allocate(100, {2, 5, 1}), Mshr::AllocResult::kMerged);
  EXPECT_EQ(m.in_flight(), 1) << "merge must not consume an entry";
  const auto waiters = release_all(m, 100);
  ASSERT_EQ(waiters.size(), 2u);
  EXPECT_EQ(waiters[0].sm, 0);
  EXPECT_EQ(waiters[0].warp, 1);
  EXPECT_EQ(waiters[1].sm, 2);
  EXPECT_EQ(waiters[1].warp, 5);
  EXPECT_FALSE(m.contains(100));
}

TEST(MshrTest, RejectsWhenFull) {
  Mshr m(2);
  EXPECT_EQ(m.allocate(1, {}), Mshr::AllocResult::kNewMiss);
  EXPECT_EQ(m.allocate(2, {}), Mshr::AllocResult::kNewMiss);
  EXPECT_TRUE(m.full());
  EXPECT_EQ(m.allocate(3, {}), Mshr::AllocResult::kRejected);
  // Merging into an existing entry still works at capacity.
  EXPECT_EQ(m.allocate(1, {}), Mshr::AllocResult::kMerged);
  release_all(m, 1);
  EXPECT_FALSE(m.full());
  EXPECT_EQ(m.allocate(3, {}), Mshr::AllocResult::kNewMiss);
}

TEST(MshrTest, ReleaseFreesEntryForReuse) {
  Mshr m(1);
  m.allocate(7, {1, 2, 0});
  release_all(m, 7);
  EXPECT_EQ(m.in_flight(), 0);
  EXPECT_EQ(m.allocate(7, {3, 4, 0}), Mshr::AllocResult::kNewMiss);
}

TEST(MshrTest, ClearDropsAllEntries) {
  Mshr m(4);
  m.allocate(1, {});
  m.allocate(2, {});
  m.clear();
  EXPECT_EQ(m.in_flight(), 0);
  EXPECT_FALSE(m.contains(1));
}

TEST(MshrTest, ManyWaitersOnOneLine) {
  Mshr m(2);
  m.allocate(42, {0, 0, 0});
  for (int i = 1; i < 32; ++i) {
    EXPECT_EQ(m.allocate(42, {0, i, 0}), Mshr::AllocResult::kMerged);
  }
  const auto waiters = release_all(m, 42);
  ASSERT_EQ(waiters.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(waiters[i].warp, i);
}

TEST(MshrTest, ProbeOnceThenInsertOrMerge) {
  Mshr m(4);
  const Mshr::Probe miss = m.probe(9);
  EXPECT_FALSE(miss.in_flight());
  m.insert(miss, 9, {0, 1, 0});
  const Mshr::Probe hit = m.probe(9);
  ASSERT_TRUE(hit.in_flight());
  m.merge(hit, {0, 2, 0});
  const auto waiters = release_all(m, 9);
  ASSERT_EQ(waiters.size(), 2u);
  EXPECT_EQ(waiters[1].warp, 2);
}

// --- Failing inputs --------------------------------------------------------

TEST(MshrTest, ReleaseOfAbsentLineIsDoubleCompletion) {
  Mshr m(4);
  m.allocate(1, {});
  EXPECT_EQ(error_kind_of([&] { release_all(m, 2); }),
            SimErrorKind::kInvariant);
  release_all(m, 1);
  EXPECT_EQ(error_kind_of([&] { release_all(m, 1); }),
            SimErrorKind::kInvariant);
}

TEST(MshrTest, LoadRejectsDuplicateLine) {
  StateWriter w;
  w.put_tag("MSHR");
  w.put_u64(2);
  for (int i = 0; i < 2; ++i) {
    w.put_u64(5);  // the same line twice
    w.put_u64(1);
    w.put_i32(0);
    w.put_i32(i);
    w.put_i32(0);
  }
  Mshr m(4);
  StateReader r(w.bytes());
  EXPECT_EQ(error_kind_of([&] { m.load(r); }), SimErrorKind::kSnapshot);
}

TEST(MshrTest, LoadRejectsEntryCountAboveCapacity) {
  Mshr big(8);
  for (u64 line = 0; line < 5; ++line) big.allocate(line, {0, 0, 0});
  StateWriter w;
  big.save(w);
  Mshr small(4);
  StateReader r(w.bytes());
  EXPECT_EQ(error_kind_of([&] { small.load(r); }), SimErrorKind::kSnapshot);
}

// --- Property test against a reference model -------------------------------

/// The pre-table semantics: an ordered map from line to recorded waiters.
class ReferenceMshr {
 public:
  explicit ReferenceMshr(int capacity) : capacity_(capacity) {}

  Mshr::AllocResult allocate(u64 line, MshrWaiter w) {
    auto it = entries_.find(line);
    if (it != entries_.end()) {
      it->second.push_back(w);
      return Mshr::AllocResult::kMerged;
    }
    if (static_cast<int>(entries_.size()) >= capacity_) {
      return Mshr::AllocResult::kRejected;
    }
    entries_[line].push_back(w);
    return Mshr::AllocResult::kNewMiss;
  }
  std::vector<MshrWaiter> release(u64 line) {
    std::vector<MshrWaiter> out = std::move(entries_.at(line));
    entries_.erase(line);
    return out;
  }
  bool contains(u64 line) const { return entries_.contains(line); }
  int in_flight() const { return static_cast<int>(entries_.size()); }
  void clear() { entries_.clear(); }

  template <typename Sink>
  void write_state(Sink& s) const {
    s.put_tag("MSHR");
    s.put_u64(entries_.size());
    for (const auto& [line, waiters] : entries_) {
      s.put_u64(line);
      s.put_u64(waiters.size());
      for (const MshrWaiter& w : waiters) {
        s.put_i32(w.sm);
        s.put_i32(w.warp);
        s.put_i32(w.app);
      }
    }
  }
  std::array<u64, kMaxApps> waiters_by_app() const {
    std::array<u64, kMaxApps> out{};
    for (const auto& [line, waiters] : entries_) {
      for (const MshrWaiter& w : waiters) {
        if (w.app >= 0 && w.app < kMaxApps) ++out[w.app];
      }
    }
    return out;
  }

 private:
  int capacity_;
  std::map<u64, std::vector<MshrWaiter>> entries_;
};

bool same_waiter(const MshrWaiter& a, const MshrWaiter& b) {
  return a.sm == b.sm && a.warp == b.warp && a.app == b.app;
}

/// Line families that collide in the index: equal low bits with distinct
/// high bits, and multiples of large powers of two.
std::vector<u64> line_family(int family, int count) {
  std::vector<u64> lines;
  for (int k = 0; k < count; ++k) {
    const u64 i = static_cast<u64>(k);
    switch (family) {
      case 0: lines.push_back((i << 20) | 0x3u); break;
      case 1: lines.push_back(i << 32); break;
      case 2: lines.push_back(i << 48); break;
      default: lines.push_back(i * 1024 + (i & 1)); break;
    }
  }
  return lines;
}

void expect_matches(const Mshr& m, const ReferenceMshr& ref, int capacity,
                    const std::vector<u64>& lines) {
  ASSERT_EQ(m.in_flight(), ref.in_flight());
  ASSERT_EQ(m.full(), ref.in_flight() >= capacity);
  for (u64 line : lines) ASSERT_EQ(m.contains(line), ref.contains(line));
  std::array<u64, kMaxApps> by_app{};
  m.count_waiters_by_app(by_app);
  ASSERT_EQ(by_app, ref.waiters_by_app());
  StateWriter got, want;
  m.save(got);
  ref.write_state(want);
  ASSERT_EQ(got.bytes(), want.bytes());
  Hasher got_hash, want_hash;
  m.hash(got_hash);
  ref.write_state(want_hash);
  ASSERT_EQ(got_hash.digest(), want_hash.digest());
}

void run_property(int capacity, int family, u64 seed) {
  SCOPED_TRACE(testing::Message() << "capacity=" << capacity
                                  << " family=" << family << " seed=" << seed);
  const std::vector<u64> lines = line_family(family, 3 * capacity + 4);
  Mshr m(capacity);
  ReferenceMshr ref(capacity);
  Rng rng(seed);
  for (int op = 0; op < 4000; ++op) {
    const u64 line = lines[rng.next_below(lines.size())];
    const u64 roll = rng.next_below(100);
    MshrWaiter w;
    w.sm = static_cast<SmId>(rng.next_below(16));
    w.warp = static_cast<WarpId>(rng.next_below(48));
    w.app = static_cast<AppId>(rng.next_below(kMaxApps + 1)) - 1;
    if (roll < 45) {
      // Allocate through the one-call API or the probe-once hot path.
      Mshr::AllocResult got;
      if (rng.next_bool(0.5)) {
        got = m.allocate(line, w);
      } else {
        const Mshr::Probe p = m.probe(line);
        if (p.in_flight()) {
          m.merge(p, w);
          got = Mshr::AllocResult::kMerged;
        } else if (m.full()) {
          got = Mshr::AllocResult::kRejected;
        } else {
          m.insert(p, line, w);
          got = Mshr::AllocResult::kNewMiss;
        }
      }
      ASSERT_EQ(got, ref.allocate(line, w)) << "op " << op;
    } else if (roll < 85) {
      if (ref.contains(line)) {
        const auto want = ref.release(line);
        const auto got = release_all(m, line);
        ASSERT_EQ(got.size(), want.size()) << "op " << op;
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_TRUE(same_waiter(got[i], want[i])) << "op " << op;
        }
      } else {
        ASSERT_EQ(error_kind_of([&] { release_all(m, line); }),
                  SimErrorKind::kInvariant);
      }
    } else if (roll < 87) {
      m.clear();
      ref.clear();
    } else {
      // Save, then continue on a freshly loaded copy.
      StateWriter w_state;
      m.save(w_state);
      Mshr loaded(capacity);
      StateReader r(w_state.bytes());
      loaded.load(r);
      ASSERT_TRUE(r.exhausted());
      m = loaded;
    }
    expect_matches(m, ref, capacity, lines);
    if (testing::Test::HasFatalFailure()) return;
  }
}

TEST(MshrPropertyTest, MatchesReferenceModel) {
  for (int capacity : {1, 2, 32, 48, 100, 128}) {
    for (int family = 0; family < 4; ++family) {
      run_property(capacity, family, 1000u + static_cast<u64>(capacity) * 7 +
                                         static_cast<u64>(family));
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace gpusim
