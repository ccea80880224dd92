#include "cache/cache.hpp"

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <tuple>
#include <vector>

#include "common/rng.hpp"

namespace gpusim {
namespace {

constexpr int kLine = 128;

u64 addr_of(int set, int tag, int num_sets) {
  return (static_cast<u64>(tag) * num_sets + set) * kLine;
}

TEST(CacheTest, MissThenHit) {
  SetAssocCache c(16, 4, kLine);
  EXPECT_FALSE(c.access(0x1000, 0).hit);
  EXPECT_TRUE(c.access(0x1000, 0).hit);
  // Same line, different byte offset.
  EXPECT_TRUE(c.access(0x1000 + 64, 0).hit);
  EXPECT_EQ(c.stats().accesses, 3u);
  EXPECT_EQ(c.stats().hits, 2u);
}

TEST(CacheTest, LruEvictionOrder) {
  SetAssocCache c(4, 2, kLine);
  const u64 a = addr_of(0, 1, 4);
  const u64 b = addr_of(0, 2, 4);
  const u64 d = addr_of(0, 3, 4);
  c.access(a, 0);
  c.access(b, 0);
  c.access(a, 0);  // a is now MRU
  const auto res = c.access(d, 0);
  EXPECT_FALSE(res.hit);
  EXPECT_TRUE(res.evicted);
  EXPECT_TRUE(c.probe(a));
  EXPECT_FALSE(c.probe(b));  // b was LRU
  EXPECT_TRUE(c.probe(d));
}

TEST(CacheTest, CrossAppEvictionTracked) {
  SetAssocCache c(1, 1, kLine);
  c.access(addr_of(0, 1, 1), /*app=*/0);
  const auto res = c.access(addr_of(0, 2, 1), /*app=*/1);
  EXPECT_TRUE(res.evicted);
  EXPECT_EQ(res.victim_app, 0);
  EXPECT_EQ(c.stats().cross_app_evictions, 1u);
  EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(CacheTest, ProbeDoesNotDisturbState) {
  SetAssocCache c(4, 2, kLine);
  const u64 a = addr_of(1, 1, 4);
  EXPECT_FALSE(c.probe(a));
  c.access(a, 0);
  const u64 before = c.stats().accesses;
  EXPECT_TRUE(c.probe(a));
  EXPECT_EQ(c.stats().accesses, before);  // probes are not accesses
}

TEST(CacheTest, LookupTouchDoesNotAllocate) {
  SetAssocCache c(4, 2, kLine);
  const u64 a = addr_of(0, 5, 4);
  const int way = c.find_way(a);
  EXPECT_EQ(way, SetAssocCache::kNoWay);
  c.touch(way, 0);
  EXPECT_FALSE(c.probe(a)) << "miss must not allocate";
  EXPECT_EQ(c.stats().accesses, 1u);
  EXPECT_EQ(c.stats().hits, 0u);
}

TEST(CacheTest, FillInstallsWithoutAccessStats) {
  SetAssocCache c(4, 2, kLine);
  const u64 a = addr_of(0, 5, 4);
  c.fill(a, 0);
  EXPECT_TRUE(c.probe(a));
  EXPECT_EQ(c.stats().accesses, 0u);
  // Re-filling the same line refreshes rather than duplicating.
  const auto res = c.fill(a, 1);
  EXPECT_TRUE(res.hit);
  EXPECT_EQ(c.stats().evictions, 0u);
}

TEST(CacheTest, LookupTouchRefreshesLru) {
  SetAssocCache c(1, 2, kLine);
  const u64 a = addr_of(0, 1, 1);
  const u64 b = addr_of(0, 2, 1);
  const u64 d = addr_of(0, 3, 1);
  c.fill(a, 0);
  c.fill(b, 0);
  c.touch(c.find_way(a), 0);  // a MRU
  c.fill(d, 0);               // evicts b
  EXPECT_TRUE(c.probe(a));
  EXPECT_FALSE(c.probe(b));
}

TEST(CacheTest, ClearInvalidatesEverything) {
  SetAssocCache c(4, 2, kLine);
  c.access(addr_of(0, 1, 4), 0);
  c.clear();
  EXPECT_FALSE(c.probe(addr_of(0, 1, 4)));
  EXPECT_EQ(c.stats().accesses, 0u);
}

TEST(CacheTest, SetsAreIndependent) {
  SetAssocCache c(4, 1, kLine);
  for (int set = 0; set < 4; ++set) {
    c.access(addr_of(set, 1, 4), 0);
  }
  for (int set = 0; set < 4; ++set) {
    EXPECT_TRUE(c.probe(addr_of(set, 1, 4)));
  }
}

// ---------------------------------------------------------------------------
// Property test: the cache must agree with a straightforward reference LRU
// model over random access traces, for several geometries.
// ---------------------------------------------------------------------------

class ReferenceLru {
 public:
  ReferenceLru(int num_sets, int assoc) : num_sets_(num_sets), assoc_(assoc),
                                          sets_(num_sets) {}

  bool access(u64 line) {
    auto& set = sets_[line % num_sets_];
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (*it == line) {
        set.erase(it);
        set.push_front(line);
        return true;
      }
    }
    set.push_front(line);
    if (static_cast<int>(set.size()) > assoc_) set.pop_back();
    return false;
  }

 private:
  int num_sets_;
  int assoc_;
  std::vector<std::list<u64>> sets_;
};

class CacheLruPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, u64>> {};

TEST_P(CacheLruPropertyTest, MatchesReferenceModel) {
  const auto [num_sets, assoc, seed] = GetParam();
  SetAssocCache cache(num_sets, assoc, kLine);
  ReferenceLru ref(num_sets, assoc);
  Rng rng(seed);
  const u64 distinct_lines = static_cast<u64>(num_sets) * assoc * 3;
  for (int i = 0; i < 20000; ++i) {
    const u64 line = rng.next_below(distinct_lines);
    const bool expect_hit = ref.access(line);
    const bool got_hit = cache.access(line * kLine, 0).hit;
    ASSERT_EQ(got_hit, expect_hit) << "access " << i << " line " << line;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheLruPropertyTest,
    ::testing::Combine(::testing::Values(1, 4, 32, 128),
                       ::testing::Values(1, 2, 4, 8),
                       ::testing::Values(1u, 99u)));

// ---------------------------------------------------------------------------
// Differential test: the split-tag cache against a verbatim copy of the
// array-of-lines cache it replaced (division for the line address, modulo
// for every set index, one combined scan per fill/access, and a probe then
// lookup_touch pair for every demand access).  Results, victims, stats,
// LRU ticks and snapshot bytes must agree after every call.
// ---------------------------------------------------------------------------

class LegacyCache {
 public:
  LegacyCache(int num_sets, int assoc, int line_bytes)
      : num_sets_(num_sets), assoc_(assoc), line_bytes_(line_bytes),
        lines_(static_cast<std::size_t>(num_sets) * assoc) {}

  CacheAccessResult access(u64 addr, AppId app) {
    ++stats_.accesses;
    const u64 tag = line_addr(addr);
    Line* begin = set_begin(set_index(addr));
    ++tick_;
    Line* victim = nullptr;
    for (int w = 0; w < assoc_; ++w) {
      Line& line = begin[w];
      if (line.valid && line.tag == tag) {
        line.lru_stamp = tick_;
        line.app = app;
        ++stats_.hits;
        return {.hit = true};
      }
      if (!line.valid) {
        if (victim == nullptr || victim->valid) victim = &line;
      } else if (victim == nullptr ||
                 (victim->valid && line.lru_stamp < victim->lru_stamp)) {
        victim = &line;
      }
    }
    return install(victim, tag, app);
  }

  bool lookup_touch(u64 addr, AppId app) {
    ++stats_.accesses;
    const u64 tag = line_addr(addr);
    Line* begin = set_begin(set_index(addr));
    ++tick_;
    for (int w = 0; w < assoc_; ++w) {
      Line& line = begin[w];
      if (line.valid && line.tag == tag) {
        line.lru_stamp = tick_;
        line.app = app;
        ++stats_.hits;
        return true;
      }
    }
    return false;
  }

  CacheAccessResult fill(u64 addr, AppId app) {
    const u64 tag = line_addr(addr);
    Line* begin = set_begin(set_index(addr));
    ++tick_;
    Line* victim = nullptr;
    for (int w = 0; w < assoc_; ++w) {
      Line& line = begin[w];
      if (line.valid && line.tag == tag) {
        line.lru_stamp = tick_;
        line.app = app;
        return {.hit = true};
      }
      if (!line.valid) {
        if (victim == nullptr || victim->valid) victim = &line;
      } else if (victim == nullptr ||
                 (victim->valid && line.lru_stamp < victim->lru_stamp)) {
        victim = &line;
      }
    }
    return install(victim, tag, app);
  }

  bool probe(u64 addr) const {
    const u64 tag = line_addr(addr);
    const Line* begin = lines_.data() + set_index(addr) * assoc_;
    for (int w = 0; w < assoc_; ++w) {
      if (begin[w].valid && begin[w].tag == tag) return true;
    }
    return false;
  }

  void clear() {
    for (auto& line : lines_) line.valid = false;
    tick_ = 0;
    stats_ = {};
  }

  const CacheStats& stats() const { return stats_; }

  template <typename Sink>
  void write_state(Sink& s) const {
    s.put_tag("CACH");
    s.put_u64(tick_);
    for (const Line& l : lines_) {
      s.put_u64(l.tag);
      s.put_u64(l.lru_stamp);
      s.put_i32(l.app);
      s.put_bool(l.valid);
    }
    s.put_u64(stats_.accesses);
    s.put_u64(stats_.hits);
    s.put_u64(stats_.evictions);
    s.put_u64(stats_.cross_app_evictions);
  }

 private:
  struct Line {
    u64 tag = 0;
    u64 lru_stamp = 0;
    AppId app = kInvalidApp;
    bool valid = false;
  };

  u64 line_addr(u64 addr) const { return addr / line_bytes_; }
  int set_index(u64 addr) const {
    return static_cast<int>(line_addr(addr) % num_sets_);
  }
  Line* set_begin(int set) { return lines_.data() + set * assoc_; }

  CacheAccessResult install(Line* victim, u64 tag, AppId app) {
    CacheAccessResult result;
    if (victim->valid) {
      result.evicted = true;
      result.victim_app = victim->app;
      ++stats_.evictions;
      if (victim->app != app) ++stats_.cross_app_evictions;
    }
    victim->valid = true;
    victim->tag = tag;
    victim->app = app;
    victim->lru_stamp = tick_;
    return result;
  }

  int num_sets_;
  int assoc_;
  int line_bytes_;
  u64 tick_ = 0;
  std::vector<Line> lines_;
  CacheStats stats_;
};

void expect_same_result(const CacheAccessResult& got,
                        const CacheAccessResult& want) {
  ASSERT_EQ(got.hit, want.hit);
  ASSERT_EQ(got.evicted, want.evicted);
  ASSERT_EQ(got.victim_app, want.victim_app);
}

void expect_same_state(const SetAssocCache& got, const LegacyCache& want) {
  ASSERT_EQ(got.stats().accesses, want.stats().accesses);
  ASSERT_EQ(got.stats().hits, want.stats().hits);
  ASSERT_EQ(got.stats().evictions, want.stats().evictions);
  ASSERT_EQ(got.stats().cross_app_evictions, want.stats().cross_app_evictions);
  StateWriter got_bytes, want_bytes;
  got.save(got_bytes);
  want.write_state(want_bytes);
  ASSERT_EQ(got_bytes.bytes(), want_bytes.bytes());
}

class CacheDifferentialTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CacheDifferentialTest, MatchesLegacyCache) {
  const auto [num_sets, assoc] = GetParam();
  SetAssocCache cache(num_sets, assoc, kLine);
  LegacyCache legacy(num_sets, assoc, kLine);
  Rng rng(static_cast<u64>(num_sets) * 131 + static_cast<u64>(assoc));
  // Twice the capacity in distinct lines, so hits, misses and evictions all
  // occur; byte offsets inside a line must not matter.
  const u64 distinct_lines = static_cast<u64>(num_sets) * assoc * 2;
  const int kOps = 3000;
  for (int i = 0; i < kOps; ++i) {
    SCOPED_TRACE(testing::Message() << "op " << i);
    const u64 addr = rng.next_below(distinct_lines) * kLine +
                     rng.next_below(kLine);
    const AppId app = static_cast<AppId>(rng.next_below(3));
    const u64 roll = rng.next_below(100);
    if (i == kOps / 2) {
      cache.clear();
      legacy.clear();
    } else if (roll < 40) {
      // Demand access: one scan, then the touch it found.
      const bool want_hit = legacy.probe(addr);
      ASSERT_EQ(legacy.lookup_touch(addr, app), want_hit);
      const int way = cache.find_way(addr);
      ASSERT_EQ(way != SetAssocCache::kNoWay, want_hit);
      cache.touch(way, app);
    } else if (roll < 75) {
      expect_same_result(cache.fill(addr, app), legacy.fill(addr, app));
    } else if (roll < 95) {
      expect_same_result(cache.access(addr, app), legacy.access(addr, app));
    } else {
      ASSERT_EQ(cache.probe(addr), legacy.probe(addr));
    }
    expect_same_state(cache, legacy);
    if (HasFatalFailure()) return;
  }
  // A snapshot taken from the new layout restores into it unchanged.
  StateWriter saved;
  cache.save(saved);
  SetAssocCache restored(num_sets, assoc, kLine);
  StateReader r(saved.bytes());
  restored.load(r);
  EXPECT_TRUE(r.exhausted());
  expect_same_state(restored, legacy);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDifferentialTest,
    ::testing::Combine(::testing::Values(1, 3, 32, 96, 128),
                       ::testing::Values(1, 2, 4, 8, 16)));

}  // namespace
}  // namespace gpusim
