// Set-associative write-allocate cache with true-LRU replacement.
//
// Used for both the per-SM L1 data caches and the per-partition shared L2
// slices (paper Table II: 16KB 4-way L1, 128KB 8-way L2 slice, 128B lines).
// Lines carry the owning application id so shared-cache contention (who
// evicted whom) can be observed — the interference source DASE's ELLCMiss
// counter and the ASM baseline's ATD correction both target.
#pragma once

#include <vector>

#include "common/simstate.hpp"
#include "common/types.hpp"

namespace gpusim {

struct CacheAccessResult {
  bool hit = false;
  /// Valid line was evicted to make room (only meaningful on a miss).
  bool evicted = false;
  /// Application that owned the evicted line (kInvalidApp when !evicted).
  AppId victim_app = kInvalidApp;
};

struct CacheStats {
  u64 accesses = 0;
  u64 hits = 0;
  u64 evictions = 0;
  /// Evictions where the victim line belonged to a different application —
  /// the raw inter-application cache interference events.
  u64 cross_app_evictions = 0;
};

class SetAssocCache {
 public:
  /// find_way() result for a line that is not present.
  static constexpr int kNoWay = -1;

  /// `num_sets` and `assoc` define geometry; `line_bytes` must be pow2.
  SetAssocCache(int num_sets, int assoc, int line_bytes);

  /// Looks up `addr`; on miss, allocates the line (LRU victim) for `app`.
  /// Allocate-on-miss semantics — used by the ATD shadow directories, where
  /// the alone-cache contents must be updated immediately.
  CacheAccessResult access(u64 addr, AppId app);

  /// Scans the set of `addr` for a valid line holding it, without any state
  /// change.  Returns that line's way (an opaque handle for touch()), or
  /// kNoWay on a miss.
  int find_way(u64 addr) const {
    const u64 tag = line_addr(addr);
    const int first = set_index(addr) * assoc_;
    const u64* tags = tags_.data() + first;
    for (int w = 0; w < assoc_; ++w) {
      if (tags[w] == tag && meta_[first + w].valid) return first + w;
    }
    return kNoWay;
  }

  /// Demand access for a way find_way() just returned, for fill-on-response
  /// caches: counts the access and, on a hit, makes the line MRU and owned
  /// by `app` and counts the hit.  A miss (kNoWay) does NOT allocate — the
  /// line is installed later via fill(), after the memory system responds.
  void touch(int way, AppId app) {
    ++stats_.accesses;
    ++tick_;
    if (way == kNoWay) return;
    Meta& m = meta_[way];
    m.lru_stamp = tick_;
    m.app = app;
    ++stats_.hits;
  }

  /// Installs `addr` on response arrival.  Does not count as an access in
  /// stats (the demand lookup already did); evictions are still recorded.
  CacheAccessResult fill(u64 addr, AppId app);

  /// Lookup without any state change (used by tests and probes).
  bool probe(u64 addr) const { return find_way(addr) != kNoWay; }

  /// Invalidates every line (used between runs).  Invalidated lines keep
  /// their stale tags, which the snapshot bytes carry.
  void clear();

  int num_sets() const { return num_sets_; }
  int assoc() const { return assoc_; }
  const CacheStats& stats() const { return stats_; }

  u64 line_addr(u64 addr) const { return addr >> line_shift_; }
  int set_index(u64 addr) const {
    const u64 line = line_addr(addr);
    return static_cast<int>(sets_pow2_ ? line & set_mask_ : line % num_sets_);
  }

  // SimState: geometry is construction-time config; tags, LRU stamps and
  // stats are the run-time state.
  template <typename Sink>
  void write_state(Sink& s) const {
    s.put_tag("CACH");
    s.put_u64(tick_);
    for (std::size_t i = 0; i < tags_.size(); ++i) {
      s.put_u64(tags_[i]);
      s.put_u64(meta_[i].lru_stamp);
      s.put_i32(meta_[i].app);
      s.put_bool(meta_[i].valid);
    }
    s.put_u64(stats_.accesses);
    s.put_u64(stats_.hits);
    s.put_u64(stats_.evictions);
    s.put_u64(stats_.cross_app_evictions);
  }
  void save(StateWriter& w) const { write_state(w); }
  void hash(Hasher& h) const { write_state(h); }
  void load(StateReader& r) {
    r.expect_tag("CACH");
    tick_ = r.get_u64();
    for (std::size_t i = 0; i < tags_.size(); ++i) {
      tags_[i] = r.get_u64();
      meta_[i].lru_stamp = r.get_u64();
      meta_[i].app = r.get_i32();
      meta_[i].valid = r.get_bool();
    }
    stats_.accesses = r.get_u64();
    stats_.hits = r.get_u64();
    stats_.evictions = r.get_u64();
    stats_.cross_app_evictions = r.get_u64();
  }

 private:
  /// Per-line state other than the tag.  Tags live in their own array so a
  /// set scan reads one contiguous run of `assoc_` tags.
  struct Meta {
    u64 lru_stamp = 0;
    AppId app = kInvalidApp;
    bool valid = false;
  };

  /// Way to replace in `set` for a line that is not present: the first
  /// invalid way, else the least recently used one.
  int victim_way(int set) const;
  /// Installs `tag` for `app` in `way` (a victim_way() result), recording
  /// the eviction it causes.
  CacheAccessResult install(int way, u64 tag, AppId app);

  int num_sets_;
  int assoc_;
  int line_shift_;
  bool sets_pow2_;
  u64 set_mask_;
  u64 tick_ = 0;
  // num_sets_ * assoc_ lines, row-major by set.
  std::vector<u64> tags_;
  std::vector<Meta> meta_;
  CacheStats stats_;
};

}  // namespace gpusim
