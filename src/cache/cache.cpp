#include "cache/cache.hpp"

#include <bit>

#include "common/sim_error.hpp"

namespace gpusim {

SetAssocCache::SetAssocCache(int num_sets, int assoc, int line_bytes)
    : num_sets_(num_sets), assoc_(assoc) {
  SIM_CHECK(num_sets_ > 0 && assoc_ > 0,
            SimError(SimErrorKind::kConfig, "cache.set_assoc",
                     "cache geometry must be positive")
                .detail("num_sets", num_sets_)
                .detail("assoc", assoc_));
  SIM_CHECK(line_bytes > 0 && std::has_single_bit(static_cast<u32>(line_bytes)),
            SimError(SimErrorKind::kConfig, "cache.set_assoc",
                     "line size must be a power of two")
                .detail("line_bytes", line_bytes));
  line_shift_ = std::countr_zero(static_cast<u32>(line_bytes));
  sets_pow2_ = std::has_single_bit(static_cast<u32>(num_sets_));
  set_mask_ = static_cast<u64>(num_sets_) - 1;
  const std::size_t lines = static_cast<std::size_t>(num_sets_) * assoc_;
  tags_.resize(lines);
  meta_.resize(lines);
}

int SetAssocCache::victim_way(int set) const {
  const int first = set * assoc_;
  int victim = first;
  for (int w = first; w < first + assoc_; ++w) {
    if (!meta_[w].valid) return w;
    if (meta_[w].lru_stamp < meta_[victim].lru_stamp) victim = w;
  }
  return victim;
}

CacheAccessResult SetAssocCache::install(int way, u64 tag, AppId app) {
  Meta& m = meta_[way];
  CacheAccessResult result;
  if (m.valid) {
    result.evicted = true;
    result.victim_app = m.app;
    ++stats_.evictions;
    if (m.app != app) ++stats_.cross_app_evictions;
  }
  tags_[way] = tag;
  m.valid = true;
  m.app = app;
  m.lru_stamp = tick_;
  return result;
}

CacheAccessResult SetAssocCache::fill(u64 addr, AppId app) {
  ++tick_;
  const int way = find_way(addr);
  if (way != kNoWay) {
    // Already present (e.g. refilled by a racing fill); just refresh.
    meta_[way].lru_stamp = tick_;
    meta_[way].app = app;
    return {.hit = true};
  }
  return install(victim_way(set_index(addr)), line_addr(addr), app);
}

CacheAccessResult SetAssocCache::access(u64 addr, AppId app) {
  const int way = find_way(addr);
  touch(way, app);
  if (way != kNoWay) return {.hit = true};
  return install(victim_way(set_index(addr)), line_addr(addr), app);
}

void SetAssocCache::clear() {
  for (Meta& m : meta_) m.valid = false;
  tick_ = 0;
  stats_ = {};
}

}  // namespace gpusim
