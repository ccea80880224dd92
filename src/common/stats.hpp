// Lightweight statistics helpers: per-application counters with interval
// snapshot semantics, running means, and histograms.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "common/sim_error.hpp"
#include "common/simstate.hpp"
#include "common/types.hpp"

namespace gpusim {

/// Raises the kInvariant error for an application index outside
/// [0, kMaxApps).  Out of line, so PerAppCounter::add stays a compare and a
/// branch on the hot path.
[[noreturn]] void throw_app_index_out_of_range(AppId app);

/// One u64 counter per application slot, with "value since last snapshot"
/// interval semantics used by the 50K-cycle estimation intervals.
class PerAppCounter {
 public:
  void add(AppId app, u64 delta = 1) {
    if (static_cast<u32>(app) >= static_cast<u32>(kMaxApps)) [[unlikely]] {
      throw_app_index_out_of_range(app);
    }
    total_[app] += delta;
  }
  u64 total(AppId app) const { return total_[app]; }
  u64 interval(AppId app) const { return total_[app] - snapshot_[app]; }
  u64 grand_total() const {
    u64 sum = 0;
    for (u64 v : total_) sum += v;
    return sum;
  }
  u64 grand_interval() const {
    u64 sum = 0;
    for (int a = 0; a < kMaxApps; ++a) sum += interval(a);
    return sum;
  }
  void snapshot() { snapshot_ = total_; }
  void reset() {
    total_.fill(0);
    snapshot_.fill(0);
  }

  template <typename Sink>
  void write_state(Sink& s) const {
    for (u64 v : total_) s.put_u64(v);
    for (u64 v : snapshot_) s.put_u64(v);
  }
  void save(StateWriter& w) const { write_state(w); }
  void hash(Hasher& h) const { write_state(h); }
  void load(StateReader& r) {
    for (auto& v : total_) v = r.get_u64();
    for (auto& v : snapshot_) v = r.get_u64();
  }

 private:
  std::array<u64, kMaxApps> total_{};
  std::array<u64, kMaxApps> snapshot_{};
};

/// Streaming mean over double samples.
class RunningMean {
 public:
  void add(double sample) {
    ++count_;
    sum_ += sample;
  }
  u64 count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / count_; }

  template <typename Sink>
  void write_state(Sink& s) const {
    s.put_u64(count_);
    s.put_double(sum_);
  }
  void save(StateWriter& w) const { write_state(w); }
  void hash(Hasher& h) const { write_state(h); }
  void load(StateReader& r) {
    count_ = r.get_u64();
    sum_ = r.get_double();
  }

 private:
  u64 count_ = 0;
  double sum_ = 0.0;
};

/// Fixed-width histogram over [0, bucket_width * num_buckets), with an
/// overflow bucket; used for the Fig. 7 error-distribution plot.
class Histogram {
 public:
  Histogram(double bucket_width, int num_buckets)
      : bucket_width_(bucket_width) {
    SIM_CHECK(bucket_width > 0.0 && num_buckets > 0,
              SimError(SimErrorKind::kConfig, "common.stats",
                       "histogram needs a positive bucket width and count")
                  .detail("bucket_width", bucket_width)
                  .detail("num_buckets", num_buckets));
    counts_.assign(static_cast<std::size_t>(num_buckets) + 1, 0);
  }

  /// `value` must be non-negative; NaN is rejected too.
  void add(double value) {
    SIM_CHECK(value >= 0.0, SimError(SimErrorKind::kInvariant, "common.stats",
                                     "negative or NaN histogram sample")
                                .detail("value", value));
    auto bucket = static_cast<std::size_t>(value / bucket_width_);
    bucket = std::min(bucket, counts_.size() - 1);
    ++counts_[bucket];
    ++total_;
  }

  int num_buckets() const { return static_cast<int>(counts_.size()) - 1; }
  u64 count(int bucket) const { return counts_[bucket]; }
  u64 overflow() const { return counts_.back(); }
  u64 total() const { return total_; }
  double fraction(int bucket) const {
    return total_ == 0 ? 0.0 : static_cast<double>(counts_[bucket]) / total_;
  }
  /// Fraction of samples strictly below `value` (value must be a bucket edge).
  double fraction_below(double value) const {
    if (total_ == 0) return 0.0;
    const int edge = static_cast<int>(std::llround(value / bucket_width_));
    u64 below = 0;
    for (int b = 0; b < std::min(edge, num_buckets()); ++b) below += counts_[b];
    return static_cast<double>(below) / total_;
  }

 private:
  double bucket_width_;
  std::vector<u64> counts_;
  u64 total_ = 0;
};

}  // namespace gpusim
