// Additional SM-allocation policies referenced by the paper.
//
// * LeftoverPolicy — the paper's Section II background: current GPUs most
//   likely use LEFTOVER, which "launches a next kernel only when there are
//   enough remaining resources after the previous kernel was issued".  A
//   grid large enough to occupy the whole GPU therefore starves every
//   later application — the paper's argument for flexible spatial
//   multitasking, reproducible with bench/policy_comparison.
//
// * TemporalPolicy — conventional temporal multitasking (Section II):
//   applications time-share the *entire* GPU in turns.  Switches use the
//   same drain mechanism as SM migration, so the context-switch cost the
//   paper's related work worries about (Chimera et al.) appears naturally.
//
// * DaseQosPolicy — the paper's stated future work ("design more
//   slowdown-aware scheduling policies to provide better QoS guarantees"):
//   a feedback controller that holds one designated application's
//   DASE-estimated slowdown below a target by growing/shrinking its SM
//   share, leaving the rest to the other applications.
#pragma once

#include "dase/dase_model.hpp"
#include "gpu/simulator.hpp"

namespace gpusim {

class PartitionSink;

/// Gives the first application every SM it can occupy; later applications
/// only receive SMs the first one left over (none, for full-GPU grids).
class LeftoverPolicy final : public IntervalObserver {
 public:
  /// Applies the LEFTOVER allocation for `num_apps` applications on
  /// `num_sms` SMs given each app's maximum occupancy in SMs (a full-GPU
  /// grid occupies them all).
  static std::vector<AppId> allocation(int num_sms,
                                       const std::vector<int>& max_sms);

  void on_interval(const IntervalSample&, Gpu&) override {}  // static policy
};

struct TemporalOptions {
  /// Cycles each application owns the full GPU before the next switch is
  /// requested (drains add on top).
  Cycle quantum = 100'000;
};

class TemporalPolicy final : public CycleHook {
 public:
  explicit TemporalPolicy(TemporalOptions options = {})
      : options_(options) {}

  /// The start (first query) and each quantum end; a quantum that ends
  /// while the previous switch is still draining fires on the first cycle
  /// after the drain completes.
  Cycle next_event_after(Cycle now, const Gpu& gpu) const override;
  /// Hands the whole GPU to the first application (start) or the next one.
  void fire(Cycle now, Gpu& gpu) override;

  u64 switches() const { return switches_; }

  void save_state(StateWriter& w) const override { write_hook_state(w); }
  void hash_state(Hasher& h) const override { write_hook_state(h); }
  void load_state(StateReader& r) override {
    r.expect_tag("TMPL");
    current_ = r.get_i32();
    next_switch_ = r.get_u64();
    started_ = r.get_bool();
    switches_ = r.get_u64();
  }

 private:
  template <typename Sink>
  void write_hook_state(Sink& s) const {
    s.put_tag("TMPL");
    s.put_i32(current_);
    s.put_u64(next_switch_);
    s.put_bool(started_);
    s.put_u64(switches_);
  }

  TemporalOptions options_;
  AppId current_ = 0;
  Cycle next_switch_ = 0;
  bool started_ = false;
  u64 switches_ = 0;
};

struct DaseQosOptions {
  AppId qos_app = 0;
  /// The slowdown the QoS application must stay at or below.
  double target_slowdown = 2.0;
  /// Hysteresis band: shrink only when the estimate is below
  /// target * (1 - release_margin).
  double release_margin = 0.15;
  int warmup_intervals = 1;
  int min_sms_per_app = 1;
};

class DaseQosPolicy final : public IntervalObserver {
 public:
  DaseQosPolicy(DaseModel* model, DaseQosOptions options = {});

  void on_interval(const IntervalSample& sample, Gpu& gpu) override;

  /// Routes partition changes through `sink` (the PolicyGovernor) instead
  /// of calling Gpu::set_partition directly; nullptr restores the direct
  /// path.  adjustments() only counts proposals the sink forwarded.
  void set_partition_sink(PartitionSink* sink) { sink_ = sink; }

  u64 adjustments() const { return adjustments_; }

  void save_state(StateWriter& w) const override { write_obs_state(w); }
  void hash_state(Hasher& h) const override { write_obs_state(h); }
  void load_state(StateReader& r) override {
    r.expect_tag("QOSP");
    intervals_seen_ = r.get_i32();
    adjustments_ = r.get_u64();
  }

 private:
  template <typename Sink>
  void write_obs_state(Sink& s) const {
    s.put_tag("QOSP");
    s.put_i32(intervals_seen_);
    s.put_u64(adjustments_);
  }

  DaseModel* model_;
  DaseQosOptions options_;
  PartitionSink* sink_ = nullptr;
  int intervals_seen_ = 0;
  u64 adjustments_ = 0;
};

}  // namespace gpusim
