// Priority-epoch driver for the MISE / ASM baselines.
//
// Both CPU models rest on the observation that "assigning memory requests
// of an application the highest priority ... can mitigate most interference
// from other applications" (paper Section III-B).  They therefore slice
// each estimation interval so every application periodically receives
// absolute priority at all memory controllers: the request service rate
// measured inside an application's own epochs approximates its
// alone-request-service-rate (ARSR), and the rate during the no-priority
// remainder is its shared-request-service-rate (SRSR).
//
// The paper's critique — which this reproduction demonstrates — is that on
// a GPU these epochs do NOT isolate the application: the co-runner's
// requests already occupying banks, queues and the data bus keep being
// served, because GPU request counts are far higher than on CPUs.
#pragma once

#include "common/sim_error.hpp"
#include "gpu/simulator.hpp"

namespace gpusim {

class PriorityEpochDriver final : public CycleHook {
 public:
  /// Schedules, inside every window of `interval` cycles, one priority
  /// epoch of `epoch_length` cycles per application (placed back-to-back
  /// at the window's end); the rest of the window runs without priority.
  PriorityEpochDriver(Cycle interval, Cycle epoch_length, int num_apps)
      : interval_(interval), epoch_length_(epoch_length), num_apps_(num_apps) {
    SIM_CHECK(num_apps_ > 0,
              SimError(SimErrorKind::kConfig, "baselines.priority_epochs",
                       "priority epochs need at least one application")
                  .detail("num_apps", num_apps_));
    SIM_CHECK(epoch_length_ * static_cast<Cycle>(num_apps_) < interval_,
              SimError(SimErrorKind::kConfig, "baselines.priority_epochs",
                       "epochs must leave a no-priority measurement region")
                  .detail("interval", interval_)
                  .detail("epoch_length", epoch_length_)
                  .detail("num_apps", num_apps_));
  }

  /// Convenient default: each app's epoch is 5% of the interval.
  static PriorityEpochDriver with_defaults(const GpuConfig& cfg,
                                           int num_apps) {
    return PriorityEpochDriver(cfg.estimation_interval,
                               cfg.estimation_interval / 20, num_apps);
  }

  /// The next cycle at or after `now` whose priority differs from the one
  /// in force: `now` itself when the driver is out of step (first call,
  /// restore), otherwise the next epoch or window boundary.  Adjacent
  /// segments of a window always differ, so every boundary is an event.
  Cycle next_event_after(Cycle now, const Gpu&) const override {
    if (priority_at(now) != current_) return now;
    const Cycle pos = now % interval_;
    const Cycle window_start = now - pos;
    const Cycle begin = epochs_begin();
    if (pos < begin) return window_start + begin;
    return window_start + begin +
           ((pos - begin) / epoch_length_ + 1) * epoch_length_;
  }

  void fire(Cycle now, Gpu& gpu) override {
    current_ = priority_at(now);
    gpu.set_priority_app(current_);
  }

  void save_state(StateWriter& w) const override { write_hook_state(w); }
  void hash_state(Hasher& h) const override { write_hook_state(h); }
  void load_state(StateReader& r) override {
    r.expect_tag("EPCH");
    current_ = r.get_i32();
  }

 private:
  Cycle epochs_begin() const {
    return interval_ - epoch_length_ * static_cast<Cycle>(num_apps_);
  }
  /// The app holding priority at `now` (kInvalidApp outside the epochs).
  AppId priority_at(Cycle now) const {
    const Cycle pos = now % interval_;
    if (pos < epochs_begin()) return kInvalidApp;
    return static_cast<AppId>((pos - epochs_begin()) / epoch_length_);
  }

  template <typename Sink>
  void write_hook_state(Sink& s) const {
    s.put_tag("EPCH");
    s.put_i32(current_);
  }

  Cycle interval_;
  Cycle epoch_length_;
  int num_apps_;
  AppId current_ = kInvalidApp;
};

}  // namespace gpusim
