#include "sched/policies.hpp"

#include <algorithm>

#include "common/sim_error.hpp"
#include "sched/governor.hpp"

namespace gpusim {

std::vector<AppId> LeftoverPolicy::allocation(
    int num_sms, const std::vector<int>& max_sms) {
  std::vector<AppId> out(num_sms, kInvalidApp);
  int next_sm = 0;
  for (AppId app = 0; app < static_cast<AppId>(max_sms.size()); ++app) {
    const int take = std::min(max_sms[app], num_sms - next_sm);
    for (int k = 0; k < take; ++k) out[next_sm++] = app;
    if (next_sm >= num_sms) break;  // nothing left over
  }
  return out;
}

Cycle TemporalPolicy::next_event_after(Cycle now, const Gpu& gpu) const {
  if (!started_) return now;
  if (now < next_switch_) return next_switch_;
  return gpu.migration_in_progress() ? kNeverCycle : now;
}

void TemporalPolicy::fire(Cycle now, Gpu& gpu) {
  if (started_) {
    current_ = (current_ + 1) % gpu.num_apps();
    ++switches_;
  }
  started_ = true;
  next_switch_ = now + options_.quantum;
  gpu.set_partition(std::vector<AppId>(gpu.num_sms(), current_));
}

DaseQosPolicy::DaseQosPolicy(DaseModel* model, DaseQosOptions options)
    : model_(model), options_(options) {
  SIM_CHECK(model_ != nullptr,
            SimError(SimErrorKind::kHarness, "sched.dase_qos",
                     "DASE-QoS policy constructed without a DASE model"));
  SIM_CHECK(options_.target_slowdown >= 1.0,
            SimError(SimErrorKind::kConfig, "sched.dase_qos",
                     "target_slowdown must be at least 1.0")
                .detail("target_slowdown", options_.target_slowdown));
}

void DaseQosPolicy::on_interval(const IntervalSample& sample, Gpu& gpu) {
  (void)sample;
  if (++intervals_seen_ <= options_.warmup_intervals) return;
  if (gpu.migration_in_progress()) return;

  const int num_apps = gpu.num_apps();
  const AppId qos = options_.qos_app;
  SIM_CHECK(qos >= 0 && qos < num_apps,
            SimError(SimErrorKind::kConfig, "sched.dase_qos",
                     "qos_app is not an application of this co-run")
                .app(qos)
                .detail("num_apps", num_apps));
  const auto& estimates = model_->latest();
  if (static_cast<int>(estimates.size()) != num_apps ||
      !estimates[qos].valid) {
    return;
  }

  const double estimate = estimates[qos].slowdown_all;
  const int have = gpu.sms_assigned(qos);
  int want = have;
  if (estimate > options_.target_slowdown) {
    want = have + 1;  // grow: the QoS target is being violated
  } else if (estimate <
             options_.target_slowdown * (1.0 - options_.release_margin)) {
    want = have - 1;  // shrink: give head-room back to the others
  }
  // Feasibility: every other app keeps its minimum share.
  const int max_qos_sms =
      gpu.num_sms() - options_.min_sms_per_app * (num_apps - 1);
  want = std::clamp(want, options_.min_sms_per_app, max_qos_sms);
  if (want == have) return;

  // Build the new assignment: QoS app first, the rest split evenly.
  std::vector<AppId> assignment = gpu.current_partition();
  if (want > have) {
    // Take SMs from the most-endowed other app, one at a time.
    int needed = want - have;
    while (needed > 0) {
      AppId victim = kInvalidApp;
      int victim_sms = options_.min_sms_per_app;
      for (AppId a = 0; a < num_apps; ++a) {
        if (a == qos) continue;
        const int sms = static_cast<int>(
            std::count(assignment.begin(), assignment.end(), a));
        if (sms > victim_sms) {
          victim = a;
          victim_sms = sms;
        }
      }
      if (victim == kInvalidApp) break;
      const auto it =
          std::find(assignment.begin(), assignment.end(), victim);
      *it = qos;
      --needed;
    }
  } else {
    // Release SMs to the least-endowed other app, lowest-indexed QoS SM
    // first.  `have` counts the QoS app's entries in `assignment`, so the
    // walk always finds `to_release` of them.
    int to_release = have - want;
    for (auto it = assignment.begin();
         to_release > 0 && it != assignment.end(); ++it) {
      if (*it != qos) continue;
      AppId beneficiary = kInvalidApp;
      int beneficiary_sms = gpu.num_sms() + 1;
      for (AppId a = 0; a < num_apps; ++a) {
        if (a == qos) continue;
        const int sms = static_cast<int>(
            std::count(assignment.begin(), assignment.end(), a));
        if (sms < beneficiary_sms) {
          beneficiary = a;
          beneficiary_sms = sms;
        }
      }
      *it = beneficiary;
      --to_release;
    }
  }
  if (sink_ != nullptr) {
    if (sink_->propose_partition(gpu, assignment)) ++adjustments_;
  } else {
    gpu.set_partition(assignment);
    ++adjustments_;
  }
}

}  // namespace gpusim
