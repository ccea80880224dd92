#include "sched/dase_fair.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "common/sim_error.hpp"
#include "sched/governor.hpp"

namespace gpusim {

namespace {

/// Unfairness (Eq. 2) of the predicted slowdowns for one candidate split.
double predicted_unfairness(const std::vector<double>& reciprocals,
                            const std::vector<int>& assigned,
                            const std::vector<int>& counts, int total) {
  double max_s = 0.0;
  double min_s = std::numeric_limits<double>::max();
  for (std::size_t i = 0; i < reciprocals.size(); ++i) {
    const double r = DaseFairPolicy::interpolate_reciprocal(
        reciprocals[i], assigned[i], counts[i], total);
    const double slowdown = 1.0 / std::max(r, 1e-6);
    max_s = std::max(max_s, slowdown);
    min_s = std::min(min_s, slowdown);
  }
  return max_s / min_s;
}

void enumerate_splits(int apps_left, int sms_left, int min_per_app,
                      std::vector<int>& current,
                      const std::function<void(const std::vector<int>&)>& fn) {
  if (apps_left == 1) {
    if (sms_left >= min_per_app) {
      current.push_back(sms_left);
      fn(current);
      current.pop_back();
    }
    return;
  }
  for (int x = min_per_app; x <= sms_left - min_per_app * (apps_left - 1);
       ++x) {
    current.push_back(x);
    enumerate_splits(apps_left - 1, sms_left - x, min_per_app, current, fn);
    current.pop_back();
  }
}

}  // namespace

bool dase_fair_eligible(const KernelProfile& profile) {
  // Enough thread blocks to repopulate a grown SM share for a meaningful
  // time, and blocks long enough to outlive an SM drain.
  constexpr int kMinBlocks = 64;
  constexpr u64 kMinInstrsPerWarp = 500;
  return profile.blocks_total >= kMinBlocks &&
         profile.instrs_per_warp >= kMinInstrsPerWarp;
}

void DaseFairOptions::validate() const {
  SIM_CHECK(warmup_intervals >= 0,
            SimError(SimErrorKind::kConfig, "sched.dase_fair",
                     "warmup_intervals must be non-negative")
                .detail("warmup_intervals", warmup_intervals));
  SIM_CHECK(min_improvement >= 0.0 && min_improvement < 1.0,
            SimError(SimErrorKind::kConfig, "sched.dase_fair",
                     "min_improvement must be in [0, 1)")
                .detail("min_improvement", min_improvement));
  SIM_CHECK(min_sms_per_app >= 1,
            SimError(SimErrorKind::kConfig, "sched.dase_fair",
                     "min_sms_per_app must be at least 1")
                .detail("min_sms_per_app", min_sms_per_app));
}

DaseFairPolicy::DaseFairPolicy(DaseModel* model, DaseFairOptions options)
    : model_(model), options_(options) {
  SIM_CHECK(model_ != nullptr,
            SimError(SimErrorKind::kHarness, "sched.dase_fair",
                     "DASE-Fair policy constructed without a DASE model"));
  options_.validate();
}

double DaseFairPolicy::interpolate_reciprocal(double reciprocal, int assigned,
                                              int x, int total) {
  reciprocal = std::clamp(reciprocal, 0.0, 1.0);
  if (x == assigned) return reciprocal;
  if (x > assigned) {
    // Eq. 29: towards reciprocal 1 when the app owns every SM.
    if (assigned >= total) return 1.0;
    return reciprocal + static_cast<double>(x - assigned) /
                            static_cast<double>(total - assigned) *
                            (1.0 - reciprocal);
  }
  // Eq. 30: towards reciprocal 0 at zero SMs.
  if (assigned <= 0) return 0.0;
  return reciprocal - static_cast<double>(assigned - x) /
                          static_cast<double>(assigned) * reciprocal;
}

std::vector<int> DaseFairPolicy::search_best_split(
    const std::vector<double>& reciprocals, const std::vector<int>& assigned,
    int total, int min_per_app, double* best_unfairness_out) {
  SIM_CHECK(!reciprocals.empty(),
            SimError(SimErrorKind::kInvariant, "sched.dase_fair",
                     "split search over zero applications"));
  // predicted_unfairness() indexes `assigned` by application.
  SIM_CHECK(reciprocals.size() == assigned.size(),
            SimError(SimErrorKind::kInvariant, "sched.dase_fair",
                     "reciprocal and SM-count vectors differ in size")
                .detail("reciprocals", reciprocals.size())
                .detail("assigned", assigned.size()));
  std::vector<int> best;
  double best_unfairness = std::numeric_limits<double>::max();
  std::vector<int> current;
  enumerate_splits(static_cast<int>(reciprocals.size()), total, min_per_app,
                   current, [&](const std::vector<int>& counts) {
                     const double u = predicted_unfairness(
                         reciprocals, assigned, counts, total);
                     if (u < best_unfairness) {
                       best_unfairness = u;
                       best = counts;
                     }
                   });
  if (best_unfairness_out != nullptr) *best_unfairness_out = best_unfairness;
  return best;
}

void DaseFairPolicy::on_interval(const IntervalSample& sample, Gpu& gpu) {
  (void)sample;
  if (++intervals_seen_ <= options_.warmup_intervals) return;
  if (gpu.migration_in_progress()) return;

  const int num_apps = gpu.num_apps();
  for (AppId a = 0; a < num_apps; ++a) {
    if (!dase_fair_eligible(gpu.runtime(a).profile())) return;
  }

  const auto& estimates = model_->latest();
  if (static_cast<int>(estimates.size()) != num_apps) return;

  std::vector<double> reciprocals(num_apps);
  std::vector<int> assigned(num_apps);
  for (AppId a = 0; a < num_apps; ++a) {
    if (!estimates[a].valid) return;
    reciprocals[a] = 1.0 / std::max(1.0, estimates[a].slowdown_all);  // Eq. 28
    assigned[a] = gpu.sms_assigned(a);
    if (assigned[a] == 0) return;  // mid-handover; wait
  }

  double best_unfairness = 0.0;
  const std::vector<int> best =
      search_best_split(reciprocals, assigned, gpu.num_sms(),
                        options_.min_sms_per_app, &best_unfairness);
  if (best.empty() || best == assigned) return;

  const double current_unfairness = predicted_unfairness(
      reciprocals, assigned, assigned, gpu.num_sms());
  if (best_unfairness >= current_unfairness * (1.0 - options_.min_improvement)) {
    return;  // not enough predicted gain to pay the drain cost
  }

  const std::vector<AppId> assignment = build_assignment(gpu, best);
  if (sink_ != nullptr) {
    if (sink_->propose_partition(gpu, assignment)) ++repartitions_;
  } else {
    gpu.set_partition(assignment);
    ++repartitions_;
  }
}

std::vector<AppId> DaseFairPolicy::build_assignment(
    Gpu& gpu, const std::vector<int>& counts) const {
  // Keep currently-owned SMs in place where possible to minimise draining.
  std::vector<AppId> assignment = gpu.current_partition();
  std::vector<int> need = counts;
  // Pass 1: retain up to `counts[a]` of each app's existing SMs.
  for (AppId& owner : assignment) {
    if (owner == kInvalidApp) continue;
    if (need[owner] > 0) {
      --need[owner];
    } else {
      owner = kInvalidApp;  // surplus SM: release
    }
  }
  // Pass 2: hand freed / idle SMs to apps still short.
  AppId next = 0;
  for (AppId& owner : assignment) {
    if (owner != kInvalidApp) continue;
    while (next < static_cast<AppId>(need.size()) && need[next] == 0) ++next;
    if (next >= static_cast<AppId>(need.size())) break;
    owner = next;
    --need[next];
  }
  return assignment;
}

}  // namespace gpusim
