#include "kernels/workload_sets.hpp"

#include <algorithm>
#include <set>

#include "common/rng.hpp"
#include "common/sim_error.hpp"
#include "kernels/app_registry.hpp"

namespace gpusim {

std::string Workload::label() const {
  std::string out;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    if (i > 0) out += '+';
    out += apps[i].abbr;
  }
  return out;
}

std::vector<Workload> all_two_app_workloads() {
  const auto& apps = app_registry();
  std::vector<Workload> out;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    for (std::size_t j = i + 1; j < apps.size(); ++j) {
      out.push_back(Workload{{apps[i], apps[j]}});
    }
  }
  return out;
}

std::vector<Workload> random_four_app_workloads(int count, u64 seed) {
  const auto& apps = app_registry();
  const int n = static_cast<int>(apps.size());
  // The draw below loops until it has `count` distinct quads, so asking for
  // more than C(n, 4) would never return.
  const long long quads = static_cast<long long>(n) * (n - 1) * (n - 2) *
                          (n - 3) / 24;
  SIM_CHECK(count <= quads,
            SimError(SimErrorKind::kConfig, "kernels.workload_sets",
                     "more distinct four-app workloads requested than exist")
                .detail("count", count)
                .detail("apps", n)
                .detail("distinct_quads", quads));
  Rng rng(seed);
  std::set<std::vector<int>> seen;
  std::vector<Workload> out;
  while (static_cast<int>(out.size()) < count) {
    std::vector<int> pick;
    while (static_cast<int>(pick.size()) < 4) {
      const int candidate = static_cast<int>(rng.next_below(n));
      if (std::find(pick.begin(), pick.end(), candidate) == pick.end()) {
        pick.push_back(candidate);
      }
    }
    std::vector<int> key = pick;
    std::sort(key.begin(), key.end());
    if (!seen.insert(key).second) continue;
    Workload w;
    for (int idx : pick) w.apps.push_back(apps[idx]);
    out.push_back(std::move(w));
  }
  return out;
}

std::vector<Workload> motivation_workloads() {
  auto pair = [](const char* a, const char* b) {
    return Workload{{*find_app(a), *find_app(b)}};
  };
  // Five combinations spanning the intensity spectrum; the fourth is the
  // SD+SA pair the paper analyses in detail (Fig. 2 fourth bar).
  return {pair("SD", "BS"), pair("QR", "SB"), pair("CT", "VA"),
          pair("SD", "SA"), pair("NN", "AT")};
}

std::vector<Workload> random_two_app_workloads(int count, u64 seed) {
  auto all = all_two_app_workloads();
  Rng rng(seed);
  // Fisher-Yates prefix shuffle.
  const int n = static_cast<int>(all.size());
  const int take = std::min(count, n);
  for (int i = 0; i < take; ++i) {
    const int j = i + static_cast<int>(rng.next_below(n - i));
    std::swap(all[i], all[j]);
  }
  all.resize(take);
  return all;
}

}  // namespace gpusim
