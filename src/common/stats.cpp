#include "common/stats.hpp"

namespace gpusim {

void throw_app_index_out_of_range(AppId app) {
  SIM_FAIL(SimError(SimErrorKind::kInvariant, "common.stats",
                    "per-application counter indexed out of range")
               .app(app)
               .detail("max_apps", kMaxApps));
}

}  // namespace gpusim
