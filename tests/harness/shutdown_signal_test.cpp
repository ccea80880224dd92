// Real-signal process tests (fork + kill), pinning two contracts that
// in-process unit tests cannot reach:
//
//   1. the shutdown handler's escape hatch: the first SIGINT/SIGTERM
//      requests a drain, the second hard-exits with status 130 from the
//      async-signal-safe handler itself;
//   2. crash-bundle atomicity under arbitrary process death: a SIGTERM
//      landing mid-emission may leave a ".tmp-" work directory behind, but
//      every *published* bundle directory is complete — rename-after-
//      manifest is the commit point, so a torn bundle is never visible
//      under its published name.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>

#include "common/sim_error.hpp"
#include "harness/crash_bundle.hpp"
#include "harness/runner.hpp"
#include "harness/shutdown.hpp"
#include "harness/triage.hpp"
#include "kernels/app_registry.hpp"

namespace gpusim {
namespace {

namespace fs = std::filesystem;

fs::path test_dir() {
  return fs::temp_directory_path() /
         ("gpusim_signal_" +
          std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
          "_" +
          ::testing::UnitTest::GetInstance()->current_test_info()->name());
}

int wait_for_exit(pid_t child) {
  int status = 0;
  waitpid(child, &status, 0);
  EXPECT_TRUE(WIFEXITED(status)) << "child must exit, not die on a signal";
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(ShutdownSignalTest, FirstSignalDrainsSecondSignalHardExits130) {
  // Child A: one signal only — the handler must set the drain flag and
  // let the process keep running (it exits 42 itself).
  pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    install_shutdown_handlers();
    raise(SIGTERM);
    _exit(shutdown_requested() ? 42 : 43);
  }
  EXPECT_EQ(wait_for_exit(child), 42)
      << "one signal must drain, not terminate";

  // Child B: a second signal while the drain is still pending must
  // hard-exit 130 straight from the handler — the operator's escape hatch
  // out of a wedged drain.
  child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    install_shutdown_handlers();
    raise(SIGTERM);   // drain requested
    raise(SIGINT);    // operator is done waiting: _exit(130) in the handler
    _exit(44);        // unreachable if the contract holds
  }
  EXPECT_EQ(wait_for_exit(child), 130);
}

TEST(ShutdownSignalTest, SigtermMidEmissionNeverPublishesATornBundle) {
  const fs::path dir = test_dir();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path bundle_root = dir / "bundles";

  // Child: crash-loop with bundling armed.  No shutdown handlers — the
  // parent's SIGTERM takes the default disposition and kills the process
  // at an arbitrary instruction, the harshest version of the race.
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    for (int i = 0; i < 200; ++i) {
      RunConfig rc;
      rc.co_run_cycles = 10'000;
      rc.cycle_budget = 2'000;
      rc.crash_bundle_dir = bundle_root.string();
      Workload w;
      w.apps.push_back(*find_app("SD"));
      w.apps.push_back(*find_app("SA"));
      try {
        ExperimentRunner runner(rc);
        runner.run(w, ModelSet{.dase = true});
      } catch (const SimError&) {
      }
    }
    _exit(0);
  }

  // Kill shortly after the first bundle publishes, while later emissions
  // are in flight.  The child's ".tmp-" work directory appears before any
  // bundle is published, so only a non-".tmp-" entry counts.
  auto any_published = [&bundle_root] {
    std::error_code ec;
    for (fs::directory_iterator it(bundle_root, ec), end; !ec && it != end;
         it.increment(ec)) {
      if (it->path().filename().string().rfind(".tmp-", 0) != 0) return true;
    }
    return false;
  };
  for (int i = 0; i < 60'000; ++i) {
    if (any_published()) break;
    if (waitpid(child, nullptr, WNOHANG) == child) {
      FAIL() << "child finished before producing any bundle";
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  kill(child, SIGTERM);
  int status = 0;
  waitpid(child, &status, 0);

  // Every published (non-".tmp-") directory must be a complete bundle:
  // manifest present, parseable, and triageable to a bit-exact VERIFIED.
  ASSERT_TRUE(fs::exists(bundle_root));
  int published = 0;
  int tmp_dirs = 0;
  for (const auto& entry : fs::directory_iterator(bundle_root)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(".tmp-", 0) == 0) {
      ++tmp_dirs;  // interrupted work-in-progress: legal, loaders skip it
      continue;
    }
    ++published;
    EXPECT_TRUE(fs::exists(entry.path() / "manifest.json"))
        << name << " published without its completeness marker";
    EXPECT_NO_THROW(read_crash_bundle_manifest(entry.path().string()))
        << name;
    std::ostringstream out;
    EXPECT_EQ(run_triage(entry.path().string(), out), 0)
        << name << ":\n" << out.str();
  }
  EXPECT_GE(published, 1);
  // (tmp_dirs may be 0 or 1 depending on where the signal landed; both
  // are correct.  What must never exist is a published torn bundle.)
  (void)tmp_dirs;

  fs::remove_all(dir);
}

}  // namespace
}  // namespace gpusim
