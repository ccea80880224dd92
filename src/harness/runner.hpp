// Experiment harness implementing the paper's measurement methodology
// (Section V): run a multiprogrammed workload for a fixed cycle budget,
// then determine each application's *actual* slowdown by replaying the
// same number of instructions alone on the full GPU; attach the requested
// slowdown estimators to the co-run and report their per-application
// estimates alongside.
#pragma once

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/fault_injection.hpp"
#include "common/loop_profiler.hpp"
#include "kernels/workload_sets.hpp"
#include "sched/policies.hpp"
#include "telemetry/hub.hpp"

namespace gpusim {

class Simulation;
class DaseModel;
class MiseModel;
class AsmModel;
class PriorityEpochDriver;
class DaseFairPolicy;
class PolicyGovernor;

struct RunConfig {
  GpuConfig gpu;
  /// Co-run length.  The paper uses 5M cycles; the default here is 300K,
  /// which our stationary synthetic kernels reach steady state well
  /// within (see tests/harness/methodology_test).  Override via the
  /// REPRO_CORUN_CYCLES environment variable in the bench binaries.
  Cycle co_run_cycles = 300'000;
  /// Safety cap for the alone-replay runs.
  Cycle max_alone_cycles = 3'000'000;
  u64 base_seed = 42;

  enum class AloneMode {
    /// Replay the co-run's exact instruction count alone on all SMs
    /// (the paper's methodology).  Each replay depends only on its app's
    /// seed and instruction target, so run() splits them between the
    /// caller and its alone lane.
    kExactReplay,
    /// Use a cached steady-state alone IPC per application (our kernels
    /// are stationary, so this is nearly identical and much cheaper for
    /// the 105-pair sweeps; the equivalence is test-asserted).  A baseline
    /// depends only on (config, profile, base seed, cycles), never on the
    /// co-run, so run() measures the missing ones beside the co-run.
    kCachedIpc,
  };
  AloneMode alone_mode = AloneMode::kExactReplay;

  /// Options for the corresponding PolicyKind.
  TemporalOptions temporal;
  DaseQosOptions qos;

  /// Policy safety governor (sched/governor.hpp; --no-governor clears
  /// it).  The governor observer is attached either way so the SimState
  /// walk keeps one shape; like the watchdog threshold this is caller
  /// configuration, not simulated state, so a snapshot taken with the
  /// governor on restores fine with it off (and vice versa).
  bool governor = true;
  /// Loop profiler attached to the co-run Simulation (nullptr = none;
  /// --profile-loop).  Must outlive the runner calls that use this config.
  LoopProfiler* profiler = nullptr;

  /// SimGuard: progress-watchdog stall threshold applied to every
  /// simulation this runner drives (0 disables; default matches
  /// Simulation::kDefaultWatchdogCycles).
  Cycle watchdog_cycles = 1'000'000;
  /// SimGuard: audit end-to-end request conservation after each co-run
  /// (skipped automatically when faults are being injected).
  bool verify_conservation = true;
  /// SimGuard: fault schedule to inject into the co-run (empty by default;
  /// used by tests, the chaos engine and the CLI to exercise the watchdog,
  /// the auditor and the recovery path).
  FaultSchedule faults;

  // ---- SimState checkpointing (see gpu/snapshot.hpp) ----
  /// Snapshot the co-run every this many cycles (0 disables).  Each
  /// workload writes one "<label>.simstate" file into `snapshot_dir`; when
  /// that file already exists at run() entry with a matching fingerprint,
  /// the co-run resumes from it mid-simulation (so a killed process picks
  /// up where it died), and the file is deleted once the co-run
  /// completes.  A stale or mismatched file is skipped with a warning.
  /// Compatible with fault injection: the injector's progress counters and
  /// RNG ride along in the snapshot, and the schedule is folded into the
  /// snapshot fingerprint.
  Cycle snapshot_every = 0;
  /// Directory for auto-resume snapshot files (created if missing).
  std::string snapshot_dir = ".";
  /// Restore the co-run from this exact snapshot file before running
  /// (single-run use; unlike auto-resume, any restore failure is fatal).
  std::string restore_path;

  // ---- JobManager run limits (see gpu/simulator.hpp) --------------------
  /// Absolute wall-clock deadline applied to every Simulation this runner
  /// drives (co-run and alone replays).  Crossing it raises
  /// SimError(kDeadlineExceeded).  Default-constructed = no deadline.
  /// Absolute (not per-run) on purpose: a sweep job's pairs all share the
  /// job's one deadline.
  std::chrono::steady_clock::time_point wall_deadline{};
  /// Cycle cap per Simulation; raises SimError(kBudgetExceeded).  Guards
  /// runaway alone-replays as well as the co-run.  0 = none.
  Cycle cycle_budget = 0;
  /// DRAM requests-served cap per Simulation; raises
  /// SimError(kBudgetExceeded).  0 = none.
  u64 mem_budget = 0;
  /// Cooperative cancellation flag (typically the process shutdown flag).
  /// When it turns true the co-run raises SimError(kInterrupted) at the
  /// next sampling point; with snapshotting enabled, a snapshot is written
  /// first so a resumed run continues byte-identically.
  const std::atomic<bool>* cancel = nullptr;

  // ---- Crash forensics (see harness/crash_bundle.hpp) -------------------
  /// When non-empty, any terminal SimError escaping the co-run — watchdog
  /// stall, conservation failure, budget/deadline kill, guard trip —
  /// emits a self-contained crash-bundle directory under this root before
  /// the error propagates.  Graceful cancellation (kInterrupted) never
  /// bundles: the auto-resume snapshot already preserves that state.
  /// Empty (off) by default in the library; the CLI defaults it on.
  std::string crash_bundle_dir;
  /// Mode tag recorded in bundle manifests ("run", "sweep", "chaos",
  /// "jobs") so a triage session knows which path assembled the failure.
  std::string crash_bundle_mode = "run";

  // ---- Telemetry (see telemetry/hub.hpp) --------------------------------
  /// Output paths for the per-interval time series / Chrome trace /
  /// Prometheus snapshot.  The TelemetryHub observer records regardless
  /// (its buffers are simulated state, serialized in the SimState walk);
  /// these paths only decide whether files get flushed at the end of the
  /// co-run, so enabling them cannot change any simulated outcome.  Batch
  /// modes set `telemetry.dir` and each unit writes per-label files.
  TelemetryPaths telemetry;
};

struct ModelSet {
  bool dase = true;
  bool mise = false;
  bool asm_model = false;
  bool any_epoch_model() const { return mise || asm_model; }
};

enum class PolicyKind {
  kEven,      ///< static even split (the paper's default)
  kDaseFair,  ///< the paper's Section VII policy
  kLeftover,  ///< Section II background: first kernel takes everything
  kTemporal,  ///< conventional temporal multitasking (full-GPU turns)
  kDaseQos,   ///< future-work QoS controller on top of DASE
};

/// CLI/manifest spelling of a policy ("even", "dase-fair", ...).
const char* to_string(PolicyKind policy);
/// Inverse of to_string(PolicyKind); throws SimError(kConfig) on an
/// unknown name.  Used by the CLI and by --triage manifest loading.
PolicyKind parse_policy_kind(const std::string& name);

/// Everything about the *harness* side of an experiment that a snapshot is
/// only valid against: the run length and seed plus the attached models,
/// policy, SM split and armed fault schedule (which all shape the observer
/// list and partition).  Mixed into the snapshot-file fingerprint alongside
/// config + workload; --triage recomputes it from a bundle manifest.
u64 harness_context_of(const RunConfig& rc, const ModelSet& models,
                       PolicyKind policy, const std::vector<int>* sm_split);

/// One fully assembled co-run: the Simulation plus owning pointers for
/// every attached model, policy and the fault injector.  Move-only; the
/// observers hold raw pointers into the Simulation (and into each other —
/// DASE-Fair reads the DASE model), so the assembly must outlive any use
/// of `sim`.  Members are null when the corresponding model/policy is not
/// part of the requested ModelSet/PolicyKind.
struct CoRunAssembly {
  CoRunAssembly();
  CoRunAssembly(CoRunAssembly&&) noexcept;
  CoRunAssembly& operator=(CoRunAssembly&&) noexcept;
  ~CoRunAssembly();

  std::unique_ptr<Simulation> sim;
  std::unique_ptr<FaultInjector> injector;  ///< attached iff rc.faults.any()
  std::unique_ptr<DaseModel> dase;
  std::unique_ptr<MiseModel> mise;
  std::unique_ptr<AsmModel> asm_model;
  std::unique_ptr<PriorityEpochDriver> epochs;
  std::unique_ptr<DaseFairPolicy> fair;
  std::unique_ptr<DaseQosPolicy> qos;
  std::unique_ptr<TemporalPolicy> temporal;
  /// Always attached (last observer) so the observer walk has one shape;
  /// pass-through when rc.governor is false.
  std::unique_ptr<PolicyGovernor> governor;
  /// Always attached (after the governor, so each record sees the epoch's
  /// final intervention counts); output flags only gate flushing.
  std::unique_ptr<TelemetryHub> telemetry;
  /// Tap order the hub was assembled with ("DASE"/"MISE"/"ASM"); the flush
  /// context must name the estimate columns in exactly this order.
  std::vector<std::string> telemetry_estimators;
};

struct TriageContext;

/// Fills a crash-bundle TriageContext from the same inputs assemble_corun
/// took, computing the snapshot fingerprint from the live simulation.  The
/// mode tag is taken from rc.crash_bundle_mode.
TriageContext triage_context_of(const RunConfig& rc, const Workload& workload,
                                const ModelSet& models, PolicyKind policy,
                                const std::vector<int>* sm_split,
                                const Simulation& sim);

/// Builds the co-run simulation exactly as ExperimentRunner::run does:
/// app launches seeded with harness_app_seed, watchdog and run limits from
/// `rc`, the fault injector when a schedule is armed, the SM partition for
/// the policy/split, and the model/policy observers in canonical
/// registration order (dase, mise, asm, epochs, fair, qos, temporal,
/// governor, telemetry hub last — the order Simulation::load expects
/// back).  Shared by the runner, the chaos
/// engine and --triage so a restored snapshot always meets an identically
/// assembled experiment.
CoRunAssembly assemble_corun(const RunConfig& rc, const Workload& workload,
                             const ModelSet& models, PolicyKind policy,
                             const std::vector<int>* sm_split = nullptr);

struct AppResult {
  std::string abbr;
  u64 instructions = 0;
  double ipc_shared = 0.0;
  double ipc_alone = 0.0;
  double actual_slowdown = 1.0;
  /// model name ("DASE"/"MISE"/"ASM") -> estimated slowdown (all-SM basis).
  std::map<std::string, double> estimates;

  double estimation_error_of(const std::string& model) const;
};

struct CoRunResult {
  std::string label;
  Cycle cycles = 0;
  std::vector<AppResult> apps;
  double unfairness = 1.0;       // from actual slowdowns
  double harmonic_speedup = 0.0;  // from actual slowdowns
  // DRAM bandwidth decomposition over the co-run (Fig. 2b):
  std::vector<double> app_bw_share;  // fraction of total bus capacity
  double wasted_bw_share = 0.0;
  double idle_bw_share = 0.0;
  u64 repartitions = 0;  // policy actions (migrations/switches/adjustments)
  u64 governor_interventions = 0;  // clamps + rejects + holds + trips + aborts
  u64 sanitized_estimates = 0;  // estimator outputs clamped, Σ over models

  double mean_error_of(const std::string& model) const;
};

/// Steady-state alone-run characteristics on the full GPU.
struct AloneStats {
  double ipc = 0.0;
  double bw_util = 0.0;             // data cycles / bus capacity
  double served_per_kcycle = 0.0;   // DRAM requests per 1000 cycles
  Cycle cycles = 0;
};

class ExperimentRunner {
 public:
  explicit ExperimentRunner(RunConfig rc) : rc_(std::move(rc)) {}

  const RunConfig& config() const { return rc_; }

  /// Runs one workload co-run plus alone baselines.  `sm_split`, when
  /// given, assigns sm_split[i] SMs to app i (Fig. 8a); otherwise the
  /// partition is even.  PolicyKind::kDaseFair attaches the DASE-Fair
  /// repartitioning policy (forces the DASE model on).
  ///
  /// The baselines run on one background *alone lane* (a single helper
  /// thread per call).  In kCachedIpc mode the lane measures the
  /// workload's uncached apps, deduplicated and in workload order, while
  /// this thread runs the co-run; in kExactReplay mode the caller and the
  /// lane split the post-co-run replays.  Results are bit-identical to
  /// measuring serially.  The lane is always joined before run() returns
  /// or throws.  A co-run error wins, and only co-run errors are
  /// crash-bundled; a lane error after a clean co-run is rethrown as is.
  CoRunResult run(const Workload& workload, const ModelSet& models,
                  PolicyKind policy = PolicyKind::kEven,
                  const std::vector<int>* sm_split = nullptr);

  /// Alone-run stats for one application on the full GPU, measured
  /// synchronously on the calling thread and cached by abbreviation for
  /// the current RunConfig.  The cache keeps the profile beside its stats:
  /// asking again under a cached abbreviation with a profile that differs
  /// in any field raises SimError(kHarness) naming the first such field.
  const AloneStats& alone_stats(const KernelProfile& profile);

  /// Cycles the application needs alone, on all SMs, to issue
  /// `target_instructions` (the exact-replay measurement).
  Cycle measure_alone_cycles(const KernelProfile& profile, u64 seed,
                             u64 target_instructions) const;

  /// Cached-IPC baselines this runner has simulated so far (each cache
  /// entry is measured once, whichever thread measured it).
  u64 alone_runs() const { return alone_runs_; }

 private:
  struct AloneEntry {
    KernelProfile profile;
    AloneStats stats;
  };

  /// The cached stats for `profile`, or nullptr when its abbreviation is
  /// not cached yet; raises kHarness when it is cached for another profile.
  const AloneStats* cached_alone(const KernelProfile& profile) const;

  RunConfig rc_;
  std::map<std::string, AloneEntry> alone_cache_;
  u64 alone_runs_ = 0;
};

/// Reads an environment variable as cycles, falling back to `fallback`.
Cycle cycles_from_env(const char* name, Cycle fallback);

/// Seed the harness hands application slot `slot` of a workload.  Exposed
/// so tools building bare Simulations (the determinism auditor, tests) use
/// the exact seeds an ExperimentRunner co-run would.
u64 harness_app_seed(u64 base_seed, int slot);

}  // namespace gpusim
