#include "harness/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <memory>

#include "baselines/asm_model.hpp"
#include "baselines/mise_model.hpp"
#include "baselines/priority_epochs.hpp"
#include "common/sim_error.hpp"
#include "common/simstate.hpp"
#include "dase/dase_model.hpp"
#include "gpu/simulator.hpp"
#include "gpu/snapshot.hpp"
#include "harness/crash_bundle.hpp"
#include "metrics/metrics.hpp"
#include "sched/dase_fair.hpp"
#include "sched/governor.hpp"
#include "sched/policies.hpp"

namespace gpusim {

u64 harness_app_seed(u64 base_seed, int slot) {
  return base_seed + static_cast<u64>(slot) * 7919;
}

const char* to_string(PolicyKind policy) {
  switch (policy) {
    case PolicyKind::kEven: return "even";
    case PolicyKind::kDaseFair: return "dase-fair";
    case PolicyKind::kLeftover: return "leftover";
    case PolicyKind::kTemporal: return "temporal";
    case PolicyKind::kDaseQos: return "dase-qos";
  }
  return "?";
}

PolicyKind parse_policy_kind(const std::string& name) {
  for (const PolicyKind p :
       {PolicyKind::kEven, PolicyKind::kDaseFair, PolicyKind::kLeftover,
        PolicyKind::kTemporal, PolicyKind::kDaseQos}) {
    if (name == to_string(p)) return p;
  }
  SIM_FAIL(SimError(SimErrorKind::kConfig, "harness.runner",
                    "unknown scheduling policy name")
               .detail("policy", name)
               .detail("known", "even, dase-fair, leftover, temporal, "
                                "dase-qos"));
}

namespace {

u64 app_seed(u64 base_seed, int slot) {
  return harness_app_seed(base_seed, slot);
}

}  // namespace

u64 harness_context_of(const RunConfig& rc, const ModelSet& models,
                       PolicyKind policy, const std::vector<int>* sm_split) {
  Hasher h;
  h.put_tag("HCTX");
  h.put_u64(rc.co_run_cycles);
  h.put_u64(rc.base_seed);
  h.put_bool(models.dase);
  h.put_bool(models.mise);
  h.put_bool(models.asm_model);
  h.put_i32(static_cast<i32>(policy));
  h.put_bool(sm_split != nullptr);
  if (sm_split != nullptr) {
    h.put_u64(sm_split->size());
    for (int v : *sm_split) h.put_i32(v);
  }
  // An armed fault schedule shapes the run as much as the policy does; a
  // snapshot taken under one schedule must not restore under another.
  h.put_string(rc.faults.any() ? rc.faults.to_string() : std::string());
  return h.digest();
}

namespace {

/// Snapshot file for one workload: "<dir>/<sanitized label>.simstate".
std::string snapshot_path_for(const std::string& dir,
                              const std::string& label) {
  return (std::filesystem::path(dir) / (sanitize_file_name(label) +
                                        ".simstate")).string();
}

/// Applies the RunConfig's limit fields to one Simulation.  The cycle and
/// memory budgets only guard the co-run (`co_run` true): alone replays are
/// already capped by max_alone_cycles, and charging them against the job's
/// budgets would make a run job's outcome depend on the alone-cache state.
void apply_limits(const RunConfig& rc, Simulation& sim, bool co_run) {
  if (rc.wall_deadline != std::chrono::steady_clock::time_point{}) {
    sim.set_wall_deadline(rc.wall_deadline);
  }
  if (rc.cancel != nullptr) sim.set_cancel(rc.cancel);
  if (co_run) {
    if (rc.cycle_budget != 0) sim.set_cycle_budget(rc.cycle_budget);
    if (rc.mem_budget != 0) sim.set_mem_budget(rc.mem_budget);
  }
}

/// Flush-context boilerplate shared by the success and crash paths: naming,
/// interval length, profiler, and the governor counter breakdown.  The
/// success path adds the alone-IPC baselines (for actual-slowdown columns)
/// and the policy repartition count afterwards.
TelemetryFlushContext telemetry_context_for(const RunConfig& rc,
                                            const Workload& workload,
                                            const CoRunAssembly& assembly) {
  TelemetryFlushContext ctx;
  ctx.label = workload.label();
  for (const KernelProfile& app : workload.apps) ctx.apps.push_back(app.abbr);
  ctx.estimators = assembly.telemetry_estimators;
  ctx.interval_length = rc.gpu.estimation_interval;
  ctx.final_cycle = assembly.sim->gpu().now();
  ctx.profiler = rc.profiler;
  if (assembly.governor) {
    const PolicyGovernor& gov = *assembly.governor;
    ctx.extra_counters = {
        {"governor_clamps", gov.clamps()},
        {"governor_rejects", gov.rejects()},
        {"governor_holds", gov.holds()},
        {"governor_breaker_trips", gov.breaker_trips()},
        {"governor_fallbacks", gov.fallbacks()},
        {"governor_stalls_aborted", gov.stalls_aborted()},
    };
  }
  return ctx;
}

}  // namespace

TriageContext triage_context_of(const RunConfig& rc, const Workload& workload,
                                const ModelSet& models, PolicyKind policy,
                                const std::vector<int>* sm_split,
                                const Simulation& sim) {
  TriageContext ctx;
  ctx.mode = rc.crash_bundle_mode;
  ctx.label = workload.label();
  for (const KernelProfile& app : workload.apps) {
    ctx.apps.push_back(app.abbr);
  }
  ctx.base_seed = rc.base_seed;
  ctx.co_run_cycles = rc.co_run_cycles;
  ctx.policy = to_string(policy);
  ctx.dase = models.dase;
  ctx.mise = models.mise;
  ctx.asm_model = models.asm_model;
  ctx.faults = rc.faults.any() ? rc.faults.to_string() : std::string();
  ctx.watchdog_cycles = rc.watchdog_cycles;
  ctx.governor = rc.governor;
  if (sm_split != nullptr) ctx.sm_split = *sm_split;
  ctx.fingerprint = simulation_fingerprint(
      sim, harness_context_of(rc, models, policy, sm_split));
  return ctx;
}

CoRunAssembly::CoRunAssembly() = default;
CoRunAssembly::CoRunAssembly(CoRunAssembly&&) noexcept = default;
CoRunAssembly& CoRunAssembly::operator=(CoRunAssembly&&) noexcept = default;
CoRunAssembly::~CoRunAssembly() = default;

CoRunAssembly assemble_corun(const RunConfig& rc, const Workload& workload,
                             const ModelSet& models, PolicyKind policy,
                             const std::vector<int>* sm_split) {
  const int n = static_cast<int>(workload.apps.size());
  SIM_CHECK(n >= 1 && n <= kMaxApps,
            SimError(SimErrorKind::kHarness, "harness.runner",
                     "workload must name between 1 and kMaxApps applications")
                .detail("workload", workload.label())
                .detail("num_apps", n)
                .detail("kMaxApps", kMaxApps));

  std::vector<AppLaunch> launches;
  launches.reserve(n);
  for (int i = 0; i < n; ++i) {
    launches.push_back(
        AppLaunch{workload.apps[i], app_seed(rc.base_seed, i)});
  }

  CoRunAssembly a;
  a.sim = std::make_unique<Simulation>(rc.gpu, std::move(launches));
  Simulation& sim = *a.sim;
  sim.set_watchdog(rc.watchdog_cycles);
  apply_limits(rc, sim, /*co_run=*/true);
  if (rc.profiler != nullptr) sim.set_loop_profiler(rc.profiler);
  Gpu& gpu = sim.gpu();

  if (rc.faults.any()) {
    a.injector = std::make_unique<FaultInjector>(rc.faults);
    gpu.set_fault_injector(a.injector.get());
  }

  // Partition the SMs.
  if (sm_split != nullptr) {
    SIM_CHECK(static_cast<int>(sm_split->size()) == n,
              SimError(SimErrorKind::kHarness, "harness.runner",
                       "sm_split must list one SM count per application")
                  .detail("split_entries", sm_split->size())
                  .detail("num_apps", n));
    std::vector<AppId> assignment;
    for (int i = 0; i < n; ++i) {
      for (int k = 0; k < (*sm_split)[i]; ++k) {
        assignment.push_back(i);
      }
    }
    SIM_CHECK(static_cast<int>(assignment.size()) <= gpu.num_sms(),
              SimError(SimErrorKind::kHarness, "harness.runner",
                       "sm_split assigns more SMs than the GPU has")
                  .detail("assigned", assignment.size())
                  .detail("num_sms", gpu.num_sms()));
    assignment.resize(gpu.num_sms(), kInvalidApp);
    gpu.set_partition(assignment);
  } else if (policy == PolicyKind::kLeftover) {
    // Every registered kernel's grid occupies the full GPU, so the first
    // application takes everything and the rest get the (empty) leftovers.
    gpu.set_partition(LeftoverPolicy::allocation(
        gpu.num_sms(), std::vector<int>(n, gpu.num_sms())));
  } else if (policy == PolicyKind::kTemporal) {
    gpu.set_partition(std::vector<AppId>(gpu.num_sms(), 0));
  } else {
    gpu.set_partition(even_partition(gpu.num_sms(), n));
  }

  // Attach models and (optionally) a scheduling policy.
  const bool need_dase = models.dase || policy == PolicyKind::kDaseFair ||
                         policy == PolicyKind::kDaseQos;
  if (need_dase) {
    a.dase = std::make_unique<DaseModel>();
    sim.add_observer(a.dase.get());
  }
  if (models.mise) {
    a.mise = std::make_unique<MiseModel>();
    sim.add_observer(a.mise.get());
  }
  if (models.asm_model) {
    a.asm_model = std::make_unique<AsmModel>();
    sim.add_observer(a.asm_model.get());
  }
  if (models.any_epoch_model()) {
    a.epochs = std::make_unique<PriorityEpochDriver>(
        PriorityEpochDriver::with_defaults(rc.gpu, n));
    sim.add_cycle_hook(a.epochs.get());
  }
  if (policy == PolicyKind::kDaseFair) {
    a.fair = std::make_unique<DaseFairPolicy>(a.dase.get());
    sim.add_observer(a.fair.get());
  }
  if (policy == PolicyKind::kDaseQos) {
    a.qos = std::make_unique<DaseQosPolicy>(a.dase.get(), rc.qos);
    sim.add_observer(a.qos.get());
  }
  if (policy == PolicyKind::kTemporal) {
    a.temporal = std::make_unique<TemporalPolicy>(rc.temporal);
    sim.add_cycle_hook(a.temporal.get());
  }
  // The governor must see each epoch *after* the policies acted, and is
  // attached regardless of rc.governor so the observer walk and snapshot
  // shape never depend on the flag; a disabled governor is a pure
  // pass-through.
  a.governor = std::make_unique<PolicyGovernor>(
      GovernorOptions::from_config(rc.gpu, rc.governor), a.dase.get());
  sim.add_observer(a.governor.get());
  if (a.fair) a.fair->set_partition_sink(a.governor.get());
  if (a.qos) a.qos->set_partition_sink(a.governor.get());
  // The telemetry hub is the final observer: each record must capture the
  // epoch as the policies *and* the governor left it.  Like the governor
  // it is attached unconditionally — the output flags only gate flushing —
  // so telemetry on vs. off cannot change the observer walk, the state
  // hash, or any simulated outcome.
  std::vector<TelemetryEstimatorTap> taps;
  if (a.dase) {
    taps.push_back({"DASE", a.dase.get()});
    a.telemetry_estimators.push_back("DASE");
  }
  if (a.mise) {
    taps.push_back({"MISE", a.mise.get()});
    a.telemetry_estimators.push_back("MISE");
  }
  if (a.asm_model) {
    taps.push_back({"ASM", a.asm_model.get()});
    a.telemetry_estimators.push_back("ASM");
  }
  a.telemetry = std::make_unique<TelemetryHub>(
      std::move(taps),
      [gov = a.governor.get()] { return gov->interventions(); });
  sim.add_observer(a.telemetry.get());
  return a;
}

double AppResult::estimation_error_of(const std::string& model) const {
  const auto it = estimates.find(model);
  if (it == estimates.end()) {
    std::string available;
    for (const auto& [name, value] : estimates) {
      if (!available.empty()) available += ", ";
      available += name;
    }
    SIM_FAIL(SimError(SimErrorKind::kHarness, "harness.runner",
                      "no estimate recorded for the requested model — was it "
                      "enabled in the ModelSet?")
                 .detail("requested_model", model)
                 .detail("app", abbr)
                 .detail("available_models",
                         available.empty() ? "(none)" : available));
  }
  return estimation_error(it->second, actual_slowdown);
}

double CoRunResult::mean_error_of(const std::string& model) const {
  std::vector<double> errors;
  errors.reserve(apps.size());
  for (const AppResult& a : apps) errors.push_back(a.estimation_error_of(model));
  return mean(errors);
}

Cycle cycles_from_env(const char* name, Cycle fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  return (end != nullptr && *end == '\0' && parsed > 0)
             ? static_cast<Cycle>(parsed)
             : fallback;
}

namespace {

/// Steady-state alone run of `profile` on the full GPU for rc.co_run_cycles.
/// It depends only on (config, profile, base seed, cycles) and never on a
/// co-run, so the alone lane can measure it beside one.
AloneStats measure_alone_stats(const RunConfig& rc,
                               const KernelProfile& profile) {
  Simulation sim(rc.gpu, {AppLaunch{profile, app_seed(rc.base_seed, 0)}});
  sim.set_watchdog(rc.watchdog_cycles);
  apply_limits(rc, sim, /*co_run=*/false);
  Gpu& gpu = sim.gpu();
  gpu.set_partition(even_partition(gpu.num_sms(), 1));
  sim.run(rc.co_run_cycles);
  if (rc.verify_conservation) gpu.verify_conservation();

  AloneStats stats;
  stats.cycles = gpu.now();
  stats.ipc = static_cast<double>(gpu.instructions().total(0)) / gpu.now();
  u64 data_cycles = 0;
  u64 served = 0;
  for (int p = 0; p < gpu.num_partitions(); ++p) {
    const McCounters& mcc = gpu.partition(p).mc().counters();
    data_cycles += mcc.bus_data_cycles.total(0);
    served += mcc.requests_served.total(0);
  }
  const double capacity =
      static_cast<double>(gpu.num_partitions()) * gpu.now();
  stats.bw_util = data_cycles / capacity;
  stats.served_per_kcycle = 1000.0 * served / gpu.now();
  return stats;
}

/// Name of the first field in which `a` and `b` differ, in declaration
/// order (empty when they are equal).
std::string first_difference(const KernelProfile& a, const KernelProfile& b) {
  if (a.name != b.name) return "name";
  if (a.abbr != b.abbr) return "abbr";
  if (a.table3_bw_util != b.table3_bw_util) return "table3_bw_util";
  if (a.mem_fraction != b.mem_fraction) return "mem_fraction";
  if (a.txns_per_mem_instr != b.txns_per_mem_instr) {
    return "txns_per_mem_instr";
  }
  if (a.seq_locality != b.seq_locality) return "seq_locality";
  if (a.working_set_bytes != b.working_set_bytes) return "working_set_bytes";
  if (a.hot_fraction != b.hot_fraction) return "hot_fraction";
  if (a.hot_set_bytes != b.hot_set_bytes) return "hot_set_bytes";
  if (a.instrs_per_warp != b.instrs_per_warp) return "instrs_per_warp";
  if (a.warps_per_block != b.warps_per_block) return "warps_per_block";
  if (a.blocks_total != b.blocks_total) return "blocks_total";
  if (a.max_concurrent_blocks != b.max_concurrent_blocks) {
    return "max_concurrent_blocks";
  }
  return "";
}

/// The alone cache is keyed by abbreviation, so a profile edited under a
/// known abbreviation must not be served the unedited app's baseline.
void check_same_profile(const KernelProfile& cached,
                        const KernelProfile& asked) {
  SIM_CHECK(cached == asked,
            SimError(SimErrorKind::kHarness, "harness.runner",
                     "alone baseline requested for an edited profile under "
                     "an abbreviation already used with other parameters")
                .detail("abbr", asked.abbr)
                .detail("field", first_difference(cached, asked)));
}

}  // namespace

const AloneStats* ExperimentRunner::cached_alone(
    const KernelProfile& profile) const {
  const auto it = alone_cache_.find(profile.abbr);
  if (it == alone_cache_.end()) return nullptr;
  check_same_profile(it->second.profile, profile);
  return &it->second.stats;
}

const AloneStats& ExperimentRunner::alone_stats(const KernelProfile& profile) {
  if (const AloneStats* hit = cached_alone(profile)) return *hit;
  const AloneStats& stats =
      alone_cache_
          .emplace(profile.abbr,
                   AloneEntry{profile, measure_alone_stats(rc_, profile)})
          .first->second.stats;
  ++alone_runs_;
  return stats;
}

Cycle ExperimentRunner::measure_alone_cycles(const KernelProfile& profile,
                                             u64 seed,
                                             u64 target_instructions) const {
  Simulation sim(rc_.gpu, {AppLaunch{profile, seed}});
  Gpu& gpu = sim.gpu();
  gpu.set_partition(even_partition(gpu.num_sms(), 1));
  const bool limited =
      rc_.cancel != nullptr ||
      rc_.wall_deadline != std::chrono::steady_clock::time_point{};
  while (gpu.instructions().total(0) < target_instructions &&
         gpu.now() < rc_.max_alone_cycles) {
    gpu.cycle();
    // This loop bypasses Simulation::run, so sample the deadline/cancel
    // limits here at the watchdog cadence.
    if (limited && gpu.now() % 1024 == 0) {
      if (rc_.cancel != nullptr &&
          rc_.cancel->load(std::memory_order_relaxed)) {
        SIM_FAIL(SimError(SimErrorKind::kInterrupted, "harness.runner",
                          "cancellation requested during an alone replay")
                     .cycle(gpu.now()));
      }
      if (rc_.wall_deadline != std::chrono::steady_clock::time_point{} &&
          std::chrono::steady_clock::now() >= rc_.wall_deadline) {
        SIM_FAIL(SimError(SimErrorKind::kDeadlineExceeded, "harness.runner",
                          "wall-clock deadline passed during an alone "
                          "replay")
                     .cycle(gpu.now()));
      }
    }
  }
  return gpu.now();
}

CoRunResult ExperimentRunner::run(const Workload& workload,
                                  const ModelSet& models, PolicyKind policy,
                                  const std::vector<int>* sm_split) {
  const int n = static_cast<int>(workload.apps.size());
  const bool cached_ipc = rc_.alone_mode == RunConfig::AloneMode::kCachedIpc;
  // Cached-IPC baselines the alone lane measures beside the co-run: the
  // workload's apps missing from the cache, deduplicated, in workload order.
  std::vector<const KernelProfile*> missing;
  if (cached_ipc) {
    for (const KernelProfile& app : workload.apps) {
      const auto queued = std::find_if(
          missing.begin(), missing.end(),
          [&](const KernelProfile* m) { return m->abbr == app.abbr; });
      if (queued != missing.end()) {
        check_same_profile(**queued, app);
      } else if (cached_alone(app) == nullptr) {
        missing.push_back(&app);
      }
    }
  }

  CoRunAssembly assembly =
      assemble_corun(rc_, workload, models, policy, sm_split);
  Simulation& sim = *assembly.sim;
  Gpu& gpu = sim.gpu();
  DaseModel* dase = assembly.dase.get();
  MiseModel* mise = assembly.mise.get();
  AsmModel* asm_model = assembly.asm_model.get();
  DaseFairPolicy* fair = assembly.fair.get();
  DaseQosPolicy* qos = assembly.qos.get();
  TemporalPolicy* temporal = assembly.temporal.get();

  // --- Co-run, with optional SimState checkpointing --------------------
  const bool snapshotting = rc_.snapshot_every > 0;
  const bool restoring = !rc_.restore_path.empty();
  std::string snap_path;
  u64 fingerprint = 0;
  if (snapshotting || restoring) {
    fingerprint = simulation_fingerprint(
        sim, harness_context_of(rc_, models, policy, sm_split));
  }
  if (restoring) {
    // Explicit restore: the caller named this exact file, so any failure
    // (missing, corrupt, mismatched fingerprint) is fatal.
    const SnapshotHeader hdr =
        restore_snapshot_file(rc_.restore_path, sim, fingerprint);
    std::fprintf(stderr, "gpusim: restored %s from %s at cycle %llu\n",
                 workload.label().c_str(), rc_.restore_path.c_str(),
                 static_cast<unsigned long long>(hdr.cycle));
  }
  if (snapshotting) {
    std::error_code ec;
    std::filesystem::create_directories(rc_.snapshot_dir, ec);
    snap_path = snapshot_path_for(rc_.snapshot_dir, workload.label());
    if (!restoring && std::filesystem::exists(snap_path)) {
      // Auto-resume: a leftover file from a killed run.  Stale files
      // (different config/workload/harness, torn writes) are detected
      // before any state is loaded, so they can be skipped safely; a
      // failure *after* loading means save/load asymmetry — a bug — and
      // the partially loaded simulation must not keep running.
      try {
        const SnapshotHeader hdr =
            restore_snapshot_file(snap_path, sim, fingerprint);
        std::fprintf(stderr,
                     "gpusim: resumed %s from snapshot %s at cycle %llu\n",
                     workload.label().c_str(), snap_path.c_str(),
                     static_cast<unsigned long long>(hdr.cycle));
      } catch (const SimError& e) {
        if (gpu.now() != 0) throw;
        std::fprintf(stderr,
                     "gpusim: ignoring unusable snapshot %s (%s)\n",
                     snap_path.c_str(), e.what());
      }
    }
  }

  // The lane starts once the co-run is assembled and restored, so a bad
  // workload or snapshot fails before any baseline is simulated.  The
  // future joins its thread when destroyed, so every way out of run() —
  // return or throw — joins the lane first; it is never detached.  One
  // lane, not a thread per baseline: the live set stays the co-run plus
  // one alone Simulation, as when the baselines ran after the co-run.
  // The lane has its own stop flag; `stop_lane`, declared after `lane` so
  // it fires before the future joins, raises it on every exit from run():
  // a co-run that throws stops the baselines at their next sampling point
  // rather than waiting for them.
  std::atomic<bool> lane_stop{false};
  std::future<std::vector<AloneStats>> lane;
  if (!missing.empty()) {
    RunConfig lane_rc = rc_;
    lane_rc.cancel = &lane_stop;
    lane = std::async(std::launch::async, [lane_rc, missing] {
      std::vector<AloneStats> stats;
      stats.reserve(missing.size());
      for (const KernelProfile* app : missing) {
        stats.push_back(measure_alone_stats(lane_rc, *app));
      }
      return stats;
    });
  }
  const std::unique_ptr<std::atomic<bool>, void (*)(std::atomic<bool>*)>
      stop_lane(&lane_stop, [](std::atomic<bool>* flag) { *flag = true; });

  try {
    if (!snapshotting) {
      if (gpu.now() < rc_.co_run_cycles) {
        sim.run(rc_.co_run_cycles - gpu.now());
      }
    } else {
      try {
        while (gpu.now() < rc_.co_run_cycles) {
          const Cycle stride = std::min<Cycle>(rc_.snapshot_every,
                                               rc_.co_run_cycles - gpu.now());
          sim.run(stride);
          // No snapshot after the final stride: the result is about to be
          // reported and the resume point deleted anyway.
          if (gpu.now() < rc_.co_run_cycles) {
            write_snapshot_file(snap_path, sim, fingerprint);
          }
        }
      } catch (const SimError& e) {
        // Graceful shutdown: a cancellation leaves the simulation intact at
        // the interrupt cycle, so persist that exact state before
        // propagating — the resumed run picks it up mid-stride and finishes
        // byte-identically (snapshot timing never shapes simulated state).
        if (e.kind() == SimErrorKind::kInterrupted) {
          write_snapshot_file(snap_path, sim, fingerprint);
        }
        throw;
      }
      std::error_code ec;
      std::filesystem::remove(snap_path, ec);
    }
    // Injected faults intentionally break conservation; the auditor is the
    // mechanism tests use to detect them, so only a clean run self-audits.
    if (rc_.verify_conservation && !rc_.faults.any()) {
      gpu.verify_conservation();
    }
  } catch (const SimError& e) {
    // Crash forensics: every terminal error bundles the failure-point
    // state before propagating.  kInterrupted is the one exception — a
    // graceful drain is not a crash, and its state is already persisted
    // by the auto-resume snapshot above.
    if (!rc_.crash_bundle_dir.empty() &&
        e.kind() != SimErrorKind::kInterrupted) {
      const TriageContext ctx =
          triage_context_of(rc_, workload, models, policy, sm_split, sim);
      std::error_code ec;
      const bool have_anchor =
          !snap_path.empty() && std::filesystem::exists(snap_path, ec);
      write_crash_bundle(rc_.crash_bundle_dir, sim, rc_.gpu, e, ctx,
                         have_anchor ? snap_path : std::string());
    }
    // Flush whatever telemetry was recorded up to the failure point, with
    // a crash marker and no actual-slowdown columns (a failed co-run
    // reports no alone baselines).  A graceful kInterrupted drain skips
    // this: the resumed run will flush the complete, byte-identical files
    // instead.
    if (rc_.telemetry.any() && assembly.telemetry &&
        e.kind() != SimErrorKind::kInterrupted) {
      try {
        TelemetryFlushContext ctx =
            telemetry_context_for(rc_, workload, assembly);
        ctx.crashed = true;
        ctx.crash_kind = to_string(e.kind());
        ctx.crash_cycle = gpu.now();
        flush_telemetry(*assembly.telemetry, gpu,
                        resolve_telemetry_paths(rc_.telemetry,
                                                workload.label()),
                        ctx);
      } catch (const SimError& flush_error) {
        std::fprintf(stderr, "gpusim: telemetry flush failed (%s)\n",
                     flush_error.what());
      }
    }
    throw;
  }

  // A co-run error has propagated by now (the lane's own error, if any,
  // dies with the future); a lane error after a clean co-run surfaces here.
  // The caller's cancel is forwarded to the lane while this thread waits.
  if (lane.valid()) {
    while (rc_.cancel != nullptr &&
           lane.wait_for(std::chrono::milliseconds(10)) !=
               std::future_status::ready) {
      if (rc_.cancel->load(std::memory_order_relaxed)) {
        lane_stop.store(true, std::memory_order_relaxed);
      }
    }
    const std::vector<AloneStats> stats = lane.get();
    for (std::size_t k = 0; k < missing.size(); ++k) {
      alone_cache_.emplace(missing[k]->abbr, AloneEntry{*missing[k], stats[k]});
    }
    alone_runs_ += missing.size();
  }

  // Exact replays are independent (app i's seed and instruction target),
  // so the lane takes the odd slots and this thread the even ones.  A
  // starved app (no instructions) needs no replay.
  std::vector<Cycle> replay_cycles(n, 0);
  if (!cached_ipc) {
    std::vector<u64> targets(n);
    for (int i = 0; i < n; ++i) targets[i] = gpu.instructions().total(i);
    auto replay = [&](int first) {
      for (int i = first; i < n; i += 2) {
        if (targets[i] == 0) continue;
        replay_cycles[i] = measure_alone_cycles(
            workload.apps[i], app_seed(rc_.base_seed, i), targets[i]);
      }
    };
    std::future<void> replay_lane;
    if (n > 1) replay_lane = std::async(std::launch::async, replay, 1);
    replay(0);
    if (replay_lane.valid()) replay_lane.get();
  }

  CoRunResult result;
  result.label = workload.label();
  result.cycles = gpu.now();
  result.apps.resize(n);

  std::vector<double> actual_slowdowns(n);
  for (int i = 0; i < n; ++i) {
    AppResult& app = result.apps[i];
    app.abbr = workload.apps[i].abbr;
    app.instructions = gpu.instructions().total(i);
    app.ipc_shared =
        static_cast<double>(app.instructions) / result.cycles;
    if (app.instructions == 0) {
      // Starved entirely (e.g. LEFTOVER): report the alone IPC and an
      // effectively unbounded slowdown instead of dividing by zero.
      app.ipc_alone = alone_stats(workload.apps[i]).ipc;
      app.actual_slowdown = 1e6;
      actual_slowdowns[i] = app.actual_slowdown;
      if (models.dase && dase) app.estimates["DASE"] = dase->mean_slowdown(i);
      if (mise) app.estimates["MISE"] = mise->mean_slowdown(i);
      if (asm_model) app.estimates["ASM"] = asm_model->mean_slowdown(i);
      continue;
    }

    app.ipc_alone =
        cached_ipc
            ? alone_stats(workload.apps[i]).ipc
            : static_cast<double>(app.instructions) / replay_cycles[i];
    app.actual_slowdown =
        app.ipc_shared > 0.0 ? app.ipc_alone / app.ipc_shared : 1.0;
    app.actual_slowdown = std::max(app.actual_slowdown, 1e-3);
    actual_slowdowns[i] = app.actual_slowdown;

    if (models.dase && dase) app.estimates["DASE"] = dase->mean_slowdown(i);
    if (mise) app.estimates["MISE"] = mise->mean_slowdown(i);
    if (asm_model) app.estimates["ASM"] = asm_model->mean_slowdown(i);
  }

  result.unfairness = unfairness(actual_slowdowns);
  result.harmonic_speedup = harmonic_speedup(actual_slowdowns);
  if (fair) result.repartitions = fair->repartitions();
  if (qos) result.repartitions = qos->adjustments();
  if (temporal) result.repartitions = temporal->switches();
  if (assembly.governor) {
    result.governor_interventions = assembly.governor->interventions();
  }
  if (dase) result.sanitized_estimates += dase->sanitized_estimates();
  if (mise) result.sanitized_estimates += mise->sanitized_estimates();
  if (asm_model) result.sanitized_estimates += asm_model->sanitized_estimates();

  // DRAM bandwidth decomposition over the co-run.
  const double capacity =
      static_cast<double>(gpu.num_partitions()) * result.cycles;
  u64 wasted = 0;
  u64 idle = 0;
  result.app_bw_share.assign(n, 0.0);
  for (int p = 0; p < gpu.num_partitions(); ++p) {
    const McCounters& mcc = gpu.partition(p).mc().counters();
    for (int i = 0; i < n; ++i) {
      result.app_bw_share[i] += mcc.bus_data_cycles.total(i) / capacity;
    }
    wasted += mcc.wasted_cycles.total();
    idle += mcc.idle_cycles.total();
  }
  result.wasted_bw_share = wasted / capacity;
  result.idle_bw_share = idle / capacity;

  // Telemetry flush: now that the alone baselines exist, the per-interval
  // records can carry actual-slowdown and Eq. 26 error columns.
  if (rc_.telemetry.any() && assembly.telemetry) {
    TelemetryFlushContext ctx = telemetry_context_for(rc_, workload, assembly);
    ctx.repartitions = result.repartitions;
    for (const AppResult& app : result.apps) {
      ctx.ipc_alone.push_back(app.ipc_alone);
    }
    flush_telemetry(*assembly.telemetry, gpu,
                    resolve_telemetry_paths(rc_.telemetry, workload.label()),
                    ctx);
  }
  return result;
}

}  // namespace gpusim
