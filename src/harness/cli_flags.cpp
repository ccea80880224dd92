#include "harness/cli_flags.hpp"

#include <sstream>

namespace gpusim {

const std::vector<FlagInfo>& flag_table() {
  static const std::vector<FlagInfo> table = {
      {FlagId::kApps, "--apps", "LIST",
       "comma-separated Table III abbreviations"},
      {FlagId::kCycles, "--cycles", "N",
       "co-run length in cycles (default 300000)"},
      {FlagId::kPolicy, "--policy", "P",
       "even | dase-fair | leftover | temporal | qos"},
      {FlagId::kSplit, "--split", "N1,N2,..",
       "static SM counts per app (overrides policy partitioning)"},
      {FlagId::kModels, "--models", "LIST",
       "estimators to attach: dase,mise,asm (default dase)"},
      {FlagId::kQosTarget, "--qos-target", "X",
       "slowdown target for --policy qos (default 2.0)"},
      {FlagId::kQuantum, "--quantum", "N",
       "temporal-multitasking quantum (default 100000)"},
      {FlagId::kSeed, "--seed", "N", "workload seed (default 42)"},
      {FlagId::kAlone, "--alone", "MODE", "replay | cached (default replay)"},
      {FlagId::kConfig, "--config", "FILE",
       "load a GpuConfig key=value file"},
      {FlagId::kWatchdog, "--watchdog", "N",
       "deadlock watchdog threshold in cycles (0 disables; default 1000000)"},
      {FlagId::kDeadlineMs, "--deadline-ms", "N",
       "wall-clock deadline in ms for the run / each job attempt\n"
       "(0 = none; lapsing it exits 7)"},
      {FlagId::kCycleBudget, "--cycle-budget", "N",
       "hard cycle cap for the run / each job (0 = none; exceeding\n"
       "it exits 8)"},
      {FlagId::kMemBudget, "--mem-budget", "N",
       "hard DRAM requests-served cap (0 = none; exceeding it exits 8)"},
      {FlagId::kSweep, "--sweep", "WHICH",
       "run a crash-safe two-app sweep: 'all' (105 pairs) or 'random:N'"},
      {FlagId::kCheckpoint, "--checkpoint", "F",
       "sweep/chaos JSONL checkpoint (resume from it if present)"},
      {FlagId::kOut, "--out", "F",
       "final results JSON (default sweep_results.json /\n"
       "chaos_report.json / jobs_report.json)"},
      {FlagId::kRetries, "--retries", "N",
       "sweep attempts per pair (default 3)"},
      {FlagId::kBackoffMs, "--backoff-ms", "N",
       "retry backoff in ms: linear per sweep pair, exponential base\n"
       "per job attempt (default 0 / 10)"},
      {FlagId::kFailFast, "--fail-fast", nullptr,
       "abort the sweep on the first failed pair"},
      {FlagId::kJobs, "--jobs", "N",
       "worker threads for sweeps, chaos and job batches (default: one\n"
       "per hardware thread; 1 = serial; results are byte-identical\n"
       "for any N)"},
      {FlagId::kSnapshotEvery, "--snapshot-every", "N",
       "write a SimState snapshot every N cycles (auto-resumes from it\n"
       "after a crash; works for --apps, --sweep and --job-file runs)"},
      {FlagId::kSnapshotDir, "--snapshot-dir", "D",
       "directory for snapshot files (default '.'; requires\n"
       "--snapshot-every)"},
      {FlagId::kRestore, "--restore", "FILE",
       "restore a single run from this snapshot before running\n"
       "(incompatible with --sweep)"},
      {FlagId::kAuditDeterminism, "--audit-determinism", nullptr,
       "run the workload twice, as --models/--policy/--split assemble\n"
       "it (activity engine + fast-forward on vs both off), compare state\n"
       "hashes every --hash-every cycles; exit 4 and dump the diverging\n"
       "components on mismatch (combine with --fault-schedule to audit\n"
       "under faults)"},
      {FlagId::kHashEvery, "--hash-every", "N",
       "audit sampling period in cycles (default 10000)"},
      {FlagId::kGovernor, "--governor", nullptr,
       "enable the policy safety governor (the default; last one of\n"
       "--governor/--no-governor wins)"},
      {FlagId::kNoGovernor, "--no-governor", nullptr,
       "disable the policy safety governor: partition proposals reach\n"
       "the GPU unguarded, exactly the pre-governor behavior (healthy\n"
       "runs are byte-identical either way)"},
      {FlagId::kProfileLoop, "--profile-loop", nullptr,
       "attribute wall time and visit counts to the cycle-loop phases\n"
       "(SM advance, response delivery, crossbars, partitions,\n"
       "fast-forward, interval bookkeeping); prints a JSON breakdown"},
      {FlagId::kChaos, "--chaos", "N",
       "run a chaos campaign of N random fault schedules across\n"
       "workload x policy jobs; classify every outcome, minimize\n"
       "failures, write the report to --out"},
      {FlagId::kChaosSeed, "--chaos-seed", "N",
       "campaign master seed (default 1; identical seeds give\n"
       "byte-identical reports for any --jobs)"},
      {FlagId::kNoMinimize, "--no-minimize", nullptr,
       "skip delta-debugging failing chaos schedules"},
      {FlagId::kNoRecovery, "--no-recovery", nullptr,
       "disable the modeled MSHR timeout/retry recovery path in chaos\n"
       "and --fault-schedule runs"},
      {FlagId::kFaultSchedule, "--fault-schedule", "S",
       "with --apps: run once under the fault schedule spec S and print\n"
       "the chaos outcome classification (replays a campaign reproducer\n"
       "exactly)"},
      {FlagId::kJobFile, "--job-file", "F",
       "run a batch of jobs (run / sweep / chaos lines, '#' comments)\n"
       "through the JobManager: per-job deadlines, retries with backoff,\n"
       "a failure circuit breaker, and a resumable manifest"},
      {FlagId::kJobsResume, "--jobs-resume", "F",
       "resume the job batch recorded in manifest F: finished jobs\n"
       "replay verbatim, pending jobs re-run; the final report is\n"
       "byte-identical to an uninterrupted batch"},
      {FlagId::kManifest, "--manifest", "F",
       "manifest path for --job-file (default <job-file>.manifest.jsonl)"},
      {FlagId::kMaxRetries, "--max-retries", "N",
       "job retries after the first attempt, transient failures only\n"
       "(default 2)"},
      {FlagId::kQuarantineAfter, "--quarantine-after", "N",
       "quarantine a job config after N consecutive failures (default 3;\n"
       "quarantined jobs exit 9 and carry a replay command)"},
      {FlagId::kBundleDir, "--bundle-dir", "D",
       "root directory for crash-forensics bundles (default\n"
       "'crash-bundles'; also arms bundling for --chaos campaigns,\n"
       "where it is otherwise off)"},
      {FlagId::kNoBundle, "--no-bundle", nullptr,
       "disable crash-bundle emission entirely"},
      {FlagId::kTriage, "--triage", "BUNDLE",
       "postmortem mode: restore the crash bundle's snapshot, replay to\n"
       "the recorded failure cycle, verify the state hash bit-exactly and\n"
       "print the flight-recorder timeline (exit 0 verified, 4 diverged,\n"
       "3 bundle unusable)"},
      {FlagId::kTelemetryOut, "--telemetry-out", "F|D",
       "per-interval time-series JSONL: a file for --apps runs, a\n"
       "directory (per-label / per-job files) for --sweep, --chaos and\n"
       "--job-file; every record carries estimated vs actual slowdowns,\n"
       "the Eq. 26 error, partition sizes and memory-system rates"},
      {FlagId::kTraceOut, "--trace-out", "F",
       "Chrome trace-event JSON (load in Perfetto / chrome://tracing):\n"
       "epoch spans per app, migration drain spans, governor and fault\n"
       "instants, counter tracks (--apps and --triage runs only)"},
      {FlagId::kMetricsOut, "--metrics-out", "F",
       "Prometheus-style text metrics snapshot at run end (--apps runs\n"
       "only)"},
      {FlagId::kDumpConfig, "--dump-config", nullptr,
       "print the default config file and exit"},
      {FlagId::kListApps, "--list-apps", nullptr,
       "print the application registry and exit"},
      {FlagId::kVersion, "--version", nullptr,
       "print the build fingerprint (version, schemas, toolchain,\n"
       "feature flags) and exit"},
      {FlagId::kHelp, "--help", nullptr, "show this help (also -h)"},
  };
  return table;
}

const FlagInfo* find_flag(const std::string& arg) {
  const std::string name = arg == "-h" ? "--help" : arg;
  for (const FlagInfo& flag : flag_table()) {
    if (name == flag.name) return &flag;
  }
  return nullptr;
}

const std::vector<ExitCodeInfo>& exit_code_table() {
  static const std::vector<ExitCodeInfo> table = {
      {0, "success"},
      {1, "failed sweep pairs / failed jobs in the batch"},
      {2, "usage error"},
      {3, "simulation error (SimError) / --triage bundle unusable"},
      {4, "determinism audit or --triage replay found a divergence"},
      {5, "resumed past torn checkpoint lines (results complete, but a "
          "prior run crashed mid-write)"},
      {6, "interrupted by SIGINT/SIGTERM — drained gracefully; checkpoints "
          "and manifest are resumable"},
      {7, "wall-clock deadline exceeded"},
      {8, "cycle or memory budget exceeded"},
      {9, "job quarantined by the circuit breaker"},
  };
  return table;
}

int exit_code_for(SimErrorKind kind) {
  switch (kind) {
    case SimErrorKind::kInterrupted: return 6;
    case SimErrorKind::kDeadlineExceeded: return 7;
    case SimErrorKind::kBudgetExceeded: return 8;
    case SimErrorKind::kQuarantined: return 9;
    default: return 3;
  }
}

std::string render_usage(const char* argv0) {
  std::ostringstream ss;
  ss << "usage: " << argv0 << " --apps A,B[,C,D] [options]\n"
     << "       " << argv0 << " --sweep all|random:N [options]\n"
     << "       " << argv0 << " --chaos N [options]\n"
     << "       " << argv0 << " --job-file F [options]\n"
     << "       " << argv0 << " --jobs-resume MANIFEST [options]\n"
     << "       " << argv0 << " --triage BUNDLE\n"
     << "\n";
  constexpr int kColumn = 22;
  for (const FlagInfo& flag : flag_table()) {
    std::string head = std::string("  ") + flag.name;
    if (flag.value_name != nullptr) {
      head += ' ';
      head += flag.value_name;
    }
    if (static_cast<int>(head.size()) < kColumn) {
      head.append(static_cast<std::size_t>(kColumn - head.size()), ' ');
    } else {
      head += ' ';
    }
    ss << head;
    for (const char* c = flag.help; *c != '\0'; ++c) {
      ss << *c;
      if (*c == '\n') ss << std::string(kColumn, ' ');
    }
    ss << '\n';
  }
  ss << "\nexit codes:\n";
  for (const ExitCodeInfo& info : exit_code_table()) {
    ss << "  " << info.code << "  " << info.meaning << '\n';
  }
  return ss.str();
}

}  // namespace gpusim
