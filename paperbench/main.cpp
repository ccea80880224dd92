// Paper-regeneration benchmark.
//
// Runs one of three job sets shaped like the paper's experiments through
// the library's public entry points and reports host time, memory and the
// simulated accuracy figures, checking every simulated output on the way:
//
//   sweep_dase   20 pairs, DASE only, even split, SweepRunner with 2 workers
//                (gpusim_cli --sweep random:N --jobs 2)
//   sweep_epoch  8 pairs with DASE+MISE+ASM (Figs. 5/6), serial; the
//                MISE/ASM PriorityEpochDriver is a per-cycle hook
//   fair_1m      1 pair under even and DASE-Fair at 1M cycles (Fig. 9),
//                serial; migrations and the governor are live
//
// All use the cached alone IPC, 150K-cycle co-runs unless named otherwise,
// and --seed as RunConfig::base_seed.
//
// --trace 0 times the job set untraced, repeating it while --seconds
// allows, and prints the end-to-end metrics.  --trace 1 runs it once
// untraced and once traced — co-runs driven through assemble_corun and
// Simulation::run in interval-sized chunks, with spans around every call
// into the library and a LoopProfiler per worker — and prints the
// per-layer metrics.  README.md in this directory maps each per-layer
// metric to the end-to-end metric and workload it should move.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; the process exits 1 when any check fails.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/asm_model.hpp"
#include "baselines/mise_model.hpp"
#include "common/build_info.hpp"
#include "common/loop_profiler.hpp"
#include "dase/dase_model.hpp"
#include "gpu/simulator.hpp"
#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "kernels/workload_sets.hpp"
#include "sched/dase_fair.hpp"
#include "sched/governor.hpp"
#include "spans.hpp"

namespace fs = std::filesystem;
using namespace gpusim;
using paperbench::mono_ns;

namespace {

// ---------------------------------------------------------------------------
// Workloads

struct WorkloadSpec {
  std::string name;
  Cycle cycles = 0;
  int workers = 1;
  ModelSet models;
  /// Each pair runs twice, under the even split and under DASE-Fair.
  bool fair = false;
  int pairs = 0;
};

/// Pair-selection seed of the Fig. 9 bench (bench/fig9_dase_fair.cpp).  It
/// is fixed so that the pair mix, whose cost varies about 5x from pair to
/// pair, never depends on the benchmark seed; --seed drives base_seed.
constexpr u64 kPairSeed = 77;

const std::vector<WorkloadSpec>& workload_specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"sweep_dase", 150'000, 2, ModelSet{.dase = true}, false, 20},
      {"sweep_epoch", 150'000, 1,
       ModelSet{.dase = true, .mise = true, .asm_model = true}, false, 8},
      {"fair_1m", 1'000'000, 1, ModelSet{.dase = true}, true, 1},
  };
  return specs;
}

/// Pairs that sweep_dase also runs at one worker, to check that the
/// parallel batch path reproduces the serial one.
constexpr int kSerialCheckPairs = 3;

struct Job {
  Workload workload;
  PolicyKind policy = PolicyKind::kEven;
  std::string key() const {
    return workload.label() + "/" + to_string(policy);
  }
};

std::vector<Job> jobs_for(const WorkloadSpec& spec) {
  std::vector<Workload> pairs =
      random_two_app_workloads(spec.pairs, kPairSeed);
  if (spec.fair) {
    // As in the Fig. 9 bench: DASE-Fair needs enough, long enough blocks.
    std::erase_if(pairs, [](const Workload& w) {
      return !dase_fair_eligible(w.apps[0]) || !dase_fair_eligible(w.apps[1]);
    });
  }
  std::vector<Job> jobs;
  for (Workload& w : pairs) {
    if (spec.fair) {
      jobs.push_back(Job{w, PolicyKind::kEven});
      jobs.push_back(Job{std::move(w), PolicyKind::kDaseFair});
    } else {
      jobs.push_back(Job{std::move(w), PolicyKind::kEven});
    }
  }
  return jobs;
}

RunConfig run_config(const WorkloadSpec& spec, u64 seed) {
  RunConfig rc;
  rc.co_run_cycles = spec.cycles;
  rc.base_seed = seed;
  rc.alone_mode = RunConfig::AloneMode::kCachedIpc;
  rc.verify_conservation = true;
  return rc;
}

// ---------------------------------------------------------------------------
// Results and checks

u64 fnv1a(const std::string& text) {
  u64 h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex(u64 v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

struct JobOutcome {
  std::string key;
  bool ok = false;
  std::string error;
  std::string json;  ///< SweepRunner::to_json of the result
  CoRunResult result;
};

/// Empty when every slowdown, estimate and fairness figure is finite.
std::string non_finite_field(const CoRunResult& r) {
  if (!std::isfinite(r.unfairness)) return "unfairness";
  if (!std::isfinite(r.harmonic_speedup)) return "harmonic_speedup";
  for (const AppResult& a : r.apps) {
    if (!std::isfinite(a.actual_slowdown)) return a.abbr + " actual_slowdown";
    for (const auto& [model, value] : a.estimates) {
      if (!std::isfinite(value)) return a.abbr + " " + model + " estimate";
    }
  }
  return "";
}

JobOutcome outcome_of(const std::string& key, const CoRunResult& r) {
  JobOutcome o;
  o.key = key;
  o.result = r;
  o.json = SweepRunner::to_json(r);
  const std::string bad = non_finite_field(r);
  o.ok = bad.empty();
  if (!o.ok) o.error = "non-finite " + bad;
  return o;
}

/// Counts jobs and failures; every failure is also reported on stderr.
struct Tally {
  long attempted = 0;
  long failed = 0;
  bool fatal = false;  ///< a check outside the per-job ones failed

  void job(bool ok, const std::string& key, const std::string& why) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "paperbench: FAILED %s: %s\n", key.c_str(),
                   why.c_str());
    }
  }
};

// ---------------------------------------------------------------------------
// Cold-start scratch directory

/// A fresh, empty working directory for one repetition: the process works
/// inside it and it is removed afterwards, so no snapshot, checkpoint,
/// manifest or persisted cache from an earlier run can warm this one.
class ScratchDir {
 public:
  explicit ScratchDir(const fs::path& root) {
    static int counter = 0;
    path_ = root / ("rep-" + std::to_string(::getpid()) + "-" +
                    std::to_string(counter++));
    fs::remove_all(path_);
    fs::create_directories(path_);
    previous_ = fs::current_path();
    fs::current_path(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::current_path(previous_, ec);
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

 private:
  fs::path path_;
  fs::path previous_;
};

// ---------------------------------------------------------------------------
// Untraced job set

struct Rep {
  double wall_s = 0.0;
  double setup_s = 0.0;  ///< process start (or rep start) to first submit
  std::vector<JobOutcome> jobs;
};

/// Runs `jobs` through SweepRunner with `workers` threads, one
/// ExperimentRunner per worker, exactly as gpusim_cli --sweep does.  A dry
/// call stops where the first job would be submitted.
std::vector<JobOutcome> run_sweep(const RunConfig& rc, const ModelSet& models,
                                  const std::vector<Job>& jobs, int workers,
                                  bool dry, std::int64_t* submit_ns) {
  std::mutex mu;
  std::map<std::string, CoRunResult> results;
  SweepOptions opts;
  opts.jobs = workers;
  opts.max_attempts = 1;
  SweepRunner sweep(opts, SweepRunner::RunFnFactory([&]() {
                      auto runner = std::make_shared<ExperimentRunner>(rc);
                      return [runner, &models, &mu,
                              &results](const Workload& w) {
                        CoRunResult r = runner->run(w, models);
                        std::lock_guard<std::mutex> lock(mu);
                        results[r.label] = r;
                        return r;
                      };
                    }));
  std::vector<Workload> workloads;
  for (const Job& j : jobs) workloads.push_back(j.workload);
  *submit_ns = mono_ns();
  if (dry) return {};
  const std::vector<SweepEntry> entries = sweep.run(workloads);

  std::vector<JobOutcome> out;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const SweepEntry& e = entries[i];
    JobOutcome o;
    o.key = jobs[i].key();
    if (e.ok) {
      o = outcome_of(o.key, results.at(e.label));
    } else {
      o.error = e.error;
    }
    out.push_back(std::move(o));
  }
  return out;
}

/// Runs `jobs` serially on one ExperimentRunner, as the figure benches do.
std::vector<JobOutcome> run_serial(const RunConfig& rc, const ModelSet& models,
                                   const std::vector<Job>& jobs, bool dry,
                                   std::int64_t* submit_ns) {
  ExperimentRunner runner(rc);
  std::vector<JobOutcome> out;
  *submit_ns = mono_ns();
  if (dry) return out;
  for (const Job& job : jobs) {
    try {
      out.push_back(outcome_of(job.key(),
                               runner.run(job.workload, models, job.policy)));
    } catch (const std::exception& e) {
      JobOutcome o;
      o.key = job.key();
      o.error = e.what();
      out.push_back(std::move(o));
    }
  }
  return out;
}

/// One cold repetition of the job set.  `start_ns` is when its set-up
/// began; a dry repetition only sets up.
Rep run_untraced(const WorkloadSpec& spec, u64 seed, const fs::path& scratch,
                 std::int64_t start_ns, bool dry) {
  ScratchDir dir(scratch);
  const RunConfig rc = run_config(spec, seed);
  const std::vector<Job> jobs = jobs_for(spec);
  Rep rep;
  std::int64_t submit_ns = 0;
  if (spec.fair) {
    rep.jobs = run_serial(rc, spec.models, jobs, dry, &submit_ns);
  } else {
    rep.jobs = run_sweep(rc, spec.models, jobs, spec.workers, dry, &submit_ns);
  }
  const std::int64_t end_ns = mono_ns();
  rep.setup_s = 1e-9 * static_cast<double>(submit_ns - start_ns);
  rep.wall_s = 1e-9 * static_cast<double>(end_ns - submit_ns);
  return rep;
}

// ---------------------------------------------------------------------------
// Traced job set

struct TracedJob {
  std::string key;
  bool ok = false;
  std::string error;
  Cycle cycles = 0;
  std::vector<u64> instructions;
};

/// Counts read from the traced co-runs through public accessors, summed
/// over jobs.
struct Counts {
  u64 corun_cycles = 0;
  u64 sm_cycles = 0;         ///< Σ SMs × co-run cycles
  u64 partition_cycles = 0;  ///< Σ partitions × co-run cycles
  u64 ff_cycles = 0;
  u64 chunks = 0;
  u64 pending_chunks = 0;
  u64 repartitions = 0;
  u64 interventions = 0;
  u64 instructions = 0;
  u64 l2_hits = 0;
  u64 l2_accesses = 0;
  u64 row_hits = 0;
  u64 row_misses = 0;
  u64 bus_data_cycles = 0;

  void add(const Counts& o) {
    corun_cycles += o.corun_cycles;
    sm_cycles += o.sm_cycles;
    partition_cycles += o.partition_cycles;
    ff_cycles += o.ff_cycles;
    chunks += o.chunks;
    pending_chunks += o.pending_chunks;
    repartitions += o.repartitions;
    interventions += o.interventions;
    instructions += o.instructions;
    l2_hits += o.l2_hits;
    l2_accesses += o.l2_accesses;
    row_hits += o.row_hits;
    row_misses += o.row_misses;
    bus_data_cycles += o.bus_data_cycles;
  }
};

/// Everything one traced worker measured.
struct WorkerTrace {
  explicit WorkerTrace(int tid) : log(tid) {}

  paperbench::SpanLog log;
  LoopProfiler prof;
  std::vector<TracedJob> jobs;  ///< indexed like the job list
  Counts counts;
};

void check_finite_estimate(double v, const char* model) {
  if (!std::isfinite(v)) {
    throw std::runtime_error(std::string("non-finite ") + model +
                             " estimate");
  }
}

void run_traced_job(const RunConfig& rc, const ModelSet& models,
                    const Job& job, int job_id, ExperimentRunner& runner,
                    std::set<std::string>& warm, WorkerTrace& wt) {
  using paperbench::SpanScope;
  TracedJob& tj = wt.jobs[job_id];
  tj.key = job.key();
  SpanScope job_span(wt.log, tj.key, "job", job_id, -1);
  for (const KernelProfile& app : job.workload.apps) {
    SpanScope s(wt.log, "alone " + app.abbr, "alone", job_id,
                job_span.index());
    s.set_flag(warm.insert(app.abbr).second);
    runner.alone_stats(app);
  }

  RunConfig traced = rc;
  traced.profiler = &wt.prof;
  CoRunAssembly assembly;
  {
    SpanScope corun(wt.log, "corun " + tj.key, "corun", job_id,
                    job_span.index());
    assembly = assemble_corun(traced, job.workload, models, job.policy);
    Simulation& sim = *assembly.sim;
    const Cycle chunk = rc.gpu.estimation_interval;
    while (sim.gpu().now() < rc.co_run_cycles) {
      SpanScope c(wt.log, "chunk", "chunk", job_id, corun.index());
      sim.run(std::min<Cycle>(chunk, rc.co_run_cycles - sim.gpu().now()));
      const bool pending = sim.gpu().migration_in_progress();
      c.set_flag(pending);
      ++wt.counts.chunks;
      if (pending) ++wt.counts.pending_chunks;
    }
  }

  SpanScope result(wt.log, "result " + tj.key, "result", job_id,
                   job_span.index());
  const Gpu& gpu = assembly.sim->gpu();
  if (rc.verify_conservation) gpu.verify_conservation();
  tj.cycles = gpu.now();
  Counts& c = wt.counts;
  for (int i = 0; i < gpu.num_apps(); ++i) {
    tj.instructions.push_back(gpu.instructions().total(i));
    if (assembly.dase) check_finite_estimate(assembly.dase->mean_slowdown(i), "DASE");
    if (assembly.mise) check_finite_estimate(assembly.mise->mean_slowdown(i), "MISE");
    if (assembly.asm_model) {
      check_finite_estimate(assembly.asm_model->mean_slowdown(i), "ASM");
    }
    c.instructions += tj.instructions.back();
  }
  c.corun_cycles += gpu.now();
  c.sm_cycles += static_cast<u64>(gpu.num_sms()) * gpu.now();
  c.partition_cycles += static_cast<u64>(gpu.num_partitions()) * gpu.now();
  c.ff_cycles += gpu.fast_forwarded_cycles();
  if (assembly.fair) c.repartitions += assembly.fair->repartitions();
  c.interventions += assembly.governor->interventions();
  for (int p = 0; p < gpu.num_partitions(); ++p) {
    const MemoryPartition& part = gpu.partition(p);
    c.l2_hits += part.l2().stats().hits;
    c.l2_accesses += part.l2().stats().accesses;
    const McCounters& mc = part.mc().counters();
    c.row_hits += mc.row_hits.grand_total();
    c.row_misses += mc.row_misses.grand_total();
    c.bus_data_cycles += mc.bus_data_cycles.grand_total();
  }
  tj.ok = true;
}

struct TracedRep {
  double wall_s = 0.0;
  std::int64_t origin_ns = 0;
  std::vector<WorkerTrace> workers;
};

/// The job set again, driven through assemble_corun + Simulation::run in
/// interval-sized chunks by `spec.workers` threads claiming jobs from a
/// shared cursor (SweepRunner's scheduling), each with its own
/// ExperimentRunner for the alone baselines and its own LoopProfiler.
TracedRep run_traced(const WorkloadSpec& spec, u64 seed,
                     const fs::path& scratch) {
  ScratchDir dir(scratch);
  const RunConfig rc = run_config(spec, seed);
  const std::vector<Job> jobs = jobs_for(spec);
  TracedRep rep;
  for (int w = 0; w < spec.workers; ++w) {
    rep.workers.emplace_back(w);
    rep.workers.back().jobs.resize(jobs.size());
  }
  std::atomic<std::size_t> next{0};
  auto work = [&](WorkerTrace& wt) {
    ExperimentRunner runner(rc);
    std::set<std::string> warm;
    for (std::size_t i = next++; i < jobs.size(); i = next++) {
      try {
        run_traced_job(rc, spec.models, jobs[i], static_cast<int>(i), runner,
                       warm, wt);
      } catch (const std::exception& e) {
        wt.jobs[i].key = jobs[i].key();
        wt.jobs[i].error = e.what();
      }
    }
  };
  rep.origin_ns = mono_ns();
  if (spec.workers == 1) {
    work(rep.workers[0]);
  } else {
    std::vector<std::jthread> threads;
    for (WorkerTrace& wt : rep.workers) threads.emplace_back(work, std::ref(wt));
  }  // the jthreads join here
  rep.wall_s = 1e-9 * static_cast<double>(mono_ns() - rep.origin_ns);
  return rep;
}

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean_of(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Simulated figures of one repetition: Eq. 26 estimator errors (percent),
/// unfairness and harmonic speedup, and on fair_1m the Fig. 9 gains of
/// DASE-Fair over even.
std::vector<Metric> accuracy_metrics(const WorkloadSpec& spec,
                                     const std::vector<JobOutcome>& jobs) {
  std::map<std::string, std::vector<double>> err;
  std::vector<double> unf;
  std::vector<double> hs;
  std::vector<double> unf_even;
  std::vector<double> hs_even;
  for (const JobOutcome& j : jobs) {
    if (!j.ok) continue;
    for (const char* model : {"DASE", "MISE", "ASM"}) {
      if (!j.result.apps.empty() && j.result.apps[0].estimates.count(model)) {
        err[model].push_back(100.0 * j.result.mean_error_of(model));
      }
    }
    const bool even_of_pair = spec.fair && j.key.ends_with("/even");
    (even_of_pair ? unf_even : unf).push_back(j.result.unfairness);
    (even_of_pair ? hs_even : hs).push_back(j.result.harmonic_speedup);
  }
  std::vector<Metric> m = {
      {"dase_err_pct", mean_of(err["DASE"]), "%"},
      {"unfairness", mean_of(unf), "ratio"},
      {"hspeedup", mean_of(hs), "ratio"},
  };
  if (spec.models.mise) m.push_back({"mise_err_pct", mean_of(err["MISE"]), "%"});
  if (spec.models.asm_model) {
    m.push_back({"asm_err_pct", mean_of(err["ASM"]), "%"});
  }
  if (spec.fair) {
    const double ue = mean_of(unf_even);
    const double he = mean_of(hs_even);
    m.push_back({"fair_unfairness_gain_pct", 100.0 * (ue - mean_of(unf)) / ue, "%"});
    m.push_back({"fair_hspeedup_gain_pct", 100.0 * (mean_of(hs) - he) / he, "%"});
  }
  return m;
}

std::vector<Metric> layer_metrics(const TracedRep& rep, Cycle alone_run_cycles,
                                  double untraced_wall) {
  LoopProfiler prof;
  Counts sum;
  double alone_s = 0.0;
  double corun_s = 0.0;
  double job_s = 0.0;
  double job_self_s = 0.0;
  u64 alone_runs = 0;
  for (const WorkerTrace& wt : rep.workers) {
    for (int p = 0; p < LoopProfiler::kNumPhases; ++p) {
      const auto phase = static_cast<LoopProfiler::Phase>(p);
      prof.add(phase, wt.prof.ns(phase), wt.prof.visits(phase));
    }
    const std::vector<paperbench::Span>& spans = wt.log.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const paperbench::Span& s = spans[i];
      if (s.layer == "alone" && s.flag) {
        alone_s += s.seconds();
        ++alone_runs;
      } else if (s.layer == "corun") {
        corun_s += s.seconds();
      } else if (s.layer == "job") {
        job_s += s.seconds();
        job_self_s += wt.log.self_seconds(static_cast<int>(i));
      }
    }
    sum.add(wt.counts);
  }
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const double cycles = static_cast<double>(sum.corun_cycles);
  const double alone_cycles =
      static_cast<double>(alone_runs) * static_cast<double>(alone_run_cycles);
  auto phase_s = [&](LoopProfiler::Phase p) { return 1e-9 * prof.ns(p); };
  auto per_visit = [&](LoopProfiler::Phase p) {
    return ratio(prof.ns(p), prof.visits(p));
  };
  return {
      {"harness.alone_s", alone_s, "s"},
      {"harness.alone_runs", static_cast<double>(alone_runs), "count"},
      {"harness.alone_ns_per_cycle", ratio(1e9 * alone_s, alone_cycles), "ns"},
      {"harness.corun_s", corun_s, "s"},
      {"harness.job_self_s", job_self_s, "s"},
      {"harness.worker_busy_frac",
       ratio(job_s, static_cast<double>(rep.workers.size()) * rep.wall_s),
       "ratio"},
      {"gpu.corun_ns_per_cycle", ratio(1e9 * corun_s, cycles), "ns"},
      {"gpu.sm_visit_frac",
       ratio(prof.visits(LoopProfiler::kSmAdvance), sum.sm_cycles), "ratio"},
      {"gpu.fast_forward_frac", ratio(sum.ff_cycles, cycles), "ratio"},
      {"gpu.interval_s", phase_s(LoopProfiler::kIntervalBookkeeping), "s"},
      {"sm.advance_s", phase_s(LoopProfiler::kSmAdvance), "s"},
      {"sm.advance_ns_per_visit", per_visit(LoopProfiler::kSmAdvance), "ns"},
      {"sm.resp_delivery_s", phase_s(LoopProfiler::kRespDelivery), "s"},
      {"sm.resp_delivery_ns_per_visit", per_visit(LoopProfiler::kRespDelivery),
       "ns"},
      {"noc.xbar_req_s", phase_s(LoopProfiler::kXbarReq), "s"},
      {"noc.xbar_req_ns_per_visit", per_visit(LoopProfiler::kXbarReq), "ns"},
      {"noc.xbar_resp_s", phase_s(LoopProfiler::kXbarResp), "s"},
      {"noc.xbar_resp_ns_per_visit", per_visit(LoopProfiler::kXbarResp), "ns"},
      {"mem.partition_s", phase_s(LoopProfiler::kPartition), "s"},
      {"mem.partition_ns_per_visit", per_visit(LoopProfiler::kPartition), "ns"},
      {"mem.partition_visit_frac",
       ratio(prof.visits(LoopProfiler::kPartition), sum.partition_cycles),
       "ratio"},
      {"sched.repartitions", static_cast<double>(sum.repartitions), "count"},
      {"sched.governor_interventions", static_cast<double>(sum.interventions),
       "count"},
      {"sched.migration_pending_frac",
       ratio(sum.pending_chunks, sum.chunks),
       "ratio"},
      {"sm.ipc", ratio(sum.instructions, cycles), "instr/cycle"},
      {"cache.l2_hit_rate", ratio(sum.l2_hits, sum.l2_accesses), "ratio"},
      {"mem.row_hit_rate", ratio(sum.row_hits, sum.row_hits + sum.row_misses),
       "ratio"},
      {"mem.bw_util", ratio(sum.bus_data_cycles, sum.partition_cycles),
       "ratio"},
      {"trace.overhead_ratio", ratio(rep.wall_s, untraced_wall), "ratio"},
  };
}

// ---------------------------------------------------------------------------
// Host facts and output

/// Peak resident memory of this process image, from VmHWM.  getrusage's
/// ru_maxrss is not used: Linux carries it across fork and exec, so it would
/// report the launching Python interpreter's peak when that is larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0.0;
}

/// Empty when this binary may report timings; otherwise why not.
std::string build_refusal() {
#if !defined(__OPTIMIZE__)
  return "built without optimization";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
  const std::string lib = build_type();
  if (lib.find("san") != std::string::npos) {
    return "library built with a sanitizer (" + lib + ")";
  }
  const std::string type = PAPERBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "CMAKE_BUILD_TYPE is '" + type + "', not Release/RelWithDebInfo";
  }
  return "";
}

std::string host_json(const std::string& commit) {
  std::ostringstream ss;
  ss << "{\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"build_type\":\"" << PAPERBENCH_BUILD_TYPE << "\",\"compiler\":\""
     << paperbench::json_escape(PAPERBENCH_COMPILER) << "\",\"commit\":\""
     << paperbench::json_escape(commit) << "\",\"library_fingerprint\":\""
     << hex(build_fingerprint()) << "\"}";
  return ss.str();
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Reference digests: lines "<workload> <seed> <job key> <digest>".
std::map<std::string, std::string> load_reference(const std::string& path,
                                                  const std::string& workload,
                                                  u64 seed) {
  std::map<std::string, std::string> ref;
  std::ifstream in(path);
  std::string w, key, digest;
  u64 s = 0;
  while (in >> w >> s >> key >> digest) {
    if (w == workload && s == seed) ref[key] = digest;
  }
  return ref;
}

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::int64_t t0_ns = 0;
  std::string out_dir = "paperbench-out";
  std::string reference;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "paperbench: %s\nusage: paperbench --workload "
               "{sweep_dase|sweep_epoch|fair_1m} [--seed N] [--seconds S] "
               "[--trace 0|1] [--t0 NS] [--out-dir DIR] [--reference FILE] "
               "[--commit TEXT] [--setup-only]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string v = argv[++i];
    if (arg == "--workload") a.workload = v;
    else if (arg == "--seed") a.seed = std::stoull(v);
    else if (arg == "--seconds") a.seconds = std::stod(v);
    else if (arg == "--trace") a.trace = v == "1";
    else if (arg == "--t0") a.t0_ns = std::stoll(v);
    else if (arg == "--out-dir") a.out_dir = v;
    else if (arg == "--reference") a.reference = v;
    else if (arg == "--commit") a.commit = v;
    else usage("unknown argument " + arg);
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t main_ns = mono_ns();
  const Args args = parse_args(argc, argv);
  const std::int64_t start_ns = args.t0_ns != 0 ? args.t0_ns : main_ns;
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& s : workload_specs()) {
    if (s.name == args.workload) spec = &s;
  }
  if (spec == nullptr) usage("unknown workload '" + args.workload + "'");
  const std::string refusal = build_refusal();
  if (!refusal.empty()) {
    std::fprintf(stderr, "paperbench: refusing to report: %s\n",
                 refusal.c_str());
    return 2;
  }
  const fs::path out_dir = fs::absolute(args.out_dir);
  const fs::path scratch = out_dir / "scratch";
  fs::create_directories(scratch);

  const std::string host = host_json(args.commit);
  const std::map<std::string, std::string> reference =
      args.reference.empty()
          ? std::map<std::string, std::string>{}
          : load_reference(args.reference, spec->name, args.seed);
  if (args.setup_only) {
    const Rep dry = run_untraced(*spec, args.seed, scratch, start_ns, true);
    std::printf("setup_s %s\n", fmt(dry.setup_s).c_str());
    return 0;
  }
  std::printf("host %s\n", host.c_str());
  if (reference.empty()) {
    std::fprintf(stderr, "paperbench: no reference digests for %s seed %llu; "
                         "checking repetitions against each other only\n",
                 spec->name.c_str(), static_cast<unsigned long long>(args.seed));
  }

  Tally tally;
  std::vector<Rep> reps;
  std::map<std::string, std::string> first_digest;
  auto check_rep = [&](const Rep& rep) {
    for (const JobOutcome& j : rep.jobs) {
      if (!j.ok) {
        tally.job(false, j.key, j.error);
        continue;
      }
      const std::string d = hex(fnv1a(j.json));
      auto [it, inserted] = first_digest.emplace(j.key, d);
      if (!inserted && it->second != d) {
        tally.job(false, j.key, "digest differs between repetitions");
      } else if (!reference.empty() &&
                 (!reference.count(j.key) || reference.at(j.key) != d)) {
        tally.job(false, j.key,
                  "digest " + d + " differs from reference " +
                      (reference.count(j.key) ? reference.at(j.key) : "(none)"));
      } else {
        tally.job(true, j.key, "");
      }
    }
  };

  // Untraced repetitions: at least one; more while the next is expected to
  // end within --seconds.  The traced run makes exactly one.
  const std::int64_t measure_start = mono_ns();
  std::int64_t rep_start = start_ns;
  do {
    reps.push_back(run_untraced(*spec, args.seed, scratch, rep_start, false));
    check_rep(reps.back());
    rep_start = mono_ns();
  } while (!args.trace &&
           1e-9 * static_cast<double>(rep_start - measure_start) +
                   reps.back().wall_s <=
               args.seconds);
  const Rep& first = reps.front();

  {
    std::ofstream digests(out_dir / ("digests-" + spec->name + "-seed" +
                                     std::to_string(args.seed) + ".txt"));
    for (const JobOutcome& j : first.jobs) {
      digests << spec->name << ' ' << args.seed << ' ' << j.key << ' '
              << hex(fnv1a(j.json)) << '\n';
    }
  }

  // The parallel batch path must reproduce the serial one.
  if (spec->workers > 1 && !args.trace) {
    ScratchDir dir(scratch);
    std::vector<Job> jobs = jobs_for(*spec);
    jobs.resize(std::min<std::size_t>(jobs.size(), kSerialCheckPairs));
    std::int64_t ignored = 0;
    for (const JobOutcome& j : run_sweep(run_config(*spec, args.seed),
                                         spec->models, jobs, 1, false,
                                         &ignored)) {
      const bool same = j.ok && first_digest.count(j.key) &&
                        first_digest.at(j.key) == hex(fnv1a(j.json));
      tally.job(same, j.key + "@1worker",
                j.ok ? "digest at 1 worker differs from 2 workers" : j.error);
    }
  }

  std::vector<Metric> metrics;
  std::vector<Metric> extra;
  if (!args.trace) {
    std::vector<double> walls;
    for (const Rep& r : reps) walls.push_back(r.wall_s);
    metrics = {
        {"wall_s", median(walls), "s"},
        {"setup_s", first.setup_s, "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    for (const Metric& m : accuracy_metrics(*spec, first.jobs)) {
      const bool gated = m.name == "dase_err_pct" || m.name == "unfairness" ||
                         m.name == "hspeedup";
      (gated ? metrics : extra).push_back(m);
    }
    std::fprintf(stderr, "paperbench: %zu repetition(s), wall_s each:",
                 reps.size());
    for (double w : walls) std::fprintf(stderr, " %.3f", w);
    std::fprintf(stderr, "\n");
  } else {
    const TracedRep traced = run_traced(*spec, args.seed, scratch);
    std::map<std::string, const JobOutcome*> untraced;
    for (const JobOutcome& j : first.jobs) untraced[j.key] = &j;
    std::vector<paperbench::SpanLog> logs;
    for (const WorkerTrace& wt : traced.workers) {
      logs.push_back(wt.log);
      for (const TracedJob& tj : wt.jobs) {
        if (tj.key.empty()) continue;  // claimed by another worker
        std::string why = tj.ok || !tj.error.empty() ? tj.error : "failed";
        if (tj.ok) {
          const JobOutcome* u = untraced.count(tj.key) ? untraced.at(tj.key) : nullptr;
          bool same = u != nullptr && u->ok && u->result.cycles == tj.cycles &&
                      u->result.apps.size() == tj.instructions.size();
          for (std::size_t i = 0; same && i < tj.instructions.size(); ++i) {
            same = u->result.apps[i].instructions == tj.instructions[i];
          }
          if (!same) why = "traced cycles/instructions differ from untraced run";
        }
        tally.job(why.empty(), tj.key + "@traced", why);
      }
    }
    metrics = layer_metrics(traced, spec->cycles, first.wall_s);
    const fs::path trace_path =
        out_dir / ("trace-" + spec->name + "-seed" + std::to_string(args.seed) +
                   ".json");
    if (!paperbench::write_chrome_trace(trace_path.string(), logs,
                                        traced.origin_ns, host)) {
      std::fprintf(stderr, "paperbench: cannot write %s\n",
                   trace_path.string().c_str());
      tally.fatal = true;
    } else {
      std::fprintf(stderr, "paperbench: spans written to %s\n",
                   trace_path.string().c_str());
    }
  }

  const double failed_frac =
      tally.attempted == 0 ? 1.0
                           : static_cast<double>(tally.failed) / tally.attempted;
  extra.push_back({"failed_frac", failed_frac, "ratio"});
  for (const std::vector<Metric>* list : {&metrics, &extra}) {
    for (const Metric& m : *list) {
      std::printf("metric %-32s %-22s %s\n", m.name.c_str(),
                  fmt(m.value).c_str(), m.unit.c_str());
    }
  }
  if (!args.trace) {
    std::printf(
        "paper (cited, not gated; the model is unvalidated against hardware "
        "and errors are against the simulator's own measured slowdown): "
        "DASE 8.8%%, MISE 36.3%%, ASM 32.8%% mean error; DASE-Fair -16.1%% "
        "unfairness, +3.7%% H.Speedup\n");
  }

  const bool correct = tally.failed == 0 && !tally.fatal && tally.attempted > 0;
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << tally.attempted
       << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i == 0 ? "" : ", ") << '"' << metrics[i].name
         << "\": {\"value\": " << fmt(metrics[i].value) << ", \"unit\": \""
         << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  return correct ? 0 : 1;
}
