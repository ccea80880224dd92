// Simulator-throughput baseline: measures raw cycles/sec of the
// cycle loop (fast-forward on and off), a memory-contended co-run with
// the activity-tracked cycle engine on and off (plus a separate profiled
// engine-on pass for per-layer attribution),
// a live DASE-Fair co-run with the policy governor on vs. off (the ≤2%
// overhead contract from DESIGN.md §14), a co-run with the TelemetryHub
// attached vs. absent (the ≤2% disabled-path contract from DESIGN.md §15),
// the wall-clock of a small checkpoint-free sweep run serially vs. on
// the worker pool, and the per-request cost of the L1 and L2 miss paths
// replayed through a lone MSHR and cache (informational, not gated), then
// emits the numbers as a flat JSON object — the
// repo's BENCH_*.json perf baseline format.  tools/check_perf.sh runs
// this binary and fails on cycles/sec regressions against the committed
// BENCH_throughput.json (15% for the legacy keys, 10% for the contended
// scenario).
//
//   bench_sim_throughput [output.json]
//
// Environment:
//   BENCH_CYCLES        co-run cycles per timing run   (default 400000)
//   BENCH_SWEEP_PAIRS   pairs in the sweep timing      (default 4)
//   BENCH_SWEEP_CYCLES  co-run cycles per sweep pair   (default 60000)
//   BENCH_JOBS          parallel sweep workers         (default hw threads)
//
// Keys are written one per line so shell tooling can read them without a
// JSON parser.  Timings are wall-clock and machine-dependent by nature;
// refresh the committed baseline with `tools/check_perf.sh --update`
// when switching measurement hosts.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "cache/cache.hpp"
#include "cache/mshr.hpp"
#include "common/loop_profiler.hpp"
#include "common/rng.hpp"
#include "dase/dase_model.hpp"
#include "gpu/simulator.hpp"
#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "kernels/app_registry.hpp"
#include "kernels/workload_sets.hpp"
#include "telemetry/hub.hpp"

namespace {

using namespace gpusim;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct LoopResult {
  double cycles_per_sec = 0.0;
  double fast_forwarded_fraction = 0.0;
};

/// Cycles/sec of a two-app co-run over `cycles` cycles (after a short
/// warmup), with the idle-cycle fast-forward on or off.
LoopResult time_cycle_loop(const GpuConfig& cfg, Cycle cycles,
                           bool fast_forward) {
  Simulation sim(cfg, {AppLaunch{*find_app("VA"), 1001},
                       AppLaunch{*find_app("SD"), 1002}});
  sim.set_fast_forward(fast_forward);
  sim.gpu().set_partition(even_partition(sim.gpu().num_sms(), 2));

  sim.run(20'000);  // warm the pipeline so timing sees steady state
  const u64 ff_before = sim.gpu().fast_forwarded_cycles();
  const auto start = std::chrono::steady_clock::now();
  sim.run(cycles);
  const double elapsed = seconds_since(start);

  LoopResult r;
  r.cycles_per_sec =
      elapsed > 0.0 ? static_cast<double>(cycles) / elapsed : 0.0;
  r.fast_forwarded_fraction =
      static_cast<double>(sim.gpu().fast_forwarded_cycles() - ff_before) /
      static_cast<double>(cycles);
  return r;
}

/// A memory-contended co-run (two DRAM-saturating kernels sharing six
/// partitions) with the activity-tracked cycle engine and fast-forward on
/// or off, warmed to steady state.  This is the scenario the engine
/// targets: most SMs idle on outstanding misses each cycle while the
/// memory system stays busy, so the per-component wake tracking skips them
/// without the global fast-forward ever triggering.
std::unique_ptr<Simulation> make_contended(const GpuConfig& cfg,
                                           bool engine_on) {
  auto sim = std::make_unique<Simulation>(
      cfg, std::vector<AppLaunch>{AppLaunch{*find_app("SD"), 2001},
                                  AppLaunch{*find_app("SA"), 2002}});
  sim->set_activity_sched(engine_on);
  sim->set_fast_forward(engine_on);
  sim->gpu().set_partition(even_partition(sim->gpu().num_sms(), 2));
  sim->run(20'000);  // warm the pipeline so timing sees steady state
  return sim;
}

struct ContendedResult {
  double on_cycles_per_sec = 0.0;
  double off_cycles_per_sec = 0.0;
  double speedup = 0.0;
  double fast_forwarded_fraction = 0.0;
};

/// Engine-on vs engine-off cycles/sec on the contended co-run.  Neither
/// side carries a profiler (its clock reads would tax only the side that
/// has it), and both advance in alternating timed slices, best of three
/// passes — the time_governed_loop discipline below.
ContendedResult time_contended_loop(const GpuConfig& cfg, Cycle cycles) {
  ContendedResult r;
  const Cycle slice = std::max<Cycle>(1, cycles / 10);
  for (int pass = 0; pass < 3; ++pass) {
    auto on = make_contended(cfg, true);
    auto off = make_contended(cfg, false);
    const u64 ff_before = on->gpu().fast_forwarded_cycles();
    double on_elapsed = 0.0;
    double off_elapsed = 0.0;
    for (Cycle done = 0; done < cycles; done += slice) {
      const Cycle step = std::min(slice, cycles - done);
      auto start = std::chrono::steady_clock::now();
      on->run(step);
      on_elapsed += seconds_since(start);
      start = std::chrono::steady_clock::now();
      off->run(step);
      off_elapsed += seconds_since(start);
    }
    r.fast_forwarded_fraction =
        static_cast<double>(on->gpu().fast_forwarded_cycles() - ff_before) /
        static_cast<double>(cycles);
    if (on_elapsed <= 0.0 || off_elapsed <= 0.0) continue;
    const double on_cps = static_cast<double>(cycles) / on_elapsed;
    const double off_cps = static_cast<double>(cycles) / off_elapsed;
    r.on_cycles_per_sec = std::max(r.on_cycles_per_sec, on_cps);
    r.off_cycles_per_sec = std::max(r.off_cycles_per_sec, off_cps);
    r.speedup = std::max(r.speedup, on_cps / off_cps);
  }
  return r;
}

/// A separate engine-on pass with the loop profiler attached, so the
/// baseline records where the remaining wall time goes without the
/// profiler's clock reads skewing the timed comparison.
void profile_contended_loop(const GpuConfig& cfg, Cycle cycles,
                            LoopProfiler& profiler) {
  auto sim = make_contended(cfg, true);
  profiler.reset();
  sim->set_loop_profiler(&profiler);
  sim->run(cycles);
}

struct GovernedResult {
  double on_cycles_per_sec = 0.0;
  double off_cycles_per_sec = 0.0;
  double overhead_ratio = 0.0;
};

/// Governor on/off throughput and the overhead ratio for the <=2% gate
/// (check_perf.sh, floor 0.98).  Both runs carry the full closed loop
/// (estimator, search, migrations); the only difference is whether
/// proposals route through the governor's validation/watchdog path.
/// Wall-clock noise on shared hosts dwarfs the governor's per-interval
/// work, so a pass advances a governed and an unguarded sim in
/// alternating timed slices — host-load spikes then land on both sides
/// roughly equally instead of skewing whichever whole run they hit — and
/// the gate takes the best of three passes.
GovernedResult time_governed_loop(Cycle cycles) {
  Workload w;
  w.apps.push_back(*find_app("VA"));
  w.apps.push_back(*find_app("SD"));
  const ModelSet models{.dase = true};

  GovernedResult r;
  const Cycle slice = std::max<Cycle>(1, cycles / 10);
  for (int pass = 0; pass < 3; ++pass) {
    RunConfig rc_on;
    rc_on.governor = true;
    RunConfig rc_off;
    rc_off.governor = false;
    CoRunAssembly on = assemble_corun(rc_on, w, models, PolicyKind::kDaseFair);
    CoRunAssembly off =
        assemble_corun(rc_off, w, models, PolicyKind::kDaseFair);
    on.sim->run(20'000);  // warm the pipelines so timing sees steady state
    off.sim->run(20'000);

    double on_elapsed = 0.0;
    double off_elapsed = 0.0;
    for (Cycle done = 0; done < cycles; done += slice) {
      const Cycle step = std::min(slice, cycles - done);
      auto start = std::chrono::steady_clock::now();
      on.sim->run(step);
      on_elapsed += seconds_since(start);
      start = std::chrono::steady_clock::now();
      off.sim->run(step);
      off_elapsed += seconds_since(start);
    }
    if (on_elapsed <= 0.0 || off_elapsed <= 0.0) continue;
    const double on_cps = static_cast<double>(cycles) / on_elapsed;
    const double off_cps = static_cast<double>(cycles) / off_elapsed;
    r.on_cycles_per_sec = std::max(r.on_cycles_per_sec, on_cps);
    r.off_cycles_per_sec = std::max(r.off_cycles_per_sec, off_cps);
    r.overhead_ratio = std::max(r.overhead_ratio, on_cps / off_cps);
  }
  return r;
}

struct TelemetryResult {
  double on_cycles_per_sec = 0.0;
  double off_cycles_per_sec = 0.0;
  double overhead_ratio = 0.0;
};

/// TelemetryHub attached vs. absent, for the <=2% disabled-path contract
/// (check_perf.sh, floor 0.98).  "Disabled" is the hub's only state — file
/// flags never touch the loop — so the honest comparison is an observer
/// walk with the hub against one without it.  Same alternating-slice,
/// best-of-three discipline as time_governed_loop: host-load spikes land
/// on both sides instead of skewing one whole run.
TelemetryResult time_telemetry_loop(const GpuConfig& cfg, Cycle cycles) {
  TelemetryResult r;
  const Cycle slice = std::max<Cycle>(1, cycles / 10);
  for (int pass = 0; pass < 3; ++pass) {
    Simulation with_hub(cfg, {AppLaunch{*find_app("VA"), 3001},
                              AppLaunch{*find_app("SD"), 3002}});
    Simulation without_hub(cfg, {AppLaunch{*find_app("VA"), 3001},
                                 AppLaunch{*find_app("SD"), 3002}});
    DaseModel dase_with;
    DaseModel dase_without;
    with_hub.gpu().set_partition(even_partition(with_hub.gpu().num_sms(), 2));
    without_hub.gpu().set_partition(
        even_partition(without_hub.gpu().num_sms(), 2));
    with_hub.add_observer(&dase_with);
    without_hub.add_observer(&dase_without);
    TelemetryHub hub({{"DASE", &dase_with}}, [] { return u64{0}; });
    with_hub.add_observer(&hub);

    with_hub.run(20'000);  // warm the pipelines so timing sees steady state
    without_hub.run(20'000);

    double on_elapsed = 0.0;
    double off_elapsed = 0.0;
    for (Cycle done = 0; done < cycles; done += slice) {
      const Cycle step = std::min(slice, cycles - done);
      auto start = std::chrono::steady_clock::now();
      with_hub.run(step);
      on_elapsed += seconds_since(start);
      start = std::chrono::steady_clock::now();
      without_hub.run(step);
      off_elapsed += seconds_since(start);
    }
    if (on_elapsed <= 0.0 || off_elapsed <= 0.0) continue;
    const double on_cps = static_cast<double>(cycles) / on_elapsed;
    const double off_cps = static_cast<double>(cycles) / off_elapsed;
    r.on_cycles_per_sec = std::max(r.on_cycles_per_sec, on_cps);
    r.off_cycles_per_sec = std::max(r.off_cycles_per_sec, off_cps);
    r.overhead_ratio = std::max(r.overhead_ratio, on_cps / off_cps);
  }
  return r;
}

/// Wall-clock of a checkpoint-free sweep over the first `pairs` two-app
/// workloads with the given worker count.
double time_sweep(const RunConfig& rc, int pairs, int jobs) {
  std::vector<Workload> workloads = all_two_app_workloads();
  workloads.resize(static_cast<std::size_t>(pairs));

  SweepOptions opts;
  opts.max_attempts = 1;
  opts.jobs = jobs;
  const ModelSet models{.dase = true};
  SweepRunner sweep(opts, SweepRunner::RunFnFactory([&rc, &models]() {
                      auto runner = std::make_shared<ExperimentRunner>(rc);
                      return [runner, &models](const Workload& w) {
                        return runner->run(w, models);
                      };
                    }));

  const auto start = std::chrono::steady_clock::now();
  sweep.run(workloads);
  return seconds_since(start);
}

struct MissPathResult {
  double ns_per_req = 0.0;
  u64 hits = 0;
  u64 merges = 0;
  u64 misses = 0;
  u64 checksum = 0;
};

/// Per-request cost of one cache level's demand path, replayed through a
/// lone MSHR and cache of that level's geometry the way SmCore (L1) and
/// MemoryPartition (L2) drive them: one MSHR probe, then one set scan, a
/// touch and, on a miss, an insert.  Each miss is filled and released
/// 2 * mshr_entries requests later, or as soon as its slot is needed when
/// the MSHR is full.  The fixed, seeded stream is 50% lines from a hot set
/// of half the cache's capacity (mostly hits), 25% repeats of one of the
/// last eight missed lines (merges while in flight, hits after) and 25%
/// never-seen lines (misses).  Best of five passes over 2^20 requests.
MissPathResult time_miss_path(int num_sets, int assoc, int line_bytes,
                              int mshr_entries, u64 seed) {
  constexpr int kRequests = 1 << 20;
  const u64 hot_lines = static_cast<u64>(num_sets) * assoc / 2;
  std::vector<u64> stream(kRequests);
  {
    Rng rng(seed);
    u64 next_fresh = u64{1} << 30;
    for (u64& addr : stream) {
      const u64 roll = rng.next_below(4);
      u64 line = 0;
      if (roll < 2) {
        line = rng.next_below(hot_lines);
      } else if (roll == 2 && next_fresh > (u64{1} << 30)) {
        const u64 back = std::min<u64>(next_fresh - (u64{1} << 30), 8);
        line = next_fresh - 1 - rng.next_below(back);
      } else {
        line = next_fresh++;
      }
      addr = line * static_cast<u64>(line_bytes);
    }
  }

  const int latency = 2 * mshr_entries;
  MissPathResult best;
  for (int pass = 0; pass < 5; ++pass) {
    SetAssocCache cache(num_sets, assoc, line_bytes);
    Mshr mshr(mshr_entries);
    // In-flight misses in issue order: a ring of at most mshr_entries.
    std::vector<u64> ring_addr(static_cast<std::size_t>(mshr_entries));
    std::vector<int> ring_due(static_cast<std::size_t>(mshr_entries));
    int head = 0;
    int count = 0;
    MissPathResult r;
    auto retire_oldest = [&] {
      const u64 addr = ring_addr[head];
      cache.fill(addr, 0);
      mshr.release(addr, [&](const MshrWaiter& w) {
        r.checksum += static_cast<u64>(w.warp);
      });
      head = (head + 1) % mshr_entries;
      --count;
    };
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kRequests; ++i) {
      while (count > 0 && ring_due[head] <= i) retire_oldest();
      const u64 addr = stream[i];
      const MshrWaiter waiter{0, i & 63, i & 1};
      Mshr::Probe p = mshr.probe(addr);
      if (p.in_flight()) {
        mshr.merge(p, waiter);
        ++r.merges;
        continue;
      }
      const int way = cache.find_way(addr);
      cache.touch(way, waiter.app);
      if (way != SetAssocCache::kNoWay) {
        ++r.hits;
        continue;
      }
      if (mshr.full()) {
        retire_oldest();
        p = mshr.probe(addr);  // the table changed; a stalled request re-probes
      }
      mshr.insert(p, addr, waiter);
      const int tail = (head + count) % mshr_entries;
      ring_addr[tail] = addr;
      ring_due[tail] = i + latency;
      ++count;
      ++r.misses;
    }
    while (count > 0) retire_oldest();
    r.ns_per_req = seconds_since(start) * 1e9 / kRequests;
    if (pass == 0 || r.ns_per_req < best.ns_per_req) best = r;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gpusim::bench;

  const std::string out_path = argc > 1 ? argv[1] : "BENCH_throughput.json";
  const Cycle loop_cycles = cycles_from_env("BENCH_CYCLES", 400'000);
  const int sweep_pairs =
      static_cast<int>(cycles_from_env("BENCH_SWEEP_PAIRS", 4));
  const int hw =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int sweep_jobs =
      static_cast<int>(cycles_from_env("BENCH_JOBS", static_cast<Cycle>(hw)));

  banner("Simulator throughput baseline",
         "cycle-loop cycles/sec + sweep wall-time (BENCH_throughput.json)");

  GpuConfig cfg;
  const LoopResult fast = time_cycle_loop(cfg, loop_cycles, true);
  const LoopResult slow = time_cycle_loop(cfg, loop_cycles, false);

  const ContendedResult contended = time_contended_loop(cfg, loop_cycles);
  LoopProfiler profiler;
  profile_contended_loop(cfg, loop_cycles, profiler);

  const GovernedResult governed = time_governed_loop(loop_cycles);
  const TelemetryResult telemetry = time_telemetry_loop(cfg, loop_cycles);

  const MissPathResult l1_path =
      time_miss_path(cfg.l1_num_sets(), cfg.l1_assoc, cfg.line_bytes,
                     cfg.l1_mshr_entries, 4001);
  const MissPathResult l2_path =
      time_miss_path(cfg.l2_num_sets(), cfg.l2_assoc, cfg.line_bytes,
                     cfg.l2_mshr_entries, 4002);

  RunConfig rc;
  rc.co_run_cycles = cycles_from_env("BENCH_SWEEP_CYCLES", 60'000);
  rc.alone_mode = RunConfig::AloneMode::kCachedIpc;
  const double serial_s = time_sweep(rc, sweep_pairs, 1);
  // A parallel sweep on a single hardware thread (or with --jobs 1) just
  // re-times the serial path plus scheduling noise; the "speedup" it
  // reports would be ~1.0 by construction and meaningless.  Skip the
  // timing and flag the key instead of publishing a junk number.
  const bool parallel_meaningful = hw > 1 && sweep_jobs > 1;
  const double parallel_s =
      parallel_meaningful ? time_sweep(rc, sweep_pairs, sweep_jobs) : 0.0;

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "\"schema\": \"gpusim-bench-throughput-v1\",\n");
  std::fprintf(out, "\"host_hw_threads\": %d,\n", hw);
  std::fprintf(out, "\"loop_cycles\": %llu,\n",
               static_cast<unsigned long long>(loop_cycles));
  std::fprintf(out, "\"sim_cycles_per_sec_fast_forward\": %.1f,\n",
               fast.cycles_per_sec);
  std::fprintf(out, "\"sim_cycles_per_sec_no_fast_forward\": %.1f,\n",
               slow.cycles_per_sec);
  std::fprintf(out, "\"fast_forwarded_fraction\": %.4f,\n",
               fast.fast_forwarded_fraction);
  std::fprintf(out, "\"contended_cycles_per_sec\": %.1f,\n",
               contended.on_cycles_per_sec);
  std::fprintf(out, "\"contended_cycles_per_sec_no_activity\": %.1f,\n",
               contended.off_cycles_per_sec);
  std::fprintf(out, "\"contended_activity_speedup\": %.3f,\n",
               contended.speedup);
  std::fprintf(out, "\"contended_fast_forwarded_fraction\": %.4f,\n",
               contended.fast_forwarded_fraction);
  std::fprintf(out, "%s", profiler.to_json_lines(true).c_str());
  std::fprintf(out, "\"profile_total_ns\": %llu,\n",
               static_cast<unsigned long long>(profiler.total_ns()));
  std::fprintf(out, "\"governor_on_cycles_per_sec\": %.1f,\n",
               governed.on_cycles_per_sec);
  std::fprintf(out, "\"governor_off_cycles_per_sec\": %.1f,\n",
               governed.off_cycles_per_sec);
  std::fprintf(out, "\"governor_overhead_ratio\": %.4f,\n",
               governed.overhead_ratio);
  std::fprintf(out, "\"telemetry_on_cycles_per_sec\": %.1f,\n",
               telemetry.on_cycles_per_sec);
  std::fprintf(out, "\"telemetry_off_cycles_per_sec\": %.1f,\n",
               telemetry.off_cycles_per_sec);
  std::fprintf(out, "\"telemetry_overhead_ratio\": %.4f,\n",
               telemetry.overhead_ratio);
  std::fprintf(out, "\"miss_path_l1_ns_per_req\": %.2f,\n",
               l1_path.ns_per_req);
  std::fprintf(out, "\"miss_path_l2_ns_per_req\": %.2f,\n",
               l2_path.ns_per_req);
  std::fprintf(out, "\"sweep_pairs\": %d,\n", sweep_pairs);
  std::fprintf(out, "\"sweep_corun_cycles\": %llu,\n",
               static_cast<unsigned long long>(rc.co_run_cycles));
  std::fprintf(out, "\"sweep_jobs\": %d,\n", sweep_jobs);
  std::fprintf(out, "\"sweep_serial_seconds\": %.3f,\n", serial_s);
  std::fprintf(out, "\"sweep_parallel_seconds\": %.3f,\n", parallel_s);
  std::fprintf(out, "\"sweep_parallel_speedup\": %.3f,\n",
               parallel_s > 0.0 ? serial_s / parallel_s : 0.0);
  std::fprintf(out, "\"sweep_parallel_speedup_meaningful\": %s\n",
               parallel_meaningful ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);

  std::printf(
      "cycles/sec: %.0f (fast-forward on, %.1f%% skipped), %.0f (off)\n",
      fast.cycles_per_sec, 100.0 * fast.fast_forwarded_fraction,
      slow.cycles_per_sec);
  std::printf(
      "contended SD+SA: %.0f cycles/sec with the activity engine "
      "(%.1f%% fast-forwarded), %.0f without (best-pair ratio %.2fx)\n",
      contended.on_cycles_per_sec, 100.0 * contended.fast_forwarded_fraction,
      contended.off_cycles_per_sec, contended.speedup);
  std::printf(
      "governed DASE-Fair VA+SD: %.0f cycles/sec with the governor, "
      "%.0f without (best-pair ratio %.3f)\n",
      governed.on_cycles_per_sec, governed.off_cycles_per_sec,
      governed.overhead_ratio);
  std::printf(
      "telemetry VA+SD: %.0f cycles/sec with the hub attached, "
      "%.0f without (best-pair ratio %.3f)\n",
      telemetry.on_cycles_per_sec, telemetry.off_cycles_per_sec,
      telemetry.overhead_ratio);
  for (const auto& [level, path] :
       {std::pair{"L1", &l1_path}, std::pair{"L2", &l2_path}}) {
    const double n = static_cast<double>(path->hits + path->merges +
                                         path->misses);
    std::printf(
        "%s miss path: %.2f ns/request (%.1f%% hits, %.1f%% merges, "
        "%.1f%% misses; checksum %llu)\n",
        level, path->ns_per_req, 100.0 * path->hits / n,
        100.0 * path->merges / n, 100.0 * path->misses / n,
        static_cast<unsigned long long>(path->checksum));
  }
  if (parallel_meaningful) {
    std::printf("sweep %d pairs: %.3fs serial, %.3fs with %d jobs (%.2fx)\n",
                sweep_pairs, serial_s, parallel_s, sweep_jobs,
                parallel_s > 0.0 ? serial_s / parallel_s : 0.0);
  } else {
    std::printf(
        "sweep %d pairs: %.3fs serial; parallel speedup skipped "
        "(%d hardware thread(s), %d sweep job(s) — nothing to compare)\n",
        sweep_pairs, serial_s, hw, sweep_jobs);
  }
  std::printf("baseline written: %s\n", out_path.c_str());
  return 0;
}
