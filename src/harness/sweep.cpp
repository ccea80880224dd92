#include "harness/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "common/json.hpp"
#include "common/sim_error.hpp"
#include "harness/journal.hpp"
#include "harness/worker_pool.hpp"

namespace gpusim {

namespace {

std::string checkpoint_line(const SweepEntry& entry) {
  return "{\"label\":\"" + json_escape(entry.label) + "\",\"ok\":" +
         (entry.ok ? "true" : "false") +
         ",\"attempts\":" + std::to_string(entry.attempts) +
         (entry.ok ? ",\"result\":" + entry.result_json
                   : ",\"error\":\"" + json_escape(entry.error) + "\"") +
         "}";
}

}  // namespace

SweepRunner::SweepRunner(SweepOptions opts, RunFn run_fn)
    : SweepRunner(std::move(opts),
                  RunFnFactory([fn = std::move(run_fn)]() { return fn; })) {}

SweepRunner::SweepRunner(SweepOptions opts, RunFnFactory factory)
    : opts_(std::move(opts)), factory_(std::move(factory)) {
  SIM_CHECK(opts_.max_attempts >= 1,
            SimError(SimErrorKind::kHarness, "harness.sweep",
                     "max_attempts must be at least 1")
                .detail("max_attempts", opts_.max_attempts));
  SIM_CHECK(opts_.jobs >= 0,
            SimError(SimErrorKind::kHarness, "harness.sweep",
                     "jobs must be 0 (= hardware concurrency) or positive")
                .detail("jobs", opts_.jobs));
}

int SweepRunner::effective_jobs(std::size_t n_pending) const {
  return worker_count(opts_.jobs, n_pending);
}

SweepEntry SweepRunner::run_one(const RunFn& fn, const Workload& workload) {
  SweepEntry entry;
  entry.label = workload.label();
  for (int attempt = 1; attempt <= opts_.max_attempts; ++attempt) {
    entry.attempts = attempt;
    try {
      const CoRunResult result = fn(workload);
      entry.ok = true;
      entry.result_json = to_json(result);
      break;
    } catch (const SimError& e) {
      // Sweep-fatal conditions: an operator interrupt or a lapsed job
      // deadline is about the *sweep*, not this pair — recording it as a
      // pair failure would poison the checkpoint (the pair would replay as
      // "failed" forever).  Propagate instead; run() rethrows after the
      // workers drain.
      if (e.kind() == SimErrorKind::kInterrupted ||
          e.kind() == SimErrorKind::kDeadlineExceeded) {
        throw;
      }
      entry.error = e.what();
      if (attempt < opts_.max_attempts && opts_.backoff_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(opts_.backoff_ms * attempt));
      }
    } catch (const std::exception& e) {
      entry.error = e.what();
      if (attempt < opts_.max_attempts && opts_.backoff_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(opts_.backoff_ms * attempt));
      }
    }
  }
  return entry;
}

std::string SweepRunner::to_json(const CoRunResult& r) {
  std::ostringstream ss;
  ss << "{\"label\":\"" << json_escape(r.label) << "\",\"cycles\":" << r.cycles
     << ",\"unfairness\":" << json_number(r.unfairness)
     << ",\"harmonic_speedup\":" << json_number(r.harmonic_speedup)
     << ",\"wasted_bw_share\":" << json_number(r.wasted_bw_share)
     << ",\"idle_bw_share\":" << json_number(r.idle_bw_share)
     << ",\"repartitions\":" << r.repartitions;
  // Anomaly counters ride along only when nonzero, so healthy-run result
  // lines stay byte-identical with earlier checkpoints/baselines (the same
  // contract as the run-mode CLI's conditional governor line).
  if (r.sanitized_estimates != 0) {
    ss << ",\"sanitized_estimates\":" << r.sanitized_estimates;
  }
  if (r.governor_interventions != 0) {
    ss << ",\"governor_interventions\":" << r.governor_interventions;
  }
  ss << ",\"apps\":[";
  for (std::size_t i = 0; i < r.apps.size(); ++i) {
    const AppResult& a = r.apps[i];
    if (i != 0) ss << ",";
    ss << "{\"abbr\":\"" << json_escape(a.abbr)
       << "\",\"instructions\":" << a.instructions
       << ",\"ipc_shared\":" << json_number(a.ipc_shared)
       << ",\"ipc_alone\":" << json_number(a.ipc_alone)
       << ",\"actual_slowdown\":" << json_number(a.actual_slowdown)
       << ",\"estimates\":{";
    bool first = true;
    for (const auto& [model, value] : a.estimates) {  // std::map: sorted
      if (!first) ss << ",";
      first = false;
      ss << "\"" << json_escape(model) << "\":" << json_number(value);
    }
    ss << "}}";
  }
  ss << "],\"app_bw_share\":[";
  for (std::size_t i = 0; i < r.app_bw_share.size(); ++i) {
    if (i != 0) ss << ",";
    ss << json_number(r.app_bw_share[i]);
  }
  ss << "]}";
  return ss.str();
}

std::vector<SweepEntry> SweepRunner::run(
    const std::vector<Workload>& workloads) {
  resumed_ = 0;
  attempts_spent_ = 0;
  torn_lines_skipped_ = 0;

  // label -> verbatim "result" of the pair's last checkpoint line, when
  // that line recorded a success (a later failure line re-opens the pair).
  std::map<std::string, std::string> done;
  std::optional<Journal> checkpoint;
  if (!opts_.checkpoint_path.empty()) {
    checkpoint.emplace(opts_.checkpoint_path, "sweep checkpoint", "pair",
                       "harness.sweep");
    for (const JournalRecord& rec : checkpoint->records()) {
      const std::string* label = rec.object.string("label");
      const std::string* ok = rec.object.raw("ok");
      const std::string* result = rec.object.raw("result");
      if (label == nullptr || label->empty()) {
        checkpoint->skip(rec.line_no, "missing its label");
      } else if (ok == nullptr || *ok != "true") {
        done.erase(*label);
      } else if (result == nullptr) {
        checkpoint->skip(rec.line_no, "marked ok but has no result");
      } else {
        done[*label] = *result;
      }
    }
    torn_lines_skipped_ = checkpoint->skipped();
  }

  // Replay checkpointed pairs and collect the still-pending workload
  // indices.  Entries live in one pre-sized vector indexed by workload
  // position: workers write disjoint slots, and the final assembly is in
  // workload order regardless of completion order — this is what makes
  // write_results() byte-identical for every jobs value.
  std::vector<SweepEntry> entries(workloads.size());
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    SweepEntry& entry = entries[i];
    entry.label = workloads[i].label();
    const auto it = done.find(entry.label);
    if (it != done.end()) {
      entry.ok = true;
      entry.from_checkpoint = true;
      entry.result_json = it->second;
      ++resumed_;
    } else {
      pending.push_back(i);
    }
  }

  const int jobs = effective_jobs(pending.size());

  // Workers claim pending indices through the shared pool (worker_pool.hpp),
  // each with its own RunFn, and every finished pair appends one flushed
  // checkpoint line before its worker claims the next, so a crash loses at
  // most the pairs in progress.  A cancel, a fail_fast failure or a
  // sweep-fatal error (interrupt, deadline, failed append) stops new
  // claims; in-flight pairs finish, and the pool rethrows the lowest-index
  // error.  A sweep-fatal pair is never committed, so a resume re-runs it.
  const int n_fns = std::max(1, jobs);
  std::vector<RunFn> fns;
  fns.reserve(n_fns);
  for (int w = 0; w < n_fns; ++w) fns.push_back(factory_());

  run_indexed(
      pending.size(), jobs,
      [&](int w, std::size_t k) {
        const std::size_t i = pending[k];
        SweepEntry& entry = entries[i];
        entry = run_one(fns[w], workloads[i]);
        std::atomic_ref<int>(attempts_spent_)
            .fetch_add(entry.attempts, std::memory_order_relaxed);
        if (checkpoint) checkpoint->append(checkpoint_line(entry));
        SIM_CHECK(entry.ok || !opts_.fail_fast,
                  SimError(SimErrorKind::kHarness, "harness.sweep",
                           "workload pair failed and fail_fast is set")
                      .detail("workload", entry.label)
                      .detail("attempts", entry.attempts)
                      .detail("last_error", entry.error));
      },
      opts_.cancel);
  return entries;
}

std::string SweepRunner::entry_json(const SweepEntry& entry) {
  if (entry.ok) return entry.result_json;
  return "{\"label\":\"" + json_escape(entry.label) +
         "\",\"failed\":true,\"error\":\"" + json_escape(entry.error) +
         "\"}";
}

void SweepRunner::write_results(const std::string& path,
                                const std::vector<SweepEntry>& entries) {
  std::string out = "{\"results\":[\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out += entry_json(entries[i]);
    out += i + 1 < entries.size() ? ",\n" : "\n";
  }
  out += "]}\n";
  write_file_atomic(path, {out}, SimErrorKind::kHarness, "harness.sweep");
}

}  // namespace gpusim
