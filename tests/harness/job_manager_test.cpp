// JobManager unit + integration tests: spec parsing, the circuit breaker,
// retry classification, manifest resume, and the any-worker-count
// determinism of the final batch report.
#include "harness/job_manager.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/sim_error.hpp"

namespace gpusim {
namespace {

namespace fs = std::filesystem;

class JobManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("gpusim_jobs_" +
            std::to_string(::testing::UnitTest::GetInstance()
                               ->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  JobManagerOptions options(const std::string& manifest) const {
    JobManagerOptions opts;
    opts.manifest_path = path(manifest);
    opts.default_cycles = 6'000;
    opts.backoff_base_ms = 0;  // tests never sleep between retries
    opts.snapshot_every = 0;
    return opts;
  }

  fs::path dir_;
};

// ---- JobSpec parsing ---------------------------------------------------

TEST_F(JobManagerTest, ParsesRunSpec) {
  const JobSpec spec = JobSpec::parse(
      "run apps=SD,SA policy=dase-fair cycles=12345 watchdog=777 "
      "deadline-ms=250 max-retries=1 cycle-budget=99 mem-budget=88",
      3);
  EXPECT_EQ(spec.index, 3);
  EXPECT_EQ(spec.type, JobType::kRun);
  EXPECT_EQ(spec.apps, (std::vector<std::string>{"SD", "SA"}));
  EXPECT_EQ(spec.policy, "dase-fair");
  EXPECT_EQ(spec.cycles, 12345u);
  EXPECT_EQ(spec.watchdog, 777u);
  EXPECT_EQ(spec.deadline_ms, 250.0);
  EXPECT_EQ(spec.max_retries, 1);
  EXPECT_EQ(spec.cycle_budget, 99u);
  EXPECT_EQ(spec.mem_budget, 88u);
}

TEST_F(JobManagerTest, ParsesSweepAndChaosSpecs) {
  const JobSpec sweep = JobSpec::parse("sweep which=random:6 cycles=5000", 0);
  EXPECT_EQ(sweep.type, JobType::kSweep);
  EXPECT_EQ(sweep.sweep_which, "random:6");

  const JobSpec chaos = JobSpec::parse("chaos schedules=8 seed=7", 1);
  EXPECT_EQ(chaos.type, JobType::kChaos);
  EXPECT_EQ(chaos.chaos_schedules, 8);
  EXPECT_EQ(chaos.chaos_seed, 7u);
}

TEST_F(JobManagerTest, RejectsMalformedSpecs) {
  const std::vector<std::string> bad = {
      "",                                   // empty
      "launch apps=SD,SA",                  // unknown type
      "run",                                // missing apps=
      "run apps=",                          // no applications
      "run apps=SD,NOPE",                   // unknown app
      "run apps=SD,SA policy=leftover",     // unsupported policy
      "run apps=SD,SA cycles=abc",          // non-numeric
      "run apps=SD,SA cycles=0",            // below minimum
      "run apps=SD,SA faults=bogus",        // unparseable schedule
      "run apps=SD,SA which=all",           // sweep key on a run job
      "sweep",                              // missing which=
      "sweep which=some",                   // bad which
      "sweep which=random:0",               // zero count
      "chaos",                              // missing schedules=
      "chaos schedules=0",                  // zero schedules
  };
  for (const std::string& line : bad) {
    try {
      JobSpec::parse(line, 0);
      FAIL() << "accepted: '" << line << "'";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), SimErrorKind::kConfig) << line;
    }
  }
}

TEST_F(JobManagerTest, ParsesJobFileWithCommentsAndBlanks) {
  const std::string file = path("batch.jobs");
  {
    std::ofstream out(file);
    out << "# a comment line\n"
        << "\n"
        << "  run apps=SD,SA cycles=5000   # trailing comment\n"
        << "sweep which=random:2\n";
  }
  const std::vector<JobSpec> specs = parse_job_file(file);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].type, JobType::kRun);
  EXPECT_EQ(specs[0].raw, "run apps=SD,SA cycles=5000");
  EXPECT_EQ(specs[1].index, 1);
}

TEST_F(JobManagerTest, JobFileErrorsNameTheLine) {
  const std::string file = path("bad.jobs");
  {
    std::ofstream out(file);
    out << "run apps=SD,SA\n"
        << "run apps=WAT\n";
  }
  try {
    parse_job_file(file);
    FAIL() << "accepted a bad job file";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kConfig);
    EXPECT_NE(std::string(e.what()).find("file_line: 2"), std::string::npos);
  }
  EXPECT_THROW(parse_job_file(path("missing.jobs")), SimError);
}

TEST_F(JobManagerTest, ConfigKeyIgnoresIndexOnly) {
  const JobSpec a = JobSpec::parse("run apps=SD,SA cycles=5000", 0);
  const JobSpec b = JobSpec::parse("run apps=SD,SA cycles=5000", 7);
  EXPECT_EQ(a.config_key(), b.config_key());
  const JobSpec c = JobSpec::parse("run apps=SD,SA cycles=5001", 0);
  EXPECT_NE(a.config_key(), c.config_key());
  const JobSpec d = JobSpec::parse("run apps=SD,SA policy=dase-fair "
                                   "cycles=5000", 0);
  EXPECT_NE(a.config_key(), d.config_key());
}

TEST_F(JobManagerTest, ReproducerCommandReplaysTheConfig) {
  JobManagerOptions opts = options("m.jsonl");
  const JobSpec spec = JobSpec::parse(
      "run apps=SD,SA cycles=20000 watchdog=2000 faults=stall:part=0,from=10",
      0);
  const std::string cmd = job_reproducer_command(spec, opts);
  EXPECT_EQ(cmd,
            "gpusim_cli --apps SD,SA --cycles 20000 --watchdog 2000 "
            "--fault-schedule 'stall:part=0,from=10'");
}

// ---- report plumbing ---------------------------------------------------

TEST_F(JobManagerTest, ExitCodePrecedence) {
  JobBatchReport report;
  EXPECT_EQ(report.exit_code(), 0);
  report.failed = 1;
  JobResult failed;
  failed.status = JobStatus::kFailed;
  failed.error_kind = "watchdog-stall";
  report.jobs.push_back(failed);
  EXPECT_EQ(report.exit_code(), 1);
  report.jobs.back().error_kind = "budget-exceeded";
  EXPECT_EQ(report.exit_code(), 8);
  JobResult deadline;
  deadline.status = JobStatus::kFailed;
  deadline.error_kind = "deadline-exceeded";
  report.jobs.push_back(deadline);
  EXPECT_EQ(report.exit_code(), 7);  // deadline outranks budget
  report.quarantined = 1;
  EXPECT_EQ(report.exit_code(), 9);
  report.interrupted = true;
  EXPECT_EQ(report.exit_code(), 6);  // interrupted outranks everything
}

// ---- execution ---------------------------------------------------------

TEST_F(JobManagerTest, RunsAMixedBatchAndWritesTheManifest) {
  const std::string file = path("mix.jobs");
  {
    std::ofstream out(file);
    out << "run apps=SD,SA cycles=5000\n"
        << "sweep which=random:2 cycles=4000\n"
        << "chaos schedules=2 seed=3 cycles=4000\n";
  }
  JobManager manager(options("mix.manifest.jsonl"));
  const JobBatchReport report = manager.run(parse_job_file(file));
  EXPECT_EQ(report.total, 3);
  EXPECT_EQ(report.ok, 3);
  EXPECT_EQ(report.exit_code(), 0);
  ASSERT_EQ(report.jobs.size(), 3u);
  for (const JobResult& r : report.jobs) {
    EXPECT_EQ(r.status, JobStatus::kOk);
    EXPECT_EQ(r.attempts, 1);
    EXPECT_FALSE(r.payload_json.empty());
    EXPECT_EQ(r.payload_json.find('\n'), std::string::npos)
        << "payload must be one line for the JSONL manifest";
  }

  // The manifest holds a header, one spec line and one result line per job.
  std::ifstream in(path("mix.manifest.jsonl"));
  std::string line;
  int headers = 0, specs = 0, results = 0;
  while (std::getline(in, line)) {
    if (line.rfind("{\"gpusim_jobs\":", 0) == 0) ++headers;
    else if (line.find("\"spec\":\"") != std::string::npos) ++specs;
    else if (line.find("\"status\":\"") != std::string::npos) ++results;
  }
  EXPECT_EQ(headers, 1);
  EXPECT_EQ(specs, 3);
  EXPECT_EQ(results, 3);

  // A fresh run() must refuse the already-populated manifest.
  JobManager again(options("mix.manifest.jsonl"));
  EXPECT_THROW(again.run(parse_job_file(file)), SimError);
}

TEST_F(JobManagerTest, ResumeOfCompleteBatchReplaysVerbatim) {
  const std::string file = path("b.jobs");
  {
    std::ofstream out(file);
    out << "run apps=SD,SA cycles=5000\n"
        << "run apps=VA,CT cycles=5000\n";
  }
  JobManager fresh(options("b.manifest.jsonl"));
  const JobBatchReport first = fresh.run(parse_job_file(file));
  EXPECT_EQ(first.ok, 2);

  JobManager resumed(options("b.manifest.jsonl"));
  const JobBatchReport second = resumed.resume();
  EXPECT_EQ(second.ok, 2);
  EXPECT_EQ(second.exit_code(), 0);
  for (const JobResult& r : second.jobs) EXPECT_TRUE(r.from_manifest);
  EXPECT_EQ(first.to_json(), second.to_json());
}

TEST_F(JobManagerTest, TransientFailuresRetryThenRecordTheError) {
  // A stalled partition under a tight watchdog fails deterministically with
  // kWatchdogStall — a transient kind, so all attempts are spent.
  const std::string file = path("r.jobs");
  {
    std::ofstream out(file);
    out << "run apps=SD,SA cycles=20000 watchdog=2000 "
           "faults=stall:part=0,from=10 max-retries=2\n";
  }
  JobManager manager(options("r.manifest.jsonl"));
  const JobBatchReport report = manager.run(parse_job_file(file));
  EXPECT_EQ(report.failed, 1);
  EXPECT_EQ(report.exit_code(), 1);
  const JobResult& r = report.jobs[0];
  EXPECT_EQ(r.status, JobStatus::kFailed);
  EXPECT_EQ(r.attempts, 3);  // 1 + max-retries
  EXPECT_EQ(r.error_kind, "watchdog-stall");
  EXPECT_FALSE(r.reproducer.empty());
}

TEST_F(JobManagerTest, BudgetErrorsFailFastAndMapToExitEight) {
  // A cycle budget below the requested run length is a deterministic
  // config-shaped failure: one attempt only, no retries.
  const std::string file = path("f.jobs");
  {
    std::ofstream out(file);
    out << "run apps=SD,SA cycles=20000 cycle-budget=4000 max-retries=5\n";
  }
  JobManager manager(options("f.manifest.jsonl"));
  const JobBatchReport report = manager.run(parse_job_file(file));
  EXPECT_EQ(report.failed, 1);
  const JobResult& r = report.jobs[0];
  EXPECT_EQ(r.attempts, 1);
  EXPECT_EQ(r.error_kind, "budget-exceeded");
  EXPECT_EQ(report.exit_code(), 8);
}

TEST_F(JobManagerTest, QuarantineIsDeterministicAcrossWorkerCounts) {
  const std::string file = path("q.jobs");
  {
    std::ofstream out(file);
    // Three instances of one crash-looping config interleaved with healthy
    // jobs; quarantine_after=2 must quarantine exactly the third instance,
    // no matter how many workers race.
    out << "run apps=SD,SA cycles=20000 watchdog=2000 "
           "faults=stall:part=0,from=10 max-retries=0\n"
        << "run apps=VA,CT cycles=5000\n"
        << "run apps=SD,SA cycles=20000 watchdog=2000 "
           "faults=stall:part=0,from=10 max-retries=0\n"
        << "run apps=SD,SA cycles=20000 watchdog=2000 "
           "faults=stall:part=0,from=10 max-retries=0\n"
        << "run apps=AA,SD cycles=5000\n";
  }
  std::string reference;
  for (const int jobs : {1, 4}) {
    JobManagerOptions opts =
        options("q" + std::to_string(jobs) + ".manifest.jsonl");
    opts.quarantine_after = 2;
    opts.jobs = jobs;
    JobManager manager(opts);
    const JobBatchReport report = manager.run(parse_job_file(file));
    EXPECT_EQ(report.ok, 2) << "jobs=" << jobs;
    EXPECT_EQ(report.failed, 2) << "jobs=" << jobs;
    EXPECT_EQ(report.quarantined, 1) << "jobs=" << jobs;
    EXPECT_EQ(report.jobs[3].status, JobStatus::kQuarantined);
    EXPECT_EQ(report.jobs[3].error_kind, "quarantined");
    EXPECT_FALSE(report.jobs[3].reproducer.empty());
    EXPECT_EQ(report.exit_code(), 9);
    if (reference.empty()) {
      reference = report.to_json();
    } else {
      EXPECT_EQ(report.to_json(), reference)
          << "report differs between worker counts";
    }
  }
}

TEST_F(JobManagerTest, CancelFlagDrainsAndResumeCompletes) {
  const std::string file = path("c.jobs");
  {
    std::ofstream out(file);
    out << "run apps=SD,SA cycles=5000\n"
        << "run apps=VA,CT cycles=5000\n";
  }
  // Reference: the uninterrupted report.
  JobManager ref_manager(options("cref.manifest.jsonl"));
  const JobBatchReport reference = ref_manager.run(parse_job_file(file));

  // Cancel already set: the batch drains immediately, everything pending.
  std::atomic<bool> cancel{true};
  JobManagerOptions opts = options("c.manifest.jsonl");
  opts.cancel = &cancel;
  JobManager manager(opts);
  const JobBatchReport drained = manager.run(parse_job_file(file));
  EXPECT_TRUE(drained.interrupted);
  EXPECT_EQ(drained.pending, 2);
  EXPECT_EQ(drained.exit_code(), 6);

  // Resume with the flag cleared finishes the batch; the report matches the
  // uninterrupted reference byte for byte.
  cancel.store(false);
  JobManager resumed(opts);
  const JobBatchReport done = resumed.resume();
  EXPECT_FALSE(done.interrupted);
  EXPECT_EQ(done.ok, 2);
  EXPECT_EQ(done.to_json(), reference.to_json());
}

TEST_F(JobManagerTest, TornManifestLinesAreSkippedAndReRun) {
  const std::string file = path("t.jobs");
  {
    std::ofstream out(file);
    out << "run apps=SD,SA cycles=5000\n"
        << "run apps=VA,CT cycles=5000\n";
  }
  JobManager fresh(options("t.manifest.jsonl"));
  const JobBatchReport first = fresh.run(parse_job_file(file));
  EXPECT_EQ(first.ok, 2);

  // Tear the last result line the way a mid-write kill would.
  std::string manifest;
  {
    std::ifstream in(path("t.manifest.jsonl"));
    std::ostringstream ss;
    ss << in.rdbuf();
    manifest = ss.str();
  }
  const auto cut = manifest.rfind("\"payload\"");
  ASSERT_NE(cut, std::string::npos);
  {
    std::ofstream out(path("t.manifest.jsonl"), std::ios::trunc);
    out << manifest.substr(0, cut);  // no closing brace, no newline
  }

  JobManager resumed(options("t.manifest.jsonl"));
  const JobBatchReport second = resumed.resume();
  EXPECT_EQ(resumed.torn_lines_skipped(), 1);
  EXPECT_EQ(second.ok, 2);  // the torn job re-ran
  EXPECT_EQ(second.to_json(), first.to_json());
}

TEST_F(JobManagerTest, EscapedSpecRoundTripsThroughTheManifest) {
  // A form feed separates tokens like any whitespace.  The manifest stores
  // it as \u000c, and resume must decode it back to the same spec.
  const std::string file = path("ff.jobs");
  {
    std::ofstream out(file);
    out << "run apps=SD,SA\fcycles=5000\n";
  }
  JobManager fresh(options("ff.manifest.jsonl"));
  const JobBatchReport first = fresh.run(parse_job_file(file));
  ASSERT_EQ(first.ok, 1);
  EXPECT_EQ(first.jobs[0].spec_raw, "run apps=SD,SA\fcycles=5000");

  JobManager resumed(options("ff.manifest.jsonl"));
  const JobBatchReport second = resumed.resume();
  EXPECT_EQ(resumed.torn_lines_skipped(), 0);
  ASSERT_EQ(second.ok, 1);
  EXPECT_TRUE(second.jobs[0].from_manifest);
  EXPECT_EQ(second.jobs[0].spec_raw, first.jobs[0].spec_raw);
  EXPECT_EQ(second.jobs[0].payload_json, first.jobs[0].payload_json);
  write_job_report(path("first.json"), first);
  write_job_report(path("second.json"), second);
  std::ifstream a(path("first.json")), b(path("second.json"));
  const std::string first_bytes((std::istreambuf_iterator<char>(a)),
                                std::istreambuf_iterator<char>());
  const std::string second_bytes((std::istreambuf_iterator<char>(b)),
                                 std::istreambuf_iterator<char>());
  EXPECT_FALSE(first_bytes.empty());
  EXPECT_EQ(first_bytes, second_bytes);
}

TEST_F(JobManagerTest, ReportPathThatIsADirectoryIsATypedError) {
  fs::create_directories(dir_ / "report" / "keep");
  JobBatchReport report;
  try {
    write_job_report(path("report"), report);
    ADD_FAILURE() << "write_job_report replaced a directory";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kHarness) << e.what();
  }
  EXPECT_FALSE(fs::exists(path("report.tmp")));
  EXPECT_TRUE(fs::is_directory(dir_ / "report" / "keep"));
}

}  // namespace
}  // namespace gpusim
