// The harness JSON codec (common/json.hpp) and the JSONL Journal behind
// every checkpoint and manifest: escape/parse round-trips every byte, only
// top-level members are visible, nested payloads replay verbatim, every
// truncation of a real sweep / chaos / jobs-manifest line is rejected
// whole, and concurrent appends neither lose nor interleave lines.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/sim_error.hpp"
#include "harness/chaos.hpp"
#include "harness/job_manager.hpp"
#include "harness/journal.hpp"
#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "kernels/workload_sets.hpp"

namespace gpusim {
namespace {

namespace fs = std::filesystem;

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("gpusim_journal_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static std::vector<std::string> lines_of(const std::string& file) {
    std::ifstream in(file);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    return lines;
  }

  fs::path dir_;
};

std::string member(const std::string& key, const std::string& value) {
  return "{\"" + key + "\":\"" + json_escape(value) + "\"}";
}

// ---- codec -------------------------------------------------------------

TEST(JsonCodecTest, EscapeParseRoundTripsEveryByte) {
  std::string all;
  for (int b = 0; b < 256; ++b) {
    const std::string one(1, static_cast<char>(b));
    all += one;
    const auto parsed = parse_json_object(member("k", "<" + one + ">"));
    ASSERT_TRUE(parsed.has_value()) << "byte " << b;
    ASSERT_NE(parsed->string("k"), nullptr) << "byte " << b;
    EXPECT_EQ(*parsed->string("k"), "<" + one + ">") << "byte " << b;
  }
  const auto parsed = parse_json_object(member("all", all));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed->string("all"), all);
}

TEST(JsonCodecTest, EscapeKeepsTheFileFormatBytes) {
  // The exact bytes every checkpoint, manifest and report has always used.
  EXPECT_EQ(json_escape("\"\\\n\r\t\x01\x1f\x7f\xc3\xa9 \x0c"),
            "\\\"\\\\\\n\\r\\t\\u0001\\u001f\x7f\xc3\xa9 \\u000c");
  EXPECT_EQ(json_number(1.0 / 3.0), "0.33333333333333331");
  EXPECT_EQ(json_number(1.0), "1");
}

TEST(JsonCodecTest, KeysInsideValuesAreNeverMatched) {
  const std::string line =
      "{\"error_message\":\"" + json_escape("\"error_kind\":\"x\"") +
      "\",\"payload\":{\"error_kind\":\"y\",\"status\":\"ok\"}}";
  const auto parsed = parse_json_object(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->string("error_kind"), nullptr);
  EXPECT_EQ(parsed->string("status"), nullptr);
  ASSERT_NE(parsed->string("error_message"), nullptr);
  EXPECT_EQ(*parsed->string("error_message"), "\"error_kind\":\"x\"");
}

TEST(JsonCodecTest, NestedPayloadsComeBackVerbatim) {
  CoRunResult r;
  r.label = "SD+SA";
  r.cycles = 1234;
  r.unfairness = 1.0 / 3.0;
  r.apps.resize(2);
  r.apps[0].abbr = "SD";
  r.apps[0].estimates["DASE"] = 2.5;
  r.apps[1].abbr = "SA";
  r.app_bw_share = {0.25, 0.5};
  const std::string result = SweepRunner::to_json(r);
  const auto parsed = parse_json_object("{\"label\":\"SD+SA\",\"ok\":true,"
                                        "\"result\":" + result + "}");
  ASSERT_TRUE(parsed.has_value());
  ASSERT_NE(parsed->raw("result"), nullptr);
  EXPECT_EQ(*parsed->raw("result"), result);
  EXPECT_EQ(*parsed->raw("ok"), "true");

  // Whitespace inside a nested value is part of its verbatim text.
  const auto spaced = parse_json_object("{ \"a\" : [1, {\"b\" : 2}] ,\n"
                                        "\"n\": -0.5e+3 }\n");
  ASSERT_TRUE(spaced.has_value());
  EXPECT_EQ(*spaced->raw("a"), "[1, {\"b\" : 2}]");
  EXPECT_EQ(*spaced->raw("n"), "-0.5e+3");
}

TEST(JsonCodecTest, StrictReaderRejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "}", "[]", "{}x", "{\"a\":1,}", "{\"a\" 1}", "{a:1}",
        "{\"a\":01}", "{\"a\":1.}", "{\"a\":tru}", "{\"a\":\"\x01\"}",
        "{\"a\":\"\\q\"}", "{\"a\":\"\\u12\"}", "{\"a\":\"\\udc00\"}",
        "{\"a\":\"\\ud800x\"}", "{\"a\":\"\\ud83d\\ude00\"}",
        "{\"a\":[1,]}", "{\"a\":{\"b\":1}"}) {
    EXPECT_FALSE(parse_json_object(bad).has_value()) << bad;
  }
  std::string deep = "{\"a\":";
  for (int i = 0; i < 80; ++i) deep += "[";
  for (int i = 0; i < 80; ++i) deep += "]";
  EXPECT_FALSE(parse_json_object(deep + "}").has_value());

  const auto ok = parse_json_object(
      "{\"e\":\"\\u00e9\\u20AC\\/\\b\\f\",\"x\":nan,\"y\":-inf,"
      "\"t\":true,\"z\":null,\"u\":18446744073709551615,\"big\":"
      "18446744073709551616,\"a\":1,\"a\":2}");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(*ok->string("e"), "\xc3\xa9\xe2\x82\xac/\b\f");
  EXPECT_EQ(*ok->raw("x"), "nan");
  EXPECT_EQ(*ok->raw("y"), "-inf");
  EXPECT_EQ(ok->unsigned_value("u"), 18446744073709551615ull);
  EXPECT_FALSE(ok->unsigned_value("big").has_value());
  EXPECT_FALSE(ok->unsigned_value("y").has_value());
  EXPECT_EQ(ok->unsigned_value("a"), 2u);  // the last duplicate wins
  EXPECT_EQ(ok->raw("e"), nullptr);        // a string is not raw
  EXPECT_EQ(ok->string("t"), nullptr);     // a literal is not a string
}

TEST_F(JournalTest, EveryTruncationOfARealLineIsRejectedWhole) {
  std::vector<std::string> lines;

  SweepOptions so;
  so.checkpoint_path = path("sweep.jsonl");
  RunConfig rc;
  rc.co_run_cycles = 5'000;
  SweepRunner sweep(so, SweepRunner::RunFnFactory([&rc]() {
                      auto runner = std::make_shared<ExperimentRunner>(rc);
                      return [runner](const Workload& w) {
                        return runner->run(w, ModelSet{.dase = true});
                      };
                    }));
  sweep.run({all_two_app_workloads().front()});
  for (const std::string& l : lines_of(so.checkpoint_path)) lines.push_back(l);

  ChaosOptions co;
  co.schedules = 2;
  co.cycles = 5'000;
  co.minimize = false;
  co.checkpoint_path = path("chaos.jsonl");
  run_chaos_campaign(co);
  for (const std::string& l : lines_of(co.checkpoint_path)) lines.push_back(l);

  JobManagerOptions jo;
  jo.manifest_path = path("jobs.jsonl");
  jo.default_cycles = 5'000;
  jo.snapshot_every = 0;
  jo.backoff_base_ms = 0;
  JobManager manager(jo);
  manager.run({JobSpec::parse("run apps=SD,SA\fcycles=5000", 0),
               JobSpec::parse("run apps=SD,SA cycle-budget=1000", 1)});
  for (const std::string& l : lines_of(jo.manifest_path)) lines.push_back(l);

  ASSERT_EQ(lines.size(), 1u + 2u + 5u);
  for (const std::string& line : lines) {
    ASSERT_TRUE(parse_json_object(line).has_value()) << line;
    for (std::size_t cut = 0; cut < line.size(); ++cut) {
      EXPECT_FALSE(parse_json_object(line.substr(0, cut)).has_value())
          << "prefix of " << cut << " bytes parsed: " << line;
    }
  }
}

// ---- journal -----------------------------------------------------------

TEST_F(JournalTest, ConcurrentAppendsLoseAndInterleaveNothing) {
  constexpr int kThreads = 8;
  constexpr int kLines = 250;
  const std::string file = path("many.jsonl");
  {
    Journal journal(file, "test journal", "line", "harness.test");
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&journal, t] {
        // Long lines, so an unlocked writer would tear them across
        // stream-buffer boundaries.
        const std::string pad(300 + 37 * t, static_cast<char>('a' + t));
        for (int n = 0; n < kLines; ++n) {
          journal.append("{\"t\":" + std::to_string(t) + ",\"n\":" +
                         std::to_string(n) + ",\"pad\":\"" + pad + "\"}");
        }
      });
    }
    for (std::thread& w : writers) w.join();
  }
  Journal reread(file, "test journal", "line", "harness.test");
  EXPECT_EQ(reread.skipped(), 0);
  ASSERT_EQ(reread.records().size(),
            static_cast<std::size_t>(kThreads * kLines));
  std::set<std::pair<u64, u64>> seen;
  for (const JournalRecord& rec : reread.records()) {
    const auto t = rec.object.unsigned_value("t");
    const auto n = rec.object.unsigned_value("n");
    ASSERT_TRUE(t && n) << rec.text;
    const std::string pad(300 + 37 * *t, static_cast<char>('a' + *t));
    EXPECT_EQ(*rec.object.string("pad"), pad);
    EXPECT_TRUE(seen.insert({*t, *n}).second) << "duplicate " << rec.text;
  }
}

TEST_F(JournalTest, TornTailIsCountedSealedAndStaysSkippable) {
  const std::string file = path("torn.jsonl");
  {
    std::ofstream out(file);
    out << "{\"k\":1}\n\n{\"k\":2,\"v\":\"tor";  // torn, no newline
  }
  {
    Journal journal(file, "test journal", "line", "harness.test");
    ASSERT_EQ(journal.records().size(), 1u);
    EXPECT_EQ(journal.records()[0].line_no, 1);
    EXPECT_EQ(journal.records()[0].text, "{\"k\":1}");
    EXPECT_EQ(journal.skipped(), 1);
    journal.skip(1, "unusable for this test");
    EXPECT_EQ(journal.skipped(), 2);
    journal.append("{\"k\":3}");
  }
  Journal reread(file, "test journal", "line", "harness.test");
  ASSERT_EQ(reread.records().size(), 2u);
  EXPECT_EQ(reread.records()[1].text, "{\"k\":3}");
  EXPECT_EQ(reread.skipped(), 1);  // the fragment, on its own line
}

TEST_F(JournalTest, UnopenablePathIsATypedError) {
  fs::create_directories(dir_ / "a_directory");
  try {
    Journal journal(path("a_directory"), "test journal", "line",
                    "harness.test");
    ADD_FAILURE() << "a directory opened as a journal";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kHarness) << e.what();
    EXPECT_EQ(e.component(), "harness.test");
  }
}

}  // namespace
}  // namespace gpusim
