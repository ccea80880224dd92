// MetricsRegistry contracts: Prometheus text exposition shape (one
// HELP/TYPE pair per family even under interleaved registration),
// deterministic ordering, histogram bucket math, and exact double
// rendering.  The renderer's output is byte-compared across runs by the
// determinism gates, so the shape asserted here is load-bearing.
#include "telemetry/registry.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

namespace gpusim {
namespace {

std::string render(const MetricsRegistry& reg) {
  std::ostringstream out;
  reg.render(out);
  return out.str();
}

std::size_t count_occurrences(const std::string& text, const std::string& sub) {
  std::size_t n = 0;
  for (std::size_t pos = text.find(sub); pos != std::string::npos;
       pos = text.find(sub, pos + sub.size())) {
    ++n;
  }
  return n;
}

TEST(MetricsRegistryTest, InterleavedFamiliesRenderOneTypePerFamily) {
  // Collectors register per-app samples in app-major order, so families
  // interleave: a_total{app=0}, b_total{app=0}, a_total{app=1}, ...  The
  // text format forbids repeating HELP/TYPE, so render must regroup.
  MetricsRegistry reg;
  for (int app = 0; app < 3; ++app) {
    const std::string l = "app=\"" + std::to_string(app) + "\"";
    reg.counter("gpusim_a_total", l, "a help") = app;
    reg.counter("gpusim_b_total", l, "b help") = app * 10;
  }
  const std::string text = render(reg);
  EXPECT_EQ(count_occurrences(text, "# TYPE gpusim_a_total counter"), 1u);
  EXPECT_EQ(count_occurrences(text, "# TYPE gpusim_b_total counter"), 1u);
  EXPECT_EQ(count_occurrences(text, "# HELP gpusim_a_total a help"), 1u);
  // Families keep first-registration order; samples stay contiguous.
  const std::size_t a_type = text.find("# TYPE gpusim_a_total");
  const std::size_t b_type = text.find("# TYPE gpusim_b_total");
  ASSERT_NE(a_type, std::string::npos);
  ASSERT_NE(b_type, std::string::npos);
  EXPECT_LT(a_type, b_type);
  const std::size_t a_last = text.find("gpusim_a_total{app=\"2\"}");
  ASSERT_NE(a_last, std::string::npos);
  EXPECT_LT(a_last, b_type) << "family samples must be contiguous";
}

TEST(MetricsRegistryTest, SamplesWithinAFamilyKeepRegistrationOrder) {
  MetricsRegistry reg;
  reg.gauge("gpusim_g", "part=\"1\"", "h") = 1.0;
  reg.gauge("gpusim_g", "part=\"0\"", "h") = 0.0;
  const std::string text = render(reg);
  EXPECT_LT(text.find("part=\"1\""), text.find("part=\"0\""))
      << "no sorting — registration order is the deterministic order";
}

TEST(MetricsRegistryTest, CounterRefindReturnsSameSlot) {
  MetricsRegistry reg;
  reg.counter("gpusim_c_total", "", "h") = 1.0;
  reg.counter("gpusim_c_total", "", "h") += 2.0;
  const std::string text = render(reg);
  EXPECT_EQ(count_occurrences(text, "\ngpusim_c_total "), 1u)
      << "re-registration must not create a second sample";
  EXPECT_NE(text.find("gpusim_c_total 3"), std::string::npos);
}

TEST(MetricsRegistryTest, UnlabeledSamplesRenderWithoutBraces) {
  MetricsRegistry reg;
  reg.gauge("gpusim_plain", "", "h") = 7.0;
  const std::string text = render(reg);
  EXPECT_NE(text.find("gpusim_plain 7\n"), std::string::npos);
  EXPECT_EQ(text.find("gpusim_plain{"), std::string::npos);
}

TEST(MetricsRegistryTest, HistogramBucketsAreCumulativeWithInf) {
  MetricsRegistry reg;
  // Bounds that are exact in binary, so the %.17g-rendered le labels stay
  // short and predictable.
  auto& h = reg.histogram("gpusim_err", "est=\"DASE\"", "h", {0.25, 0.5});
  MetricsRegistry::observe(h, 0.05);   // <= 0.25
  MetricsRegistry::observe(h, 0.3);    // <= 0.5
  MetricsRegistry::observe(h, 0.3);    // <= 0.5
  MetricsRegistry::observe(h, 2.0);    // +Inf
  const std::string text = render(reg);
  EXPECT_NE(text.find("gpusim_err_bucket{est=\"DASE\",le=\"0.25\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("gpusim_err_bucket{est=\"DASE\",le=\"0.5\"} 3"),
            std::string::npos)
      << "buckets are cumulative, not per-bin";
  EXPECT_NE(text.find("gpusim_err_bucket{est=\"DASE\",le=\"+Inf\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("gpusim_err_count{est=\"DASE\"} 4"), std::string::npos);
  EXPECT_NE(text.find("gpusim_err_sum{est=\"DASE\"} "), std::string::npos);
}

TEST(MetricsRegistryTest, FmtRoundTripsDoublesExactly) {
  // The registry renders with json_number (%.17g), which guarantees
  // strtod(json_number(v)) == v bit-for-bit; the byte-identity gates depend
  // on that (two runs at the same state → the same text).
  for (const double v : {0.1, 1.0 / 3.0, 12345.678901234567, 1e-300, 0.0}) {
    const std::string s = json_number(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
  EXPECT_EQ(json_number(1.0), "1");
}

}  // namespace
}  // namespace gpusim
