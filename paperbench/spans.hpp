// In-memory span recorder for the benchmark's traced run.
//
// Each worker thread owns one SpanLog, so recording takes no lock.  A span
// names the layer the benchmark called into (job, alone baseline, co-run,
// co-run chunk, result), the job it belongs to and its parent span; the
// logs are merged and written once, at the end, as Chrome trace-event JSON
// (the format the simulator's --trace-out already emits, so Perfetto and
// chrome://tracing open both).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace paperbench {

inline std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::string layer;  ///< "job", "alone", "corun", "chunk", "result"
  int job = -1;       ///< shared by every span of one job
  int parent = -1;    ///< index into the same SpanLog, -1 for a root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  bool flag = false;  ///< alone: cold call; chunk: migration pending at end

  double seconds() const { return 1e-9 * static_cast<double>(end_ns - start_ns); }
};

class SpanLog {
 public:
  explicit SpanLog(int tid) : tid_(tid) {}

  int tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Opens a span and returns its index; close it with end().
  int begin(std::string name, std::string layer, int job, int parent) {
    spans_.push_back(Span{std::move(name), std::move(layer), job, parent,
                          mono_ns(), 0, false});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int index, bool flag = false) {
    spans_[index].end_ns = mono_ns();
    spans_[index].flag = flag;
  }

  /// Duration of `index` minus the time its direct children cover.
  double self_seconds(int index) const {
    double child = 0.0;
    for (const Span& s : spans_) {
      if (s.parent == index) child += s.seconds();
    }
    return spans_[index].seconds() - child;
  }

 private:
  int tid_;
  std::vector<Span> spans_;
};

/// Closes its span on scope exit, so a job that throws still leaves a
/// well-formed trace.
class SpanScope {
 public:
  SpanScope(SpanLog& log, std::string name, std::string layer, int job,
            int parent)
      : log_(log),
        index_(log.begin(std::move(name), std::move(layer), job, parent)) {}
  ~SpanScope() { log_.end(index_, flag_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int index() const { return index_; }
  void set_flag(bool flag) { flag_ = flag; }

 private:
  SpanLog& log_;
  int index_;
  bool flag_ = false;
};

inline std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// Writes every log as one Chrome trace-event file: complete ("X") events
/// in microseconds from `origin_ns`, one thread track per worker, and
/// `metadata_json` (a JSON object) under the top-level "metadata" key.
/// Returns false when the file cannot be written.
inline bool write_chrome_trace(const std::string& path,
                               const std::vector<SpanLog>& logs,
                               std::int64_t origin_ns,
                               const std::string& metadata_json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"metadata\":%s,"
                  "\"traceEvents\":[\n",
               metadata_json.c_str());
  bool first = true;
  for (const SpanLog& log : logs) {
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%d,\"args\":{\"name\":\"worker %d\"}}",
                 first ? "" : ",\n", log.tid(), log.tid());
    first = false;
    const std::vector<Span>& spans = log.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(
          f,
          ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
          "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"job\":%d,"
          "\"parent\":\"%s\",\"self_us\":%.3f,\"flag\":%s}}",
          json_escape(s.name).c_str(), s.layer.c_str(), log.tid(),
          1e-3 * static_cast<double>(s.start_ns - origin_ns),
          1e-3 * static_cast<double>(s.end_ns - s.start_ns), s.job,
          s.parent < 0 ? "" : json_escape(spans[s.parent].name).c_str(),
          1e6 * log.self_seconds(static_cast<int>(i)),
          s.flag ? "true" : "false");
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace paperbench
