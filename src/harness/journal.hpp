// Journal — the append-only JSONL file behind every resumable harness
// engine: sweep checkpoints, chaos checkpoints and jobs manifests.
//
// A record is one JSON object on one line, appended and flushed whole under
// a mutex, so concurrent writers never interleave and a kill tears at most
// the line in flight.  Opening loads every line that parses and counts,
// warns about and skips the rest (their units re-run), then seals a torn,
// newline-less tail so the next record cannot glue onto the fragment.
#pragma once

#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace gpusim {

struct JournalRecord {
  int line_no = 0;   ///< 1-based, for warnings
  std::string text;  ///< the line, verbatim
  JsonObject object;
};

class Journal {
 public:
  /// Loads `path` (missing = empty), seals a torn tail and opens it for
  /// appending; SimError(kHarness, component) when that fails.  `name`
  /// ("sweep checkpoint") and `unit` ("pair") word the skip warnings.
  Journal(std::string path, std::string name, std::string unit,
          std::string component);

  const std::vector<JournalRecord>& records() const { return records_; }
  /// Counts and warns about a line its reader cannot use.
  void skip(int line_no, const std::string& why);
  /// Unparseable lines plus those passed to skip().
  int skipped() const { return skipped_; }
  /// Appends `line` and a newline, then flushes; safe from any thread.
  /// A failed write raises SimError(kHarness, component).
  void append(const std::string& line);

 private:
  std::string path_, name_, unit_, component_;
  std::vector<JournalRecord> records_;
  int skipped_ = 0;
  std::mutex mu_;
  std::ofstream out_;
};

}  // namespace gpusim
