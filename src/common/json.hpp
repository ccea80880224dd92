// How the harness writes, publishes and reads back its files: results,
// checkpoints, manifests and reports.
//
// Writers build their lines by hand (field order is part of every file
// format, and resumed runs replay stored lines byte for byte), so this is a
// few small pieces rather than a document model: json_escape and
// json_number for writing, parse_json_object for reading, and
// write_file_atomic for publishing a finished file.
#pragma once

#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/sim_error.hpp"
#include "common/types.hpp"

namespace gpusim {

/// A JSON string body: '"', '\\', '\n', '\r' and '\t' as two-character
/// escapes, other bytes below 0x20 as \u00XX, all other bytes verbatim.
std::string json_escape(std::string_view text);

/// %.17g: the shortest printf form that round-trips every double exactly
/// (non-finite values print as nan / inf).
std::string json_number(double v);

/// The top-level members of one JSON object.  String members come back
/// decoded; any other member (number, literal, nested object or array)
/// comes back as its verbatim source text, so a stored result replays
/// unchanged.  Keys inside nested values or inside strings are never seen.
class JsonObject {
 public:
  struct Member {
    std::string key;
    bool is_string = false;
    std::string value;  ///< decoded string, or verbatim source text
  };

  /// Decoded string member `key` (the last one when a key repeats), or
  /// nullptr when absent or not a string.
  const std::string* string(std::string_view key) const;
  /// Verbatim text of non-string member `key`, or nullptr.
  const std::string* raw(std::string_view key) const;
  /// Member `key` when it is a plain unsigned decimal that fits a u64.
  std::optional<u64> unsigned_value(std::string_view key) const;

 private:
  friend std::optional<JsonObject> parse_json_object(std::string_view text);
  /// The last member named `key`, if its kind matches `is_string`.
  const std::string* find(std::string_view key, bool is_string) const;

  std::vector<Member> members_;
};

/// Strictly parses `text` as exactly one JSON object (whitespace around it
/// allowed).  Anything else — truncation, trailing bytes, raw control bytes
/// in strings, bad or surrogate \u escapes, nesting deeper than 64 — yields
/// nullopt, never a partial object.  Numbers may also be the nan / inf /
/// -nan / -inf that json_number prints.
std::optional<JsonObject> parse_json_object(std::string_view text);

/// Publishes the concatenated `parts` at `path` atomically: creates missing
/// parent directories, writes "<path>.tmp", checks for a short write, then
/// renames it over `path`.  On any failure (for instance `path` is a
/// non-empty directory) the temp file is removed and SimError(kind,
/// component) names the path.
void write_file_atomic(const std::string& path,
                       std::initializer_list<std::string_view> parts,
                       SimErrorKind kind, const std::string& component);

}  // namespace gpusim
