#include "common/json.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

namespace gpusim {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

namespace {

constexpr int kMaxDepth = 64;

/// Recursive-descent parser.  Values below the top level are validated in
/// full but only delimited, never materialized.
class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  bool top_level(std::vector<JsonObject::Member>& members) {
    if (!object(1, &members)) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  /// Advances past characters in `set`; true when any was skipped.
  bool skip(std::string_view set) {
    const std::size_t start = pos_;
    pos_ = std::min(s_.find_first_not_of(set, pos_), s_.size());
    return pos_ > start;
  }
  void skip_ws() { skip(" \t\n\r"); }

  /// Consumes `w` exactly (no whitespace skipped).
  bool word(std::string_view w) {
    if (s_.substr(pos_, w.size()) != w) return false;
    pos_ += w.size();
    return true;
  }

  /// Skips whitespace, then consumes `c`.
  bool eat(char c) {
    skip_ws();
    return word(std::string_view(&c, 1));
  }

  bool digits() { return skip("0123456789"); }

  bool number() {
    word("-");
    if (word("nan") || word("inf")) return true;
    if (!word("0") && !digits()) return false;
    if (word(".") && !digits()) return false;
    if (word("e") || word("E")) {
      if (!word("+")) word("-");
      if (!digits()) return false;
    }
    return true;
  }

  /// One string token, decoded into `out` when given.
  bool string(std::string* out = nullptr) {
    static constexpr std::string_view kEscapes = "\"\\/bfnrt";
    static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
    std::string scratch;
    std::string& text = out != nullptr ? *out : scratch;
    if (!eat('"')) return false;
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\' && word("u")) {
        // Basic-plane code points, as UTF-8: the writer emits \u00XX and
        // raw UTF-8, never surrogate pairs.
        unsigned cp = 0;
        const char* hex = s_.data() + pos_;
        if (s_.size() - pos_ < 4 ||
            std::from_chars(hex, hex + 4, cp, 16).ptr != hex + 4 ||
            (cp >= 0xD800 && cp <= 0xDFFF)) {
          return false;
        }
        pos_ += 4;
        if (cp >= 0x800) {
          text += static_cast<char>(0xE0 | (cp >> 12));
          text += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
        } else if (cp >= 0x80) {
          text += static_cast<char>(0xC0 | (cp >> 6));
        }
        text += static_cast<char>(cp < 0x80 ? cp : 0x80 | (cp & 0x3F));
        continue;
      }
      if (c == '\\') {
        const std::size_t k = kEscapes.find(peek());
        if (k == std::string_view::npos) return false;
        ++pos_;
        c = kDecoded[k];
      }
      text += c;
    }
    return false;  // unterminated
  }

  bool value(int depth) {
    skip_ws();
    if (depth > kMaxDepth) return false;
    switch (peek()) {
      case '"': return string();
      case '{': return object(depth, nullptr);
      case '[': {
        ++pos_;
        if (eat(']')) return true;
        do {
          if (!value(depth + 1)) return false;
        } while (eat(','));
        return eat(']');
      }
      default:
        return word("true") || word("false") || word("null") || number();
    }
  }

  /// An object; its members are recorded into `members` when non-null.
  bool object(int depth, std::vector<JsonObject::Member>* members) {
    if (!eat('{')) return false;
    if (eat('}')) return true;
    do {
      JsonObject::Member m;
      if (!string(&m.key) || !eat(':')) return false;
      skip_ws();
      const std::size_t start = pos_;
      if (members != nullptr && peek() == '"') {
        m.is_string = true;
        if (!string(&m.value)) return false;
      } else if (!value(depth + 1)) {
        return false;
      } else if (members != nullptr) {
        m.value = s_.substr(start, pos_ - start);
      }
      if (members != nullptr) members->push_back(std::move(m));
    } while (eat(','));
    return eat('}');
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

const std::string* JsonObject::find(std::string_view key,
                                    bool is_string) const {
  for (auto it = members_.rbegin(); it != members_.rend(); ++it) {
    if (it->key != key) continue;
    return it->is_string == is_string ? &it->value : nullptr;
  }
  return nullptr;
}

const std::string* JsonObject::string(std::string_view key) const {
  return find(key, true);
}

const std::string* JsonObject::raw(std::string_view key) const {
  return find(key, false);
}

std::optional<u64> JsonObject::unsigned_value(std::string_view key) const {
  const std::string* text = raw(key);
  if (text == nullptr) return std::nullopt;
  u64 v = 0;
  const char* end = text->data() + text->size();
  const auto [ptr, ec] = std::from_chars(text->data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

std::optional<JsonObject> parse_json_object(std::string_view text) {
  JsonObject obj;
  if (!Parser(text).top_level(obj.members_)) return std::nullopt;
  return obj;
}

void write_file_atomic(const std::string& path,
                       std::initializer_list<std::string_view> parts,
                       SimErrorKind kind, const std::string& component) {
  const std::string tmp = path + ".tmp";
  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  const auto fail = [&](const char* what, const std::string& error) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    SIM_FAIL(SimError(kind, component, what)
                 .detail("path", path)
                 .detail("error", error));
  };
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    for (const std::string_view part : parts) {
      out.write(part.data(), static_cast<std::streamsize>(part.size()));
    }
    out.close();
    if (!out) fail("cannot write temp file", "open or short write");
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) fail("cannot publish file", ec.message());
}

}  // namespace gpusim
