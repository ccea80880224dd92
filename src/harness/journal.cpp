#include "harness/journal.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

namespace gpusim {

Journal::Journal(std::string path, std::string name, std::string unit,
                 std::string component)
    : path_(std::move(path)),
      name_(std::move(name)),
      unit_(std::move(unit)),
      component_(std::move(component)) {
  // A stream insert (unlike a streambuf iterator) turns a read error, say
  // on a directory, into a failbit; the open below then reports it.
  std::ostringstream ss;
  if (std::ifstream in(path_, std::ios::binary); in) ss << in.rdbuf();
  const std::string data = ss.str();
  int line_no = 0;
  for (std::size_t at = 0; at < data.size(); ++line_no) {
    const std::size_t end = std::min(data.find('\n', at), data.size());
    const std::string line = data.substr(at, end - at);
    at = end + 1;
    if (line.empty()) continue;  // a sealed tail's padding
    if (std::optional<JsonObject> object = parse_json_object(line)) {
      records_.push_back({line_no + 1, line, std::move(*object)});
    } else {
      skip(line_no + 1, "torn or unparseable (crash mid-write?)");
    }
  }
  out_.open(path_, std::ios::binary | std::ios::app);
  SIM_CHECK(out_.good(), SimError(SimErrorKind::kHarness, component_,
                                  "cannot open " + name_ + " for append")
                             .detail("path", path_));
  if (!data.empty() && data.back() != '\n') out_ << '\n';
}

void Journal::skip(int line_no, const std::string& why) {
  ++skipped_;
  std::fprintf(stderr,
               "gpusim: %s %s line %d is %s — skipping it; the affected %s "
               "will re-run\n",
               name_.c_str(), path_.c_str(), line_no, why.c_str(),
               unit_.c_str());
}

void Journal::append(const std::string& line) {
  std::lock_guard<std::mutex> lock(mu_);
  out_ << line << '\n' << std::flush;
  SIM_CHECK(out_.good(), SimError(SimErrorKind::kHarness, component_,
                                  "cannot append to " + name_)
                             .detail("path", path_));
}

}  // namespace gpusim
