#include "timeline.hpp"

#include <cstdio>

namespace perfbench {

std::int32_t Timeline::open(const char* name, std::int64_t begin_ns) {
  Span span;
  span.name = name;
  span.begin_ns = begin_ns;
  span.end_ns = begin_ns;
  span.parent = open_.empty() ? -1 : open_.back();
  span.sample = sample_;
  spans_.push_back(span);
  const auto id = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Timeline::close(std::int32_t id, std::int64_t end_ns) {
  spans_[static_cast<std::size_t>(id)].end_ns = end_ns;
  // Scopes nest lexically, so the closing span is the innermost open one.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<std::int64_t> Timeline::self_times_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_ns - spans_[i].begin_ns;
  for (const Span& span : spans_)
    if (span.parent >= 0)
      self[static_cast<std::size_t>(span.parent)] -=
          span.end_ns - span.begin_ns;
  return self;
}

void Timeline::write_chrome_trace(std::ostream& os,
                                  const std::string& metadata_json) const {
  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << metadata_json
     << ",\"traceEvents\":[";
  char buf[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (i != 0) os << ',';
    // Span names are benchmark-owned identifiers ([a-z0-9._]), so they need
    // no JSON escaping.
    os << "{\"name\":\"" << span.name << "\",\"cat\":\"perfbench\","
       << "\"ph\":\"X\",\"pid\":1,\"tid\":1,";
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f,",
                  static_cast<double>(span.begin_ns) * 1e-3,
                  static_cast<double>(span.end_ns - span.begin_ns) * 1e-3);
    os << buf << "\"args\":{\"id\":" << i << ",\"parent\":" << span.parent
       << ",\"sample\":" << span.sample << "}}";
  }
  os << "]}\n";
}

}  // namespace perfbench
