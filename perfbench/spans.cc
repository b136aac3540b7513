#include "spans.h"

#include <cstdio>
#include <cstring>

namespace perfbench {

int SpanRecorder::Add(const char* name, int parent, int rep, Clock::time_point start,
                      Clock::time_point end) {
  if (parent != kNoParent) {
    spans_[static_cast<std::size_t>(parent)].child_seconds += Seconds(start, end);
  }
  spans_.push_back(Span{name, parent, rep, start, end, 0.0});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanRecorder::SelfSeconds(int id) const {
  const Span& span = spans_[static_cast<std::size_t>(id)];
  return Seconds(span.start, span.end) - span.child_seconds;
}

double SpanRecorder::ChildSelfSeconds(int parent, const char* name) const {
  for (std::size_t i = static_cast<std::size_t>(parent) + 1;
       i < spans_.size() && spans_[i].parent == parent; ++i) {
    if (std::strcmp(spans_[i].name, name) == 0) {
      return SelfSeconds(static_cast<int>(i));
    }
  }
  return 0.0;
}

bool SpanRecorder::WriteJson(const std::string& path, const std::string& header) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  const Clock::time_point origin = spans_.empty() ? Clock::time_point{} : spans_.front().start;
  auto ns = [origin](Clock::time_point t) {
    return static_cast<long long>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin).count());
  };
  std::fprintf(out, "{%s,\n\"spans\": [\n", header.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, \"rep\": %d, "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"self_ns\": %.0f}%s\n",
                 i, span.name, span.parent, span.rep, ns(span.start), ns(span.end),
                 SelfSeconds(static_cast<int>(i)) * 1e9, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
