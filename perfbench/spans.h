// In-memory host-time span recorder for the benchmark's traced runs.
//
// The benchmark times each call it makes into the simulator (session
// construction, file layout, file-system start, the phase run, session
// teardown, image verification) and, on traced runs, records those intervals
// here as spans: name, start, end, parent span and repetition id. Nothing is
// written while the benchmark measures; WriteJson dumps every span once, at
// exit. A span's self time is its duration minus the time its child spans
// cover.

#ifndef DDIO_PERFBENCH_SPANS_H_
#define DDIO_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

class SpanRecorder {
 public:
  static constexpr int kNoParent = -1;

  // Appends a span and returns its id. `name` must be a string literal. A
  // parent is added before its children, and its children right after it.
  int Add(const char* name, int parent, int rep, Clock::time_point start,
          Clock::time_point end);

  // Duration of span `id` minus the durations of its direct children.
  double SelfSeconds(int id) const;

  // Self time of the child of `parent` named `name`; 0 when there is none.
  double ChildSelfSeconds(int parent, const char* name) const;

  // Writes every span, times in ns relative to the first span's start, as one
  // JSON document carrying `header` (a JSON object body) alongside. Returns
  // false when the file cannot be written.
  bool WriteJson(const std::string& path, const std::string& header) const;

 private:
  struct Span {
    const char* name;
    int parent;
    int rep;
    Clock::time_point start;
    Clock::time_point end;
    double child_seconds;  // Summed durations of the direct children.
  };
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // DDIO_PERFBENCH_SPANS_H_
