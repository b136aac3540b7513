// Outside-in microbenchmarks run in the benchmark's traced pass: the event
// core and the access-pattern walk, each driven through the library's public
// API with the shape of the workload being measured.

#ifndef DDIO_PERFBENCH_MICRO_H_
#define DDIO_PERFBENCH_MICRO_H_

#include <cstdint>

#include "src/pattern/pattern.h"

namespace perfbench {

struct EngineMicro {
  double fifo_event_ns = 0;   // Host ns per same-instant (Yield) event.
  double timed_event_ns = 0;  // Host ns per calendar-tier (Delay) event.
};

// Holds `depth` tasks in sim::Engine's queue — first all yielding (the FIFO
// ring), then all delaying by seed-derived amounts (the calendar tier) — and
// times about `events` dispatches of each kind.
EngineMicro RunEngineMicro(std::uint64_t depth, std::uint64_t events, std::uint64_t seed);

// Host-speed reference: a fixed discrete-event kernel written here, apart
// from the simulator, so that its time moves only with the host's speed: a
// timed heap of events whose handlers read and write 100,000 task records
// (12.8 MB). The host's speed changes by up to 1.8x within minutes; this
// kernel, which touches memory the way the simulator does, slows with it,
// where an arithmetic loop barely moves. Returns host seconds.
double RunHostReference(std::uint64_t seed);

struct PatternWalk {
  double walk_s = 0;             // ForEachChunk over all CPs + pieces over all blocks.
  std::uint64_t chunks = 0;
  std::uint64_t pieces = 0;
  std::uint64_t chunk_bytes = 0;  // Sum of chunk lengths.
  std::uint64_t piece_bytes = 0;  // Sum of piece lengths.
};

// Walks `pattern` the way the file systems do: every CP's chunks (the TC
// view) and every `block_bytes` block's pieces (the DDIO view).
PatternWalk RunPatternWalk(const ddio::pattern::AccessPattern& pattern,
                           std::uint32_t block_bytes);

}  // namespace perfbench

#endif  // DDIO_PERFBENCH_MICRO_H_
