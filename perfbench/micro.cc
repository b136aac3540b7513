#include "micro.h"

#include <sys/mman.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <queue>
#include <vector>

#include "spans.h"
#include "src/sim/engine.h"
#include "src/sim/task.h"

namespace perfbench {
namespace {

using ddio::sim::Engine;
using ddio::sim::Task;

Task<> Yielder(Engine& engine, std::uint64_t iterations) {
  for (std::uint64_t i = 0; i < iterations; ++i) {
    co_await engine.Yield();
  }
}

// Sleeps `iterations` times for pseudo-random delays of 1..4096 ns drawn
// from a per-task LCG, so the calendar tier sees spread-out timestamps.
Task<> Sleeper(Engine& engine, std::uint64_t iterations, std::uint64_t state) {
  for (std::uint64_t i = 0; i < iterations; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    co_await engine.Delay(1 + (state >> 52));
  }
}

// Runs the engine to completion and returns host ns per dispatched event.
double TimeRun(Engine& engine) {
  const Clock::time_point start = Clock::now();
  const std::uint64_t events = engine.Run();
  return Seconds(start, Clock::now()) * 1e9 / static_cast<double>(events);
}

}  // namespace

EngineMicro RunEngineMicro(std::uint64_t depth, std::uint64_t events, std::uint64_t seed) {
  if (depth == 0) {
    depth = 1;
  }
  const std::uint64_t iterations = events / depth > 0 ? events / depth : 1;
  EngineMicro result;
  {
    Engine engine(seed);
    for (std::uint64_t t = 0; t < depth; ++t) {
      engine.Spawn(Yielder(engine, iterations));
    }
    result.fifo_event_ns = TimeRun(engine);
  }
  {
    Engine engine(seed);
    for (std::uint64_t t = 0; t < depth; ++t) {
      engine.Spawn(Sleeper(engine, iterations, seed ^ (t * 0x9e3779b97f4a7c15ull)));
    }
    result.timed_event_ns = TimeRun(engine);
  }
  return result;
}

double RunHostReference(std::uint64_t seed) {
  constexpr std::uint64_t kTasks = 100000;
  constexpr std::uint64_t kWordsPerTask = 16;
  constexpr std::uint32_t kInFlight = 4096;
  constexpr std::uint64_t kEvents = 400000;
  constexpr std::size_t kBytes = kTasks * kWordsPerTask * sizeof(std::uint64_t);
  struct Event {
    std::uint64_t when;
    std::uint64_t task;
    bool operator>(const Event& other) const { return when > other.when; }
  };
  const Clock::time_point start = Clock::now();
  // Fresh zero pages straight from the kernel, unmapped again at the end.
  // Not malloc: freeing a 12.8 MB malloc block raises glibc's mmap
  // threshold, which would move where the simulator's later allocations
  // land, and with them peak_rss_mb.
  void* memory = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (memory == MAP_FAILED) {
    std::perror("perfbench: mmap");
    std::exit(2);
  }
  std::uint64_t* state = static_cast<std::uint64_t*>(memory);
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
  for (std::uint64_t task = 0; task < kInFlight; ++task) {
    queue.push({task, task});
  }
  std::uint64_t x = seed | 1;
  for (std::uint64_t e = 0; e < kEvents; ++e) {
    const Event event = queue.top();
    queue.pop();
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t other = x % kTasks;
    state[other * kWordsPerTask + (x >> 60)] +=
        state[event.task * kWordsPerTask + ((x >> 56) & 15)] + 1;
    queue.push({event.when + 1 + ((x >> 20) & 1023), (event.task + other) % kTasks});
  }
  // Keeps the loop's stores observable.
  const bool sentinel = state[(x % kTasks) * kWordsPerTask] == ~0ull;
  munmap(memory, kBytes);
  const double seconds = Seconds(start, Clock::now());
  return sentinel ? seconds + 1e-9 : seconds;
}

PatternWalk RunPatternWalk(const ddio::pattern::AccessPattern& pattern,
                           std::uint32_t block_bytes) {
  using ddio::pattern::AccessPattern;
  PatternWalk walk;
  const Clock::time_point start = Clock::now();
  for (std::uint32_t cp = 0; cp < pattern.num_cps(); ++cp) {
    pattern.ForEachChunk(cp, [&walk](const AccessPattern::Chunk& chunk) {
      ++walk.chunks;
      walk.chunk_bytes += chunk.length;
    });
  }
  for (std::uint64_t offset = 0; offset < pattern.file_bytes(); offset += block_bytes) {
    const std::uint64_t length =
        pattern.file_bytes() - offset < block_bytes ? pattern.file_bytes() - offset : block_bytes;
    pattern.ForEachPieceInRange(offset, length, [&walk](const AccessPattern::Piece& piece) {
      ++walk.pieces;
      walk.piece_bytes += piece.length;
    });
  }
  walk.walk_s = Seconds(start, Clock::now());
  return walk;
}

}  // namespace perfbench
