// ddio_perfbench: measures one benchmark workload against the simulator
// library, driven from outside through its public API, and prints one JSON
// line of results. perfbench/run.py builds and invokes it; perfbench/README.md
// describes a run and perfbench/metrics.json defines every metric.
//
//   ddio_perfbench --name NAME --method KEY --pattern NAME --record-bytes N
//                    --file-bytes N --layout contiguous|random --cps N --iops N
//                    --disks N --link-contention 0|1 [--seed N] [--seconds S]
//                    [--trace 0|1] [--spans PATH]
//
// One run, in order:
//   1. Setup loop: build a WorkloadSession, lay out the file and start the
//      file system, then destroy the session; for kSetupSeconds, with no
//      simulation in between. The host's speed changes within a second, and
//      a hundred setups of the paper's machine take 10 ms, so the loop is
//      timed rather than counted.
//   2. Timed repetitions for --seconds: build the session, run the phase,
//      destroy the session.
//   3. Peak resident memory, read after the first timed repetition.
//   4. One untimed verification repetition with a ValidationSink installed,
//      whose data image is verified against the pattern. Every timed
//      repetition must succeed and match it on every exact count.
//   5. --trace 1 only: the timed repetitions alternate with repetitions under
//      the simulator's attrib plane; then the event-core and pattern-walk
//      microbenchmarks run, and the span file is written. Spans are recorded
//      in memory for every repetition of a traced run and written at exit.
// Every setup block and every timed repetition follows a host-reference run
// (RunHostReference); setup_s and wall_s are medians of times scaled to
// nominal host speed by their own reference run.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "micro.h"
#include "spans.h"
#include "src/core/machine.h"
#include "src/core/op_stats.h"
#include "src/core/runner.h"
#include "src/core/validation.h"
#include "src/core/workload.h"
#include "src/fs/layout.h"
#include "src/pattern/pattern.h"
#include "src/sim/frame_pool.h"
#include "src/tc/tc_fs.h"

namespace perfbench {
namespace {

namespace core = ddio::core;
using ddio::sim::internal::FramePool;

constexpr int kSetupWarmup = 5;
// The setup loop runs for kSetupSeconds and at least kSetupIterations
// iterations; traced runs record spans for the first kSetupIterations.
constexpr double kSetupSeconds = 2.0;
constexpr int kSetupIterations = 101;
// Dispatches per event-core microbenchmark tier.
constexpr std::uint64_t kMicroEvents = 1ull << 22;
// RunHostReference's time on the host in its fast state (4-vCPU KVM guest on
// a Xeon with a 300 MB L3). It only sets the scale of normalized times.
constexpr double kReferenceNominalS = 0.05;
// The setup loop runs the host reference once per block of this length.
constexpr double kSetupBlockSeconds = 0.2;

// A host time measured right after a host-reference run of `reference_s`,
// expressed at nominal host speed. The host's speed drifts by up to 1.8x over
// minutes and the reference slows with it, so the ratio drifts far less than
// either time.
double AtNominalSpeed(double seconds, double reference_s) {
  return seconds * kReferenceNominalS / reference_s;
}

// Exact per-repetition counts: deterministic for a seed, so every
// repetition of a run (and every run at one seed) must reproduce them.
using Counts = std::map<std::string, std::uint64_t>;

Counts CollectCounts(core::WorkloadSession& session, core::FileSystem& fs,
                     const core::OpStats& stats, std::uint64_t frames) {
  Counts counts;
  const ddio::sim::EngineStats engine = session.engine().stats();
  counts["sim.elapsed_ns"] = stats.elapsed_ns();
  counts["sim.events"] = session.engine().events_processed();
  counts["sim.fifo_events"] = engine.fifo_events;
  counts["sim.timed_events"] = engine.timed_events;
  counts["sim.max_queue_depth"] = engine.max_queue_depth;
  counts["sim.frames"] = frames;

  core::Machine& machine = session.machine();
  const ddio::net::Network& network = machine.network();
  std::uint64_t nic_busy_ns = 0;
  for (std::uint32_t node = 0; node < network.node_count(); ++node) {
    nic_busy_ns += network.SendNicBusyTime(node) + network.ReceiveNicBusyTime(node);
  }
  counts["net.messages"] = network.stats().messages;
  counts["net.wire_bytes"] = network.stats().wire_bytes;
  counts["net.nic_busy_ns"] = nic_busy_ns;
  counts["net.link_busy_ns"] = network.TotalLinkBusyTime();

  const ddio::disk::DiskMechanismStats disk = machine.AggregateDiskStats();
  counts["disk.requests"] = disk.requests;
  counts["disk.seeks"] = disk.seeks;
  counts["disk.seek_cylinders"] = disk.seek_cylinders;
  counts["disk.position_ns"] = disk.seek_ns + disk.rotation_ns + disk.overhead_ns;
  counts["disk.media_ns"] = disk.media_ns;

  ddio::tc::CacheStats cache;
  const auto* tc = dynamic_cast<const ddio::tc::TcFileSystem*>(&fs);
  for (std::uint32_t iop = 0; tc != nullptr && iop < machine.num_iops(); ++iop) {
    const ddio::tc::CacheStats& one = tc->cache(iop).stats();
    cache.hits += one.hits;
    cache.misses += one.misses;
    cache.prefetch_issued += one.prefetch_issued;
    cache.prefetch_wasted += one.prefetch_wasted;
    cache.evictions += one.evictions;
    cache.flushes += one.flushes;
    cache.rmw_flushes += one.rmw_flushes;
  }
  counts["tc.requests"] = tc != nullptr ? stats.requests : 0;
  counts["tc.hits"] = cache.hits;
  counts["tc.misses"] = cache.misses;
  counts["tc.prefetch_issued"] = cache.prefetch_issued;
  counts["tc.prefetch_wasted"] = cache.prefetch_wasted;
  counts["tc.evictions"] = cache.evictions;
  counts["tc.flushes"] = cache.flushes;
  counts["tc.rmw_flushes"] = cache.rmw_flushes;
  counts["ddio.pieces"] = stats.pieces;
  return counts;
}

struct Rep {
  core::OpStats stats;
  Counts counts;
  double wall_s = 0;
  double reference_s = 0;  // The host-reference run just before; 0 if none.
  std::uint64_t frames_fresh = 0;  // Frames the global allocator served, whole repetition.
  int span = SpanRecorder::kNoParent;
  std::vector<std::string> image_errors;  // Verification repetition only.
};

// A session built, laid out and started, with the host time of each step.
struct Built {
  std::unique_ptr<core::WorkloadSession> session;
  core::FileSystem* fs = nullptr;
  Clock::time_point start;
  Clock::time_point built;
  Clock::time_point laid_out;
  Clock::time_point started;

  // Records the three steps as children of span `root`.
  void AddSpans(SpanRecorder& spans, int root, int rep_id) const {
    spans.Add("core.session_build", root, rep_id, start, built);
    spans.Add("fs.layout", root, rep_id, built, laid_out);
    spans.Add("core.fs_start", root, rep_id, laid_out, started);
  }
};

Built Build(const core::ExperimentConfig& config, std::uint64_t seed,
            const core::WorkloadPhase& phase) {
  Built b;
  b.start = Clock::now();
  b.session = std::make_unique<core::WorkloadSession>(config, seed);
  b.built = Clock::now();
  b.session->FileFor(phase);
  b.laid_out = Clock::now();
  b.fs = &b.session->ActivateFileSystem(phase.method);
  b.started = Clock::now();
  return b;
}

// One repetition: build the session, run the workload's single phase,
// destroy the session. With `sink`, also verifies the data image (outside
// the timed window). With `spans`, records the calls as spans of repetition
// `rep_id`.
Rep RunRep(const core::ExperimentConfig& config, std::uint64_t seed, int rep_id,
           SpanRecorder* spans, core::ValidationSink* sink) {
  const core::WorkloadPhase phase = core::Workload::SinglePhase(config).phases.front();
  Rep rep;
  const std::uint64_t fresh_before = FramePool::stats().fresh_blocks;
  Built b = Build(config, seed, phase);
  b.session->machine().set_validation(sink);
  const std::uint64_t frames_before = FramePool::stats().allocations;
  const Clock::time_point t_run = Clock::now();
  rep.stats = b.session->RunPhase(phase);
  const Clock::time_point t_ran = Clock::now();
  rep.counts = CollectCounts(*b.session, *b.fs, rep.stats,
                             FramePool::stats().allocations - frames_before);

  Clock::time_point t_verify = t_ran;
  Clock::time_point t_verified = t_ran;
  if (sink != nullptr) {
    const ddio::pattern::AccessPattern pattern(ddio::pattern::PatternSpec::Parse(config.pattern),
                                               config.file_bytes, config.record_bytes,
                                               config.machine.num_cps);
    t_verify = Clock::now();
    if (!sink->Verify(pattern, &rep.image_errors) && rep.image_errors.empty()) {
      rep.image_errors.push_back("data image failed verification");
    }
    t_verified = Clock::now();
  }

  const Clock::time_point t_teardown = Clock::now();
  b.session.reset();
  const Clock::time_point t_end = Clock::now();
  rep.frames_fresh = FramePool::stats().fresh_blocks - fresh_before;
  rep.wall_s = Seconds(b.start, t_ran) + Seconds(t_teardown, t_end);

  if (spans != nullptr) {
    rep.span = spans->Add("rep", SpanRecorder::kNoParent, rep_id, b.start, t_end);
    b.AddSpans(*spans, rep.span, rep_id);
    spans->Add("core.run_phase", rep.span, rep_id, t_run, t_ran);
    if (sink != nullptr) {
      spans->Add("core.verify", rep.span, rep_id, t_verify, t_verified);
    }
    spans->Add("core.teardown", rep.span, rep_id, t_teardown, t_end);
  }
  return rep;
}

struct Setup {
  double seconds = 0;  // Build through file-system start.
  int span = SpanRecorder::kNoParent;
};

// One setup iteration: build the session, lay out the file, start the file
// system; then destroy it.
Setup SetupOnce(const core::ExperimentConfig& config, std::uint64_t seed, int iteration,
                SpanRecorder* spans) {
  Built b = Build(config, seed, core::Workload::SinglePhase(config).phases.front());
  b.session.reset();
  const Clock::time_point t_end = Clock::now();
  Setup setup;
  setup.seconds = Seconds(b.start, b.started);
  if (spans != nullptr) {
    setup.span = spans->Add("setup", SpanRecorder::kNoParent, iteration, b.start, t_end);
    b.AddSpans(*spans, setup.span, iteration);
    spans->Add("core.teardown", setup.span, iteration, b.started, t_end);
  }
  return setup;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double Ratio(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

// Peak resident set size of this process, in MB (10^6 bytes).
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is in KiB.
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// Ordered (name, value) list rendered as a JSON object with full precision.
using Metrics = std::vector<std::pair<std::string, double>>;

std::string JsonObject(const Metrics& metrics) {
  std::string out = "{";
  char buffer[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buffer, sizeof(buffer), "%.17g", metrics[i].second);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].first + "\": " + buffer;
  }
  return out + "}";
}

std::string JsonCounts(const Counts& counts) {
  std::string out = "{";
  for (const auto& [name, value] : counts) {
    out += (out.size() == 1 ? "\"" : ", \"") + name + "\": " + std::to_string(value);
  }
  return out + "}";
}

// Records a failure of repetition `label` unless `ok`.
struct Gate {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  // Counts one repetition; `problems` empty means it passed.
  void Check(const std::string& label, const std::vector<std::string>& problems) {
    ++attempted;
    if (!problems.empty()) {
      ++failed;
      for (const std::string& problem : problems) {
        errors.push_back(label + ": " + problem);
      }
    }
  }
};

// Problems with `rep`: a non-success outcome, and every count of
// `reference` not named in `skip` that differs.
std::vector<std::string> Compare(const Rep& rep, const Counts& reference,
                                 const std::vector<std::string>& skip) {
  std::vector<std::string> problems;
  if (rep.stats.status.outcome != core::Outcome::kSuccess) {
    problems.push_back(std::string("outcome ") + core::OutcomeName(rep.stats.status.outcome) +
                       " (" + rep.stats.status.detail + ")");
  }
  for (const auto& [name, value] : reference) {
    if (std::find(skip.begin(), skip.end(), name) != skip.end()) {
      continue;
    }
    const auto it = rep.counts.find(name);
    if (it == rep.counts.end() || it->second != value) {
      problems.push_back(name + " = " +
                         (it == rep.counts.end() ? std::string("missing")
                                                 : std::to_string(it->second)) +
                         ", expected " + std::to_string(value));
    }
  }
  return problems;
}

struct Args {
  std::string name;  // Workload name, for the report.
  core::ExperimentConfig config;  // The workload's generated configuration.
  std::uint64_t seed = 1000;  // core::ExperimentConfig::base_seed.
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "ddio_perfbench: %s\nusage: ddio_perfbench --name NAME --method KEY "
               "--pattern NAME --record-bytes N --file-bytes N --layout contiguous|random "
               "--cps N --iops N --disks N --link-contention 0|1 [--seed N] [--seconds S] "
               "[--trace 0|1] [--spans PATH]\n",
               why.c_str());
  std::exit(2);
}

// Strict decimal parse of a flag value in [min, max].
std::uint64_t ParseCount(const std::string& flag, const std::string& value, std::uint64_t min,
                         std::uint64_t max) {
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (value.empty() || value[0] < '0' || value[0] > '9' || *end != '\0' || parsed < min ||
      parsed > max) {
    Usage(flag + " wants an integer in [" + std::to_string(min) + ", " + std::to_string(max) +
          "], got \"" + value + "\"");
  }
  return parsed;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  core::ExperimentConfig& config = args.config;
  config.trials = 1;
  std::string layout;
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    seen.insert(flag);
    if (flag == "--name") {
      args.name = value;
    } else if (flag == "--method") {
      config.method_key = value;
    } else if (flag == "--pattern") {
      config.pattern = value;
    } else if (flag == "--record-bytes") {
      config.record_bytes = static_cast<std::uint32_t>(ParseCount(flag, value, 1, 1u << 20));
    } else if (flag == "--file-bytes") {
      config.file_bytes = ParseCount(flag, value, 1, 1ull << 34);
    } else if (flag == "--layout") {
      layout = value;
    } else if (flag == "--cps") {
      config.machine.num_cps = static_cast<std::uint32_t>(ParseCount(flag, value, 1, 4096));
    } else if (flag == "--iops") {
      config.machine.num_iops = static_cast<std::uint32_t>(ParseCount(flag, value, 1, 4096));
    } else if (flag == "--disks") {
      config.machine.num_disks = static_cast<std::uint32_t>(ParseCount(flag, value, 1, 4096));
    } else if (flag == "--link-contention") {
      config.machine.net.model_link_contention = ParseCount(flag, value, 0, 1) == 1;
    } else if (flag == "--seed") {
      args.seed = ParseCount(flag, value, 0, ~0ull);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(ParseCount(flag, value, 1, 3600));
    } else if (flag == "--trace") {
      args.trace = ParseCount(flag, value, 0, 1) == 1;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  // The configuration comes whole from the command line; no field falls
  // back to an ExperimentConfig default.
  for (const char* flag : {"--name", "--method", "--pattern", "--record-bytes", "--file-bytes",
                           "--layout", "--cps", "--iops", "--disks", "--link-contention"}) {
    if (seen.count(flag) == 0) {
      Usage(std::string("missing ") + flag);
    }
  }
  ddio::pattern::PatternSpec spec;
  if (!ddio::pattern::PatternSpec::TryParse(config.pattern, &spec)) {
    Usage("bad --pattern \"" + config.pattern + "\"");
  }
  std::string error;
  if (!ddio::fs::ParseLayout(layout, &config.layout, &config.replicas, &error) ||
      config.replicas != 1) {
    Usage("bad --layout \"" + layout + "\" " + error);
  }
  if (config.file_bytes % config.record_bytes != 0) {
    Usage("--file-bytes must hold whole records");
  }
  return args;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const core::ExperimentConfig& config = args.config;
  SpanRecorder recorder;
  SpanRecorder* spans = args.trace ? &recorder : nullptr;
  Gate gate;

  // 1. Setup loop.
  for (int i = 0; i < kSetupWarmup; ++i) {
    SetupOnce(config, args.seed, i, nullptr);
  }
  // Blocks of kSetupBlockSeconds, each after a host-reference run.
  std::vector<Setup> setups;
  std::vector<double> setup_seconds;       // As measured.
  std::vector<double> setup_normalized;    // At nominal host speed.
  std::vector<double> setup_references;
  const Clock::time_point setup_start = Clock::now();
  while (setups.size() < kSetupIterations ||
         Seconds(setup_start, Clock::now()) < kSetupSeconds) {
    const double reference_s = RunHostReference(args.seed + setup_references.size());
    setup_references.push_back(reference_s);
    const Clock::time_point block_start = Clock::now();
    do {
      const int i = static_cast<int>(setups.size());
      setups.push_back(SetupOnce(config, args.seed, i, i < kSetupIterations ? spans : nullptr));
      setup_seconds.push_back(setups.back().seconds);
      setup_normalized.push_back(AtNominalSpeed(setups.back().seconds, reference_s));
    } while (Seconds(block_start, Clock::now()) < kSetupBlockSeconds);
  }

  // 2. Timed repetitions. On a traced run they alternate with repetitions
  // under the attrib plane, so both kinds sample the same stretch of host
  // speed. 3. Peak memory, once the first has run: later repetitions reuse
  // freed memory, and how much of it stays resident depends on how many
  // repetitions fit into --seconds.
  core::ExperimentConfig traced_config = config;
  traced_config.trace.attrib = true;
  std::vector<Rep> reps;
  std::vector<Rep> traced_reps;
  double peak_rss_mb = 0;
  int rep_id = 0;
  const Clock::time_point timed_start = Clock::now();
  while (reps.empty() || (args.trace && traced_reps.empty()) ||
         Seconds(timed_start, Clock::now()) < args.seconds) {
    const double reference_s = RunHostReference(args.seed + static_cast<std::uint64_t>(rep_id));
    const bool traced = args.trace && traced_reps.size() < reps.size();
    std::vector<Rep>& kind = traced ? traced_reps : reps;
    kind.push_back(RunRep(traced ? traced_config : config, args.seed, rep_id++, spans, nullptr));
    kind.back().reference_s = reference_s;
    if (reps.size() == 1 && !traced) {
      peak_rss_mb = PeakRssMb();
    }
  }
  auto faster = [](const Rep& a, const Rep& b) { return a.wall_s < b.wall_s; };
  const Rep& fastest = *std::min_element(reps.begin(), reps.end(), faster);
  // Median over repetitions of each one's time at nominal host speed.
  auto median_normalized = [](const std::vector<Rep>& kind) {
    std::vector<double> values;
    for (const Rep& rep : kind) {
      values.push_back(AtNominalSpeed(rep.wall_s, rep.reference_s));
    }
    return Median(std::move(values));
  };
  std::vector<double> timed_references;
  for (const Rep& rep : reps) {
    timed_references.push_back(rep.reference_s);
  }

  // 4. Verification repetition: its counts are the ones every repetition
  // must match.
  // It starts from a cold frame pool, so its fresh-frame count is the
  // repetition's frame high-water mark.
  FramePool::TrimFreeLists();
  core::ValidationSink sink;
  const Rep verified = RunRep(config, args.seed, rep_id++, spans, &sink);
  std::vector<std::string> verify_problems = Compare(verified, {}, {});
  verify_problems.insert(verify_problems.end(), verified.image_errors.begin(),
                         verified.image_errors.end());
  gate.Check("verification repetition", verify_problems);
  for (std::size_t i = 0; i < reps.size(); ++i) {
    gate.Check("timed repetition " + std::to_string(i), Compare(reps[i], verified.counts, {}));
  }
  // The attrib plane leaves every simulated count unchanged, but its traced
  // link occupancy (under link contention) runs in coroutine frames of its own.
  for (std::size_t i = 0; i < traced_reps.size(); ++i) {
    gate.Check("traced repetition " + std::to_string(i),
               Compare(traced_reps[i], verified.counts, {"sim.frames"}));
  }

  Metrics end_to_end = {
      {"wall_s", median_normalized(reps)},
      {"setup_s", Median(setup_normalized)},
      {"peak_rss_mb", peak_rss_mb},
      {"sim_mbps", verified.stats.ThroughputMBps()},
  };

  Metrics per_layer;
  if (args.trace) {
    // 5. Microbenchmarks and the per-layer report.
    const Counts& c = verified.counts;
    const EngineMicro engine = RunEngineMicro(c.at("sim.max_queue_depth"), kMicroEvents,
                                              args.seed);
    const ddio::pattern::AccessPattern pattern(ddio::pattern::PatternSpec::Parse(config.pattern),
                                               config.file_bytes, config.record_bytes,
                                               config.machine.num_cps);
    const PatternWalk walk = RunPatternWalk(pattern, config.machine.block_bytes);
    std::vector<std::string> walk_problems;
    if (walk.chunk_bytes != config.file_bytes || walk.piece_bytes != config.file_bytes) {
      walk_problems.push_back("pattern walk covered " + std::to_string(walk.chunk_bytes) +
                              " chunk bytes and " + std::to_string(walk.piece_bytes) +
                              " piece bytes of a " + std::to_string(config.file_bytes) +
                              "-byte file");
    }
    gate.Check("pattern walk", walk_problems);

    auto setup_span_median = [&](const char* name) {
      std::vector<double> values;
      for (int i = 0; i < kSetupIterations; ++i) {
        values.push_back(recorder.ChildSelfSeconds(setups[i].span, name));
      }
      return Median(std::move(values));
    };
    const double run_phase_s = recorder.ChildSelfSeconds(fastest.span, "core.run_phase");
    const core::OpStats& s = verified.stats;
    const core::PhaseAttribution& a = traced_reps.front().stats.attrib;
    per_layer = {
        {"sim.events", static_cast<double>(c.at("sim.events"))},
        {"sim.fifo_events", static_cast<double>(c.at("sim.fifo_events"))},
        {"sim.timed_events", static_cast<double>(c.at("sim.timed_events"))},
        {"sim.max_queue_depth", static_cast<double>(c.at("sim.max_queue_depth"))},
        {"sim.frames", static_cast<double>(c.at("sim.frames"))},
        {"sim.frames_fresh", static_cast<double>(verified.frames_fresh)},
        {"sim.ns_per_event", run_phase_s * 1e9 / static_cast<double>(c.at("sim.events"))},
        {"sim.fifo_event_ns", engine.fifo_event_ns},
        {"sim.timed_event_ns", engine.timed_event_ns},
        {"core.session_build_s", setup_span_median("core.session_build")},
        {"core.fs_start_s", setup_span_median("core.fs_start")},
        {"core.run_phase_s", run_phase_s},
        {"core.teardown_s", recorder.ChildSelfSeconds(fastest.span, "core.teardown")},
        {"core.util_iop", s.max_iop_cpu_util},
        {"core.util_disk", s.avg_disk_util},
        {"core.util_cp", s.max_cp_cpu_util},
        {"core.util_bus", s.max_bus_util},
        {"fs.layout_s", setup_span_median("fs.layout")},
        {"pattern.chunks", static_cast<double>(walk.chunks)},
        {"pattern.pieces", static_cast<double>(walk.pieces)},
        {"pattern.walk_s", walk.walk_s},
        {"net.messages", static_cast<double>(c.at("net.messages"))},
        {"net.wire_bytes", static_cast<double>(c.at("net.wire_bytes"))},
        {"net.nic_busy_s", static_cast<double>(c.at("net.nic_busy_ns")) / 1e9},
        {"net.link_busy_s", static_cast<double>(c.at("net.link_busy_ns")) / 1e9},
        {"disk.requests", static_cast<double>(c.at("disk.requests"))},
        {"disk.seeks", static_cast<double>(c.at("disk.seeks"))},
        {"disk.seek_cylinders", static_cast<double>(c.at("disk.seek_cylinders"))},
        {"disk.position_s", static_cast<double>(c.at("disk.position_ns")) / 1e9},
        {"disk.media_s", static_cast<double>(c.at("disk.media_ns")) / 1e9},
        {"tc.requests", static_cast<double>(c.at("tc.requests"))},
        {"tc.evictions", static_cast<double>(c.at("tc.evictions"))},
        {"tc.hit_ratio", Ratio(c.at("tc.hits"), c.at("tc.hits") + c.at("tc.misses"))},
        {"tc.prefetch_useful_ratio",
         Ratio(c.at("tc.prefetch_issued") - c.at("tc.prefetch_wasted"),
               c.at("tc.prefetch_issued"))},
        {"tc.flushes", static_cast<double>(c.at("tc.flushes"))},
        {"tc.rmw_flushes", static_cast<double>(c.at("tc.rmw_flushes"))},
        {"ddio.pieces", static_cast<double>(c.at("ddio.pieces"))},
        {"obs.disk_position_s", static_cast<double>(a.disk_position_ns) / 1e9},
        {"obs.disk_transfer_s", static_cast<double>(a.disk_transfer_ns) / 1e9},
        {"obs.nic_s", static_cast<double>(a.nic_ns) / 1e9},
        {"obs.network_s", static_cast<double>(a.network_ns) / 1e9},
        {"obs.cache_stall_s", static_cast<double>(a.cache_stall_ns) / 1e9},
        {"obs.compute_s", static_cast<double>(a.compute_ns) / 1e9},
        {"obs.overhead", median_normalized(traced_reps) / median_normalized(reps)},
    };
    if (!args.spans_path.empty()) {
      char header[256];
      std::snprintf(header, sizeof(header),
                    "\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"fastest_rep_span\": %d",
                    args.name.c_str(), args.seed, fastest.span);
      if (!recorder.WriteJson(args.spans_path, header)) {
        gate.errors.push_back("cannot write span file " + args.spans_path);
        ++gate.failed;
      }
    }
  }

  std::vector<double> walls;
  for (const Rep& rep : reps) {
    walls.push_back(rep.wall_s);
  }
  const double median_wall_s = Median(walls);
  std::string rep_walls = "[";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%s%.9f", i == 0 ? "" : ", ", reps[i].wall_s);
    rep_walls += buffer;
  }
  rep_walls += "]";
  std::string errors = "[";
  for (std::size_t i = 0; i < gate.errors.size(); ++i) {
    errors += (i == 0 ? "\"" : ", \"") + JsonEscape(gate.errors[i]) + "\"";
  }
  errors += "]";
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"rep_wall_s\": %s, \"attempted\": %" PRIu64
      ", \"failed\": %" PRIu64 ", \"errors\": %s, \"end_to_end\": %s, \"per_layer\": %s, "
      "\"raw\": {\"fastest_wall_s\": %.9f, \"median_wall_s\": %.9f, \"setup_s\": %.9f, "
      "\"setup_reference_s\": %.6f, \"timed_reference_s\": %.6f}, \"counts\": %s}\n",
      args.name.c_str(), args.seed, rep_walls.c_str(), gate.attempted, gate.failed, errors.c_str(),
      JsonObject(end_to_end).c_str(), JsonObject(per_layer).c_str(),
      fastest.wall_s, median_wall_s, Median(setup_seconds), Median(setup_references),
      Median(timed_references),
      JsonCounts(verified.counts).c_str());
  return gate.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
