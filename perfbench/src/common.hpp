// Shared plumbing of the benchmark: options, the run result every workload
// returns, wall-clock helpers and the in-memory span tracer.
//
// The benchmark drives the program only through the public headers of its
// modules. Spans are recorded here, in the benchmark's own code, around
// each call into a layer; nothing inside src/ is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {

using WallClock = std::chrono::steady_clock;
using WallTime = WallClock::time_point;

inline double seconds_between(WallTime from, WallTime to) {
  return std::chrono::duration<double>(to - from).count();
}

inline double seconds_since(WallTime from) {
  return seconds_between(from, WallClock::now());
}

double median(std::vector<double> values);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Derives an independent sub-seed for one purpose from the run seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose);

/// Fisher-Yates shuffle driven by a seeded generator.
template <typename T>
void shuffle(std::vector<T>& items, debuglet::Rng& rng) {
  for (std::size_t k = items.size(); k > 1; --k)
    std::swap(items[k - 1], items[rng.index(k)]);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 30;
  bool trace = false;
  std::string spans_path;  // where the traced run writes its spans
  WallTime process_start;  // first statement of main()
};

/// One metric as printed: value plus unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back. `correct` turns false (and `errors` names
/// why) the moment an oracle rejects an output; the run then fails loudly.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Human-readable lines printed before the JSON result (the workload's
  /// metrics under their product names, the input make-up, ...).
  std::vector<std::string> notes;
  std::vector<std::string> errors;

  /// Records an oracle verdict; an empty reason means the check passed.
  void expect(const std::string& what, const std::string& reason);
};

/// Spans kept in memory during a traced run and written when it ends. A
/// span has a name, wall start/end, its parent span and the id of the
/// operation (one measurement, one block, one probe round) it belongs to.
/// A disabled tracer records nothing.
class Tracer {
 public:
  static constexpr std::size_t kNoSpan = ~std::size_t{0};

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(WallClock::now()) {}

  bool enabled() const { return enabled_; }

  std::size_t begin(std::string_view name, std::uint64_t operation,
                    std::size_t parent = kNoSpan);
  void end(std::size_t span);

  /// Durations in milliseconds of every finished span called `name`.
  std::vector<double> durations_ms(std::string_view name) const;

  /// Writes one JSON object per span, one per line. False on I/O error.
  bool write(const std::string& path) const;

  std::size_t size() const { return spans_.size(); }

 private:
  struct SpanRecord {
    std::string name;
    std::uint64_t operation = 0;
    std::size_t parent = kNoSpan;
    double start_us = 0.0;
    double end_us = -1.0;
  };
  bool enabled_;
  WallTime epoch_;
  std::vector<SpanRecord> spans_;
};

/// Scoped span: begins on construction, ends on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name, std::uint64_t operation,
             std::size_t parent = Tracer::kNoSpan)
      : tracer_(tracer), id_(tracer.begin(name, operation, parent)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::size_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::size_t id_;
};

/// Runs `fn` once under a span and returns its duration in microseconds
/// (the per-layer calibration timings of a traced run).
template <typename Fn>
double time_us(Tracer& tracer, std::string_view name, std::uint64_t operation,
               std::size_t parent, Fn&& fn) {
  ScopedSpan span(tracer, name, operation, parent);
  const WallTime t0 = WallClock::now();
  fn();
  return seconds_since(t0) * 1e6;
}

/// The first operation of a run is checked but not timed: it fills caches
/// and starts the chain's worker threads (a once-per-process cost).
inline constexpr std::uint64_t kWarmupOps = 1;

/// Set-up timing: the set-up a run uses is timed from process start, and
/// throwaway set-ups are timed again at even intervals through the timed
/// phase, so the median spans the machine's speed phases across the whole
/// run instead of its first seconds.
class SetupTimer {
 public:
  SetupTimer(int extra_setups, int run_seconds)
      : left_(extra_setups),
        interval_s_(static_cast<double>(run_seconds) / (extra_setups + 1)) {}

  void record(double seconds) { times_.push_back(seconds); }

  /// Builds, times and drops a throwaway world with `build` when the next
  /// one is due (once per interval); true when it did.
  template <typename Build>
  bool spare(Tracer& tracer, std::uint64_t operation, WallTime phase_start,
             Build&& build) {
    if (left_ == 0 || seconds_since(phase_start) < next_s_ + interval_s_)
      return false;
    --left_;
    next_s_ += interval_s_;
    ScopedSpan span(tracer, "setup", operation);
    const WallTime t0 = WallClock::now();
    const auto world = build();
    record(seconds_since(t0));  // before the world is torn down
    return true;
  }

  double median_s() const { return median(times_); }

 private:
  int left_;
  double interval_s_;
  double next_s_ = 0.0;
  std::vector<double> times_;
};

/// One timed operation (a measurement, a block or a probe round): its wall
/// time and the work units (measurements, committed purchases, probe round
/// trips) it completed.
struct OpTiming {
  double seconds = 0.0;
  double units = 0.0;
};

/// Fills ops_per_s, the 10th percentile of the per-operation rates (units
/// per second): the throughput nine operations in ten meet or beat. Notes
/// add the mean rate and the median and 90th-percentile operation times
/// under the product's names (`<units>_per_s`, `<op>_p50_s`, `<op>_p90_s`).
void report_operations(RunResult& out, const std::vector<OpTiming>& ops,
                       const std::string& units_name,
                       const std::string& op_name);

RunResult run_measure_loop(const Options& options, Tracer& tracer);
RunResult run_purchase_batch(const Options& options, Tracer& tracer);
RunResult run_probe_ring(const Options& options, Tracer& tracer);

}  // namespace perfbench
