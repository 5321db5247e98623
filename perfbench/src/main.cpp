// perfbench — the repository's benchmark program.
//
//   perfbench --workload measure_loop|purchase_batch|probe_ring --seed N
//             [--seconds S] [--trace 0|1] [--spans FILE]
//
// Runs one workload for S seconds and prints, as the last line of standard
// output, one JSON object {"correct", "attempted", "failed", "metrics"}.
// Untraced runs report the end-to-end metrics; traced runs (--trace 1)
// record spans around every call into a layer, write them to --spans and
// report the per-layer metrics instead. The command line is strict: an
// unknown workload or flag, a missing seed or a malformed value exits 2
// with the usage line, so a run can never quietly measure a different
// experiment.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <exception>
#include <set>
#include <string>

#include "common.hpp"

namespace {

using namespace perfbench;

const char* const kUsage =
    "usage: perfbench --workload measure_loop|purchase_batch|probe_ring "
    "--seed N [--seconds S] [--trace 0|1] [--spans FILE]";

// The metric names BENCHMARK.json declares; every run reports all of one
// list. Per-layer metrics of a layer the workload never calls read 0.
const char* const kEndToEnd[] = {"setup_s", "peak_rss_mb", "ops_per_s"};
struct LayerMetric {
  const char* name;
  const char* unit;
};
const LayerMetric kPerLayer[] = {
    {"core.purchase_ms", "ms"},
    {"core.window_run_ms", "ms"},
    {"core.collect_ms", "ms"},
    {"marketplace.quote_ms", "ms"},
    {"marketplace.calendar_bytes", "bytes"},
    {"marketplace.gas_per_purchase_mist", "MIST"},
    {"chain.submit_batch_ms", "ms"},
    {"chain.txs_per_measurement", "count"},
    {"crypto.keygen_us", "us"},
    {"crypto.sign_us", "us"},
    {"crypto.verify_us", "us"},
    {"crypto.block_verify_ms", "ms"},
    {"vm.translate_us", "us"},
    {"vm.instantiate_us", "us"},
    {"executor.verify_result_us", "us"},
    {"simnet.events_per_probe", "count"},
    {"simnet.events_per_s", "1/s"},
    {"simnet.run_ms", "ms"},
};

int usage_error(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n%s\n", message.c_str(), kUsage);
  return 2;
}

bool parse_uint(const std::string& text, std::uint64_t& out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return !text.empty() && ec == std::errc() && ptr == end;
}

/// Parses argv into `options`; returns an error message or "".
std::string parse(int argc, char** argv, Options& options) {
  bool have_seed = false;
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--spans")
      return "unknown argument '" + flag + "'";
    if (!seen.insert(flag).second) return "repeated flag " + flag;
    if (i + 1 >= argc) return "flag " + flag + " needs a value";
    const std::string value = argv[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      if (value != "measure_loop" && value != "purchase_batch" &&
          value != "probe_ring")
        return "unknown workload '" + value + "'";
      options.workload = value;
    } else if (flag == "--seed") {
      if (!parse_uint(value, number)) return "bad --seed '" + value + "'";
      options.seed = number;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_uint(value, number) || number < 1 || number > 3600)
        return "bad --seconds '" + value + "' (1..3600)";
      options.seconds = static_cast<int>(number);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return "bad --trace '" + value + "'";
      options.trace = value == "1";
    } else {
      options.spans_path = value;
    }
  }
  if (options.workload.empty()) return "--workload is required";
  if (!have_seed) return "--seed is required";
  return {};
}

void print_metrics(const std::map<std::string, Metric>& metrics) {
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  options.process_start = WallClock::now();
  if (std::string error = parse(argc, argv, options); !error.empty())
    return usage_error(error);

  Tracer tracer(options.trace);
  RunResult result;
  try {
    if (options.workload == "measure_loop")
      result = run_measure_loop(options, tracer);
    else if (options.workload == "purchase_batch")
      result = run_purchase_batch(options, tracer);
    else
      result = run_probe_ring(options, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s aborted: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }

  // Every declared metric, and nothing else.
  for (const char* name : kEndToEnd) {
    if (!result.end_to_end.contains(name)) {
      std::fprintf(stderr, "perfbench: no end-to-end metric %s\n", name);
      return 1;
    }
  }
  std::map<std::string, Metric> layers;
  for (const LayerMetric& m : kPerLayer) layers[m.name] = {0.0, m.unit};
  for (const auto& [name, metric] : result.per_layer) {
    if (!layers.contains(name)) {
      std::fprintf(stderr, "perfbench: undeclared metric %s\n", name.c_str());
      return 1;
    }
    layers[name] = metric;
  }

  if (options.trace && !options.spans_path.empty()) {
    if (!tracer.write(options.spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                   options.spans_path.c_str());
      return 1;
    }
    std::printf("spans %zu written to %s\n", tracer.size(),
                options.spans_path.c_str());
  }
  for (const std::string& note : result.notes)
    std::printf("%s\n", note.c_str());
  for (const auto& [name, metric] : result.end_to_end)
    std::printf("%s %s %.6g %s\n", options.trace ? "traced" : "untraced",
                name.c_str(), metric.value, metric.unit.c_str());
  for (const std::string& error : result.errors)
    std::fprintf(stderr, "perfbench: CHECK FAILED %s\n", error.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  print_metrics(options.trace ? layers : result.end_to_end);
  std::printf("}}\n");
  return result.correct ? 0 : 1;
}
