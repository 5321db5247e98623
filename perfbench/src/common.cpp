#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/flat_hash.hpp"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so a
  // process started from a larger parent (run.py's Python) would report
  // the parent's footprint.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, status) != nullptr)
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  std::fclose(status);
  return static_cast<double>(kib) / 1024.0;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose) {
  return debuglet::util::mix64(debuglet::util::mix64(seed) ^ purpose);
}

namespace {

/// Nearest-rank percentile of `values`, 0 when empty.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

}  // namespace

void report_operations(RunResult& out, const std::vector<OpTiming>& ops,
                       const std::string& units_name,
                       const std::string& op_name) {
  std::vector<double> seconds;
  std::vector<double> rates;
  double busy_s = 0.0;
  double units = 0.0;
  for (const OpTiming& op : ops) {
    seconds.push_back(op.seconds);
    rates.push_back(op.units / op.seconds);
    busy_s += op.seconds;
    units += op.units;
  }
  const double rate_p10 = percentile(rates, 0.1);
  out.end_to_end["ops_per_s"] = {rate_p10, "1/s"};
  char line[320];
  std::snprintf(line, sizeof line,
                "%s_per_s %.6g 1/s (p10; mean %.6g) | %s_p50_s %.6g s | "
                "%s_p90_s %.6g s | %zu operations",
                units_name.c_str(), rate_p10,
                busy_s > 0 ? units / busy_s : 0.0, op_name.c_str(),
                percentile(seconds, 0.5), op_name.c_str(),
                percentile(seconds, 0.9), ops.size());
  out.notes.push_back(line);
}

void RunResult::expect(const std::string& what, const std::string& reason) {
  if (reason.empty()) return;
  correct = false;
  // Keep the first few verbatim; a broken layer would otherwise flood the
  // log with one line per operation.
  if (errors.size() < 20) errors.push_back(what + ": " + reason);
}

std::size_t Tracer::begin(std::string_view name, std::uint64_t operation,
                          std::size_t parent) {
  if (!enabled_) return kNoSpan;
  SpanRecord span;
  span.name = std::string(name);
  span.operation = operation;
  span.parent = parent;
  span.start_us = seconds_since(epoch_) * 1e6;
  spans_.push_back(std::move(span));
  return spans_.size() - 1;
}

void Tracer::end(std::size_t span) {
  if (!enabled_ || span >= spans_.size()) return;
  spans_[span].end_us = seconds_since(epoch_) * 1e6;
}

std::vector<double> Tracer::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const SpanRecord& span : spans_) {
    if (span.name == name && span.end_us >= 0.0)
      out.push_back((span.end_us - span.start_us) / 1e3);
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const long long parent =
        s.parent == kNoSpan ? -1 : static_cast<long long>(s.parent);
    std::fprintf(f,
                 "{\"span\":%zu,\"parent\":%lld,\"operation\":%llu,"
                 "\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 i, parent, static_cast<unsigned long long>(s.operation),
                 s.name.c_str(), s.start_us, s.end_us);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
