// Shared pieces of the benchmark program: the result every workload
// reports, the in-memory span tracer, and small statistics helpers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/csr.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // where the traced run writes its spans
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run prints as its last stdout line, as one JSON object.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Accumulates into a metric (per-layer totals over several passes).
  void add(const std::string& name, double value, const std::string& unit) {
    Metric& m = metrics[name];
    m.value += value;
    m.unit = unit;
  }
  void attempt(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// ---- Tracing ------------------------------------------------------------
//
// Spans are recorded only while tracing is enabled (the traced run); an
// untraced run pays one relaxed load per span site. Spans live in memory
// and are written out once, after the measured work.

struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // serve request id, 0 = none
  double start_s = 0.0;       // seconds since the tracer's origin
  double end_s = 0.0;
};

void set_tracing(bool on);

/// Span of the innermost live SpanGuard on this thread (0 = none). Work
/// handed to pool workers passes it on explicitly as the parent.
[[nodiscard]] std::uint64_t current_span();

/// Records one span from construction to destruction. A no-op while
/// tracing is off.
class SpanGuard {
 public:
  explicit SpanGuard(std::string name, std::uint64_t parent = current_span());
  ~SpanGuard();
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Span span_;
  std::uint64_t saved_current_ = 0;
};

/// Records a span whose start and end the caller measured itself (the
/// serve client times requests across poll iterations).
void record_span(std::string name, std::uint64_t parent, std::uint64_t request,
                 double start_s, double end_s);

/// Seconds since the tracer's origin, on the clock spans use.
[[nodiscard]] double trace_clock();

/// Every span recorded so far, ordered by id.
[[nodiscard]] std::vector<Span> spans();

/// Self time of each span: its duration minus the part of it covered by
/// the union of its children's intervals. Indexed like spans().
[[nodiscard]] std::vector<double> self_seconds(const std::vector<Span>& all);

/// Writes spans (one JSON object per line, with self time) to `path`.
bool write_spans(const std::string& path);

// ---- Helpers ------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile (p in [0, 100]); +inf entries sort last, so a
/// failed request counts as missing any latency limit.
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] double peak_rss_mb();
/// FNV-1a digest over the CSR arrays (offsets, targets, weights, holes).
[[nodiscard]] std::uint64_t csr_digest(const graffix::Csr& graph);
[[nodiscard]] std::uint64_t attr_digest(const std::vector<double>& attr);
/// Logs a workload's input size to stderr (stdout carries only the result).
void log_inputs(const char* workload, const std::vector<const graffix::Csr*>& graphs);

}  // namespace perfbench
