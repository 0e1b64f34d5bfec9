#include "bench.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <unordered_map>

#include "serve/protocol.hpp"
#include "util/arena.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point g_origin = Clock::now();
std::atomic<bool> g_tracing{false};
std::atomic<std::uint64_t> g_next_id{1};
std::mutex g_spans_mutex;
std::vector<Span> g_spans;  // guarded by g_spans_mutex
thread_local std::uint64_t t_current = 0;

bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

void push_span(Span span) {
  std::scoped_lock lk(g_spans_mutex);
  g_spans.push_back(std::move(span));
}

}  // namespace

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
std::uint64_t current_span() { return t_current; }

double trace_clock() {
  return std::chrono::duration<double>(Clock::now() - g_origin).count();
}

SpanGuard::SpanGuard(std::string name, std::uint64_t parent) {
  if (!tracing()) return;
  span_.name = std::move(name);
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = parent;
  saved_current_ = t_current;
  t_current = span_.id;
  span_.start_s = trace_clock();
}

SpanGuard::~SpanGuard() {
  if (span_.id == 0) return;
  span_.end_s = trace_clock();
  t_current = saved_current_;
  push_span(std::move(span_));
}

void record_span(std::string name, std::uint64_t parent, std::uint64_t request,
                 double start_s, double end_s) {
  if (!tracing()) return;
  Span span;
  span.name = std::move(name);
  span.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span.parent = parent;
  span.request = request;
  span.start_s = start_s;
  span.end_s = end_s;
  push_span(std::move(span));
}

std::vector<Span> spans() {
  std::vector<Span> out;
  {
    std::scoped_lock lk(g_spans_mutex);
    out = g_spans;
  }
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return out;
}

std::vector<double> self_seconds(const std::vector<Span>& all) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < all.size(); ++i) index[all[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(all.size());
  for (const Span& s : all) {
    const auto it = index.find(s.parent);
    if (it != index.end()) children[it->second].emplace_back(s.start_s, s.end_s);
  }
  std::vector<double> self(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    const double lo = all[i].start_s;
    const double hi = all[i].end_s;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Children of a parallel region overlap; subtract their union once.
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = -1.0;
    for (const auto& [a0, b0] : kids) {
      const double a = std::max(a0, lo);
      const double b = std::min(b0, hi);
      if (b <= a) continue;
      if (a > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = a;
        run_hi = b;
      } else {
        run_hi = std::max(run_hi, b);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = std::max(0.0, (hi - lo) - covered);
  }
  return self;
}

bool write_spans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<Span> all = spans();
  const std::vector<double> self = self_seconds(all);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"start_s\":%.9f,\"end_s\":%.9f,\"self_s\":%.9f}\n",
                 graffix::serve::json_escape(s.name).c_str(),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.start_s, s.end_s,
                 self[i]);
  }
  return std::fclose(f) == 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  return static_cast<double>(graffix::peak_rss_bytes()) / (1024.0 * 1024.0);
}

std::uint64_t csr_digest(const graffix::Csr& graph) {
  using graffix::serve::fnv1a64_append;
  std::uint64_t h = graffix::serve::fnv1a64(nullptr, 0);
  const auto add = [&h](auto span) {
    h = fnv1a64_append(h, span.data(), span.size_bytes());
  };
  add(graph.offsets());
  add(graph.targets());
  add(graph.weights());
  add(graph.holes());
  return h;
}

std::uint64_t attr_digest(const std::vector<double>& attr) {
  return graffix::serve::fnv1a64(attr.data(), attr.size() * sizeof(double));
}

void log_inputs(const char* workload, const std::vector<const graffix::Csr*>& graphs) {
  std::uint64_t nodes = 0;
  std::uint64_t edges = 0;
  std::size_t bytes = 0;
  for (const graffix::Csr* g : graphs) {
    nodes += g->num_nodes();
    edges += g->num_edges();
    bytes += g->memory_bytes();
  }
  std::fprintf(stderr,
               "perfbench: %s inputs: %zu graph(s), %llu nodes, %llu edges, %.2f MiB CSR; "
               "peak RSS after set-up %.1f MiB\n",
               workload, graphs.size(), static_cast<unsigned long long>(nodes),
               static_cast<unsigned long long>(edges),
               static_cast<double>(bytes) / (1024.0 * 1024.0), peak_rss_mb());
}

}  // namespace perfbench
