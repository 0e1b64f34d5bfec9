// perfbench: the repository benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// --trace 0 runs the named workload untraced and reports its end-to-end
// metrics. --trace 1 runs one traced pass of every workload and of the
// Table 5 preprocess pass (plus an untraced and a pool-width-1 round of
// each batch pass) and reports the per-layer metrics, so every traced run
// reports the same set. The last stdout line is one JSON object: correct,
// attempted, failed, metrics. See WORKLOADS.md for what each workload and
// metric means.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>

#include "util/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{paper-table|single-graph|serve-mixed} --seed N "
               "--seconds S --trace {0|1} [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed must be a whole number");
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(a.seconds > 0.0)) usage("--seconds must be positive");
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace must be 0 or 1");
      }
      a.trace = value[0] == '1';
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (a.workload != "paper-table" && a.workload != "single-graph" &&
      a.workload != "serve-mixed") {
    usage(("unknown workload " + a.workload).c_str());
  }
  return a;
}

/// Name of the root span above span `i`.
std::string root_of(const std::vector<Span>& all,
                    const std::unordered_map<std::uint64_t, std::size_t>& index,
                    std::size_t i) {
  while (true) {
    const auto it = index.find(all[i].parent);
    if (it == index.end()) return all[i].name;
    i = it->second;
  }
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

/// Turns the traced run's spans and counters into the per-layer metrics.
void derive_layer_metrics(Result& r) {
  const std::vector<Span> all = spans();
  const std::vector<double> self = self_seconds(all);
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < all.size(); ++i) index[all[i].id] = i;

  double gen = 0.0, metrics = 0.0, exact = 0.0, approx = 0.0;
  std::unordered_map<std::string, double> per_alg, per_transform;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const std::string& name = all[i].name;
    if (name == "gen") gen += self[i];
    if (name == "metrics") metrics += self[i];
    const bool is_exact = starts_with(name, "core.run_exact.");
    if (is_exact || starts_with(name, "core.run_approx.")) {
      (is_exact ? exact : approx) += self[i];
      per_alg[name.substr(name.rfind('.') + 1)] += self[i];
    }
    // Table 5 transform costs come from the preprocess pass alone.
    if (starts_with(name, "transform.") && root_of(all, index, i) == "preprocess") {
      per_transform[name.substr(std::strlen("transform."))] += self[i];
    }
  }
  r.set("gen.s", gen, "s");
  r.set("metrics.s", metrics, "s");
  r.set("core.run_exact_s", exact, "s");
  r.set("core.run_approx_s", approx, "s");
  for (const char* alg : {"sssp", "mst", "scc", "pr", "bc"}) {
    r.set(std::string("core.run_") + alg + "_s", per_alg[alg], "s");
  }
  for (const char* t : {"coalescing", "latency", "divergence"}) {
    r.set(std::string("transform.") + t + "_s", per_transform[t], "s");
  }
  const double warp_steps = r.metrics["sim.warp_steps"].value;
  r.set("sim.ns_per_warp_step", warp_steps > 0 ? (exact + approx) * 1e9 / warp_steps : 0.0,
        "ns");

  auto take = [&r](const std::string& name) {
    const double v = r.metrics[name].value;
    r.metrics.erase(name);
    return v;
  };
  const std::pair<std::string, const char*> speedups[] = {
      {"paper-table", "parallel.paper_table_speedup"},
      {"single-graph", "parallel.speedup"},
      {"preprocess", "parallel.preprocess_speedup"}};
  double overhead = 0.0;
  for (const auto& [workload, metric] : speedups) {
    const double untraced = take(workload + ".untraced_s");
    const double traced = take(workload + ".traced_s");
    const double w1 = take(workload + ".w1_s");
    overhead += traced - untraced;
    r.set(metric, untraced > 0 ? w1 / untraced : 0.0, "x");
    if (workload == "single-graph") r.set("parallel.w1_run_s", w1, "s");
  }
  r.set("trace.overhead_s", overhead, "s");
}

void print_number(double v) {
  if (std::isnan(v)) v = 0.0;
  if (std::isinf(v)) v = v > 0 ? 1e308 : -1e308;
  std::printf("%.17g", v);
}

void print_result(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.failed == 0 && r.attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", name.c_str());
    print_number(m.value);
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  std::fprintf(stderr, "perfbench: workload=%s seed=%llu seconds=%g trace=%d threads=%d\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               args.seconds, args.trace ? 1 : 0, graffix::num_threads());
  Result result;
  if (!args.trace) {
    if (args.workload == "paper-table") result = measure_paper_table(args);
    if (args.workload == "single-graph") result = measure_single_graph(args);
    if (args.workload == "serve-mixed") result = measure_serve_mixed(args);
  } else {
    trace_paper_table(args, result);
    trace_single_graph(args, result);
    trace_preprocess(args, result);
    trace_serve_mixed(args, result);
    derive_layer_metrics(result);
    if (!args.trace_out.empty() && !write_spans(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
      result.attempt(false);
    }
  }
  print_result(result);
  return 0;
}
