#include "harness.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "algorithms/bc.hpp"
#include "util/arena.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"

namespace graffix::bench {

namespace {

std::string g_json_path;  // final path given by --json
std::string g_json_tmp;   // staging file the run actually writes
bool g_json_finalize_registered = false;

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// Appends one `{"table": <title>, "kind": <kind>, <body>,
/// "peak_rss_bytes": N, "arena_peak_bytes": N}` line to the staging
/// file. The final path is only ever touched by the atomic rename in
/// finalize_json_output(), so a rerun into the same path replaces the
/// previous document instead of accumulating stale rows, and a crashed
/// run leaves the previous document intact.
///
/// Every table is stamped with the process-lifetime peak RSS and the
/// scratch arena's high-water mark at the moment the table is emitted
/// (DESIGN.md §9): memory regressions show up in the recorded JSON the
/// same way timing regressions do, and the CI streaming smoke cell
/// gates on the peak_rss_bytes field.
template <typename Body>
void json_table(const std::string& title, const char* kind, Body&& body) {
  if (g_json_tmp.empty()) return;
  FILE* f = std::fopen(g_json_tmp.c_str(), "a");
  if (f == nullptr) return;
  std::fprintf(f, "{\"table\":\"%s\",\"kind\":\"%s\",",
               json_escape(title).c_str(), kind);
  body(f);
  std::fprintf(f, ",\"peak_rss_bytes\":%llu,\"arena_peak_bytes\":%llu}\n",
               static_cast<unsigned long long>(peak_rss_bytes()),
               static_cast<unsigned long long>(arena_peak_bytes()));
  std::fclose(f);
}

}  // namespace

const std::string& json_output_path() { return g_json_path; }

void set_json_output(const std::string& path) {
  // Finish any document in flight before redirecting (a test driving
  // two simulated runs in one process relies on this).
  finalize_json_output();
  g_json_path = path;
  g_json_tmp.clear();
  if (path.empty()) return;
  g_json_tmp = path + ".tmp";
  // Truncate the staging file up front: this run's tables start from an
  // empty document no matter what a previous (possibly crashed) run
  // left behind.
  if (FILE* f = std::fopen(g_json_tmp.c_str(), "w")) std::fclose(f);
  if (!g_json_finalize_registered) {
    g_json_finalize_registered = true;
    std::atexit([] { finalize_json_output(); });
  }
}

void finalize_json_output() {
  if (g_json_tmp.empty()) return;
  // rename(2) within one directory is atomic: readers (and CI artifact
  // uploads) see either the old complete document or the new one.
  std::rename(g_json_tmp.c_str(), g_json_path.c_str());
  g_json_tmp.clear();
}

BenchOptions parse_args(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--scale") == 0) {
      options.scale = static_cast<std::uint32_t>(std::atoi(next_value()));
    } else if (std::strcmp(arg, "--seed") == 0) {
      options.seed = static_cast<std::uint64_t>(std::atoll(next_value()));
    } else if (std::strcmp(arg, "--bc-sources") == 0) {
      options.bc_sources = static_cast<std::uint32_t>(std::atoi(next_value()));
    } else if (std::strcmp(arg, "--threads") == 0) {
      options.threads = static_cast<std::uint32_t>(std::atoi(next_value()));
    } else if (std::strcmp(arg, "--quick") == 0) {
      options.scale = 9;
      options.bc_sources = 2;
    } else if (std::strcmp(arg, "--verbose") == 0) {
      options.verbose = true;
      set_log_level(LogLevel::Info);
    } else if (std::strcmp(arg, "--json") == 0) {
      options.json_path = next_value();
    } else if (std::strcmp(arg, "--help") == 0) {
      std::printf(
          "usage: %s [--scale N] [--seed S] [--bc-sources K] [--threads T] "
          "[--json FILE] [--quick] [--verbose]\n",
          argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", arg);
      std::exit(2);
    }
  }
  // Pin the worker pool up front (like --verbose, a process-wide knob).
  if (options.threads > 0) {
    set_num_threads(static_cast<int>(options.threads));
  }
  set_json_output(options.json_path);
  return options;
}

core::ExperimentConfig make_config(const BenchOptions& options,
                                   Technique technique,
                                   baselines::BaselineId baseline) {
  core::ExperimentConfig config;
  config.scale = options.scale;
  config.seed = options.seed;
  config.bc_sources = options.bc_sources;
  config.technique = technique;
  config.baseline = baseline;
  return config;
}

void print_experiment_table(const std::string& title,
                            const std::vector<core::ExperimentRow>& rows,
                            double paper_speedup,
                            double paper_inaccuracy_pct) {
  std::printf("\n%s\n", title.c_str());
  metrics::Table table({"Algo", "Graph", "Speedup", "Inaccuracy"});
  core::Algorithm last = rows.empty() ? core::Algorithm::SSSP
                                      : rows.front().algorithm;
  for (const auto& row : rows) {
    if (row.algorithm != last) {
      table.add_rule();
      last = row.algorithm;
    }
    table.add_row({core::algorithm_name(row.algorithm), row.graph,
                   metrics::Table::speedup(row.speedup),
                   metrics::Table::pct(row.inaccuracy_pct, 1)});
  }
  table.add_rule();
  const auto summary = core::summarize(rows);
  table.add_row({"", "Geomean", metrics::Table::speedup(summary.speedup),
                 metrics::Table::pct(summary.inaccuracy_pct, 1)});
  table.add_row({"", "Paper", metrics::Table::speedup(paper_speedup),
                 metrics::Table::pct(paper_inaccuracy_pct, 1)});
  table.print();
  json_table(title, "experiment", [&](FILE* f) {
    std::fprintf(f, "\"rows\":[");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& row = rows[i];
      std::fprintf(f,
                   "%s{\"algo\":\"%s\",\"graph\":\"%s\",\"exact_s\":%.9g,"
                   "\"approx_s\":%.9g,\"speedup\":%.9g,\"inaccuracy_pct\":%.9g}",
                   i > 0 ? "," : "", core::algorithm_name(row.algorithm),
                   json_escape(row.graph).c_str(), row.exact_seconds,
                   row.approx_seconds, row.speedup, row.inaccuracy_pct);
    }
    std::fprintf(f, "],\"geomean_speedup\":%.9g,\"geomean_inaccuracy_pct\":%.9g",
                 summary.speedup, summary.inaccuracy_pct);
  });
}

void print_exact_table(const std::string& title,
                       const std::vector<core::ExperimentRow>& rows,
                       double bc_scale_factor) {
  std::printf("\n%s\n", title.c_str());
  // Columns in paper order; collect per-graph rows.
  std::vector<std::string> graphs;
  for (const auto& row : rows) {
    if (graphs.empty() || graphs.back() != row.graph) {
      bool seen = false;
      for (const auto& g : graphs) seen = seen || g == row.graph;
      if (!seen) graphs.push_back(row.graph);
    }
  }
  std::vector<core::Algorithm> algos;
  for (const auto& row : rows) {
    bool seen = false;
    for (auto a : algos) seen = seen || a == row.algorithm;
    if (!seen) algos.push_back(row.algorithm);
  }
  std::vector<std::string> headers{"Graph"};
  for (auto a : algos) {
    std::string header = std::string(core::algorithm_name(a)) + " (s)";
    if (a == core::Algorithm::BC && bc_scale_factor > 1.0) {
      header = "BC (s, full-BC est.)";
    }
    headers.push_back(std::move(header));
  }
  metrics::Table table(std::move(headers));
  for (const auto& g : graphs) {
    std::vector<std::string> cells{g};
    for (auto a : algos) {
      double seconds = 0.0;
      for (const auto& row : rows) {
        if (row.graph == g && row.algorithm == a) seconds = row.exact_seconds;
      }
      if (a == core::Algorithm::BC) seconds *= bc_scale_factor;
      cells.push_back(metrics::Table::num(seconds, 5));
    }
    table.add_row(std::move(cells));
  }
  table.print();
  json_table(title, "exact", [&](FILE* f) {
    std::fprintf(f, "\"rows\":[");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& row = rows[i];
      std::fprintf(f, "%s{\"algo\":\"%s\",\"graph\":\"%s\",\"exact_s\":%.9g}",
                   i > 0 ? "," : "", core::algorithm_name(row.algorithm),
                   json_escape(row.graph).c_str(), row.exact_seconds);
    }
    std::fprintf(f, "]");
  });
}

void print_graphs_table(const std::string& title,
                        const std::vector<GraphSuiteRow>& rows) {
  std::printf("\n%s\n", title.c_str());
  metrics::Table table({"Graph", "|V|", "|E|", "max deg", "mean deg",
                        "pseudo-diam", "avg CC", "CSR MiB", "type"});
  for (const auto& row : rows) {
    table.add_row({row.name, std::to_string(row.nodes),
                   std::to_string(row.edges), std::to_string(row.max_degree),
                   metrics::Table::num(row.mean_degree, 1),
                   std::to_string(row.pseudo_diameter),
                   metrics::Table::num(row.avg_clustering, 3),
                   metrics::Table::num(
                       static_cast<double>(row.memory_bytes) / (1024.0 * 1024.0),
                       1),
                   row.kind});
  }
  table.print();
  json_table(title, "graphs", [&](FILE* f) {
    std::fprintf(f, "\"rows\":[");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& row = rows[i];
      std::fprintf(
          f,
          "%s{\"graph\":\"%s\",\"nodes\":%llu,\"edges\":%llu,"
          "\"max_degree\":%llu,\"mean_degree\":%.9g,\"pseudo_diameter\":%llu,"
          "\"avg_clustering\":%.9g,\"memory_bytes\":%llu,\"kind\":\"%s\"}",
          i > 0 ? "," : "", json_escape(row.name).c_str(),
          static_cast<unsigned long long>(row.nodes),
          static_cast<unsigned long long>(row.edges),
          static_cast<unsigned long long>(row.max_degree), row.mean_degree,
          static_cast<unsigned long long>(row.pseudo_diameter),
          row.avg_clustering,
          static_cast<unsigned long long>(row.memory_bytes),
          json_escape(row.kind).c_str());
    }
    std::fprintf(f, "]");
  });
}

void print_memory_table(const std::string& title,
                        const std::vector<MemoryPhaseRow>& rows,
                        std::uint64_t csr_memory_bytes, std::uint64_t nodes,
                        std::uint64_t edges) {
  const auto mib = [](std::uint64_t bytes) {
    return metrics::Table::num(static_cast<double>(bytes) / (1024.0 * 1024.0),
                               1);
  };
  std::printf("\n%s\n", title.c_str());
  metrics::Table table({"Phase", "Time (s)", "RSS before (MiB)",
                        "RSS after (MiB)", "arena peak (MiB)"});
  for (const auto& row : rows) {
    table.add_row({row.name, metrics::Table::num(row.seconds, 3),
                   mib(row.rss_before_bytes), mib(row.rss_after_bytes),
                   mib(row.arena_peak_bytes)});
  }
  table.print();
  std::printf("final CSR: %llu nodes, %llu edges, %s MiB owned\n",
              static_cast<unsigned long long>(nodes),
              static_cast<unsigned long long>(edges),
              mib(csr_memory_bytes).c_str());
  json_table(title, "memory", [&](FILE* f) {
    std::fprintf(f,
                 "\"nodes\":%llu,\"edges\":%llu,\"csr_memory_bytes\":%llu,"
                 "\"phases\":[",
                 static_cast<unsigned long long>(nodes),
                 static_cast<unsigned long long>(edges),
                 static_cast<unsigned long long>(csr_memory_bytes));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& row = rows[i];
      std::fprintf(f,
                   "%s{\"phase\":\"%s\",\"seconds\":%.9g,"
                   "\"rss_before_bytes\":%llu,\"rss_after_bytes\":%llu,"
                   "\"arena_peak_bytes\":%llu}",
                   i > 0 ? "," : "", json_escape(row.name).c_str(), row.seconds,
                   static_cast<unsigned long long>(row.rss_before_bytes),
                   static_cast<unsigned long long>(row.rss_after_bytes),
                   static_cast<unsigned long long>(row.arena_peak_bytes));
    }
    std::fprintf(f, "]");
  });
}

void print_preprocessing_table(const std::string& title,
                               const std::vector<core::PreprocessReport>& rows) {
  std::printf("\n%s\n", title.c_str());
  metrics::Table table({"Graph", "Time (s)", "Extra space", "Edges added"});
  for (const auto& row : rows) {
    table.add_row({row.graph, metrics::Table::num(row.seconds, 4),
                   metrics::Table::pct(row.extra_space_pct, 1),
                   std::to_string(row.edges_added)});
  }
  table.print();
  json_table(title, "preprocessing", [&](FILE* f) {
    std::fprintf(f, "\"rows\":[");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& row = rows[i];
      std::fprintf(f,
                   "%s{\"graph\":\"%s\",\"seconds\":%.9g,"
                   "\"extra_space_pct\":%.9g,\"edges_added\":%llu}",
                   i > 0 ? "," : "", json_escape(row.graph).c_str(),
                   row.seconds, row.extra_space_pct,
                   static_cast<unsigned long long>(row.edges_added));
    }
    std::fprintf(f, "]");
  });
}

void print_preprocessing_scaling_table(
    const std::string& title, const std::vector<int>& thread_counts,
    const std::vector<std::vector<core::PreprocessReport>>& runs) {
  std::printf("\n%s\n", title.c_str());
  if (runs.empty() || runs.size() != thread_counts.size()) return;
  std::vector<std::string> headers{"Graph"};
  for (int t : thread_counts) {
    headers.push_back("T=" + std::to_string(t) + " (s)");
  }
  headers.push_back("Speedup");
  metrics::Table table(std::move(headers));
  const std::size_t n_graphs = runs.front().size();
  for (std::size_t g = 0; g < n_graphs; ++g) {
    std::vector<std::string> cells{runs.front()[g].graph};
    for (const auto& run : runs) {
      cells.push_back(g < run.size() ? metrics::Table::num(run[g].seconds, 4)
                                     : "-");
    }
    const double base = runs.front()[g].seconds;
    const double best = g < runs.back().size() ? runs.back()[g].seconds : 0.0;
    cells.push_back(best > 0.0 ? metrics::Table::speedup(base / best) : "-");
    table.add_row(std::move(cells));
  }
  table.print();
  json_table(title, "scaling", [&](FILE* f) {
    std::fprintf(f, "\"threads\":[");
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
      std::fprintf(f, "%s%d", i > 0 ? "," : "", thread_counts[i]);
    }
    std::fprintf(f, "],\"rows\":[");
    for (std::size_t g = 0; g < n_graphs; ++g) {
      std::fprintf(f, "%s{\"graph\":\"%s\",\"seconds\":[", g > 0 ? "," : "",
                   json_escape(runs.front()[g].graph).c_str());
      for (std::size_t i = 0; i < runs.size(); ++i) {
        std::fprintf(f, "%s%.9g", i > 0 ? "," : "",
                     g < runs[i].size() ? runs[i][g].seconds : 0.0);
      }
      std::fprintf(f, "]}");
    }
    std::fprintf(f, "]");
  });
}

void print_serve_table(const std::string& title,
                       const std::vector<ServeBenchRow>& rows,
                       std::uint64_t nodes, std::uint64_t edges) {
  std::printf("\n%s\n", title.c_str());
  metrics::Table table({"Clients", "Queries", "Time (s)", "QPS", "p50 (ms)",
                        "p95 (ms)", "p99 (ms)", "Batch occ."});
  for (const auto& row : rows) {
    const double occupancy =
        row.batches > 0
            ? static_cast<double>(row.batched_lanes) /
                  static_cast<double>(row.batches)
            : 1.0;
    table.add_row({std::to_string(row.clients), std::to_string(row.queries),
                   metrics::Table::num(row.seconds, 3),
                   metrics::Table::num(row.qps, 1),
                   metrics::Table::num(row.p50_ms, 2),
                   metrics::Table::num(row.p95_ms, 2),
                   metrics::Table::num(row.p99_ms, 2),
                   metrics::Table::num(occupancy, 1)});
  }
  table.print();
  std::printf("graph: %llu nodes, %llu edges\n",
              static_cast<unsigned long long>(nodes),
              static_cast<unsigned long long>(edges));
  json_table(title, "serve", [&](FILE* f) {
    std::fprintf(f, "\"nodes\":%llu,\"edges\":%llu,\"rows\":[",
                 static_cast<unsigned long long>(nodes),
                 static_cast<unsigned long long>(edges));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& row = rows[i];
      std::fprintf(f,
                   "%s{\"clients\":%u,\"queries\":%llu,\"seconds\":%.9g,"
                   "\"qps\":%.9g,\"p50_ms\":%.9g,\"p95_ms\":%.9g,"
                   "\"p99_ms\":%.9g,\"units\":%llu,\"batches\":%llu,"
                   "\"batched_lanes\":%llu,\"errors\":%llu}",
                   i > 0 ? "," : "", row.clients,
                   static_cast<unsigned long long>(row.queries), row.seconds,
                   row.qps, row.p50_ms, row.p95_ms, row.p99_ms,
                   static_cast<unsigned long long>(row.units),
                   static_cast<unsigned long long>(row.batches),
                   static_cast<unsigned long long>(row.batched_lanes),
                   static_cast<unsigned long long>(row.errors));
    }
    std::fprintf(f, "]");
  });
}

namespace {

/// Fixed-width ASCII bar scaled to [lo, hi]; the poor man's Figure 7-9.
std::string bar(double value, double lo, double hi, std::size_t width = 18) {
  if (hi <= lo) hi = lo + 1.0;
  const double t = std::min(1.0, std::max(0.0, (value - lo) / (hi - lo)));
  const auto filled = static_cast<std::size_t>(t * width + 0.5);
  return std::string(filled, '#') + std::string(width - filled, '.');
}

}  // namespace

void print_sweep_table(const std::string& title, const char* knob_name,
                       const std::vector<SweepPoint>& points) {
  std::printf("\n%s\n", title.c_str());
  double speed_lo = 1e9, speed_hi = 0, err_hi = 0;
  for (const auto& p : points) {
    speed_lo = std::min(speed_lo, p.speedup);
    speed_hi = std::max(speed_hi, p.speedup);
    err_hi = std::max(err_hi, p.inaccuracy_pct);
  }
  metrics::Table table({knob_name, "Speedup (geomean)", "",
                        "Inaccuracy (geomean)", " "});
  for (const auto& point : points) {
    table.add_row({metrics::Table::num(point.threshold, 2),
                   metrics::Table::speedup(point.speedup),
                   bar(point.speedup, std::min(speed_lo, 1.0), speed_hi),
                   metrics::Table::pct(point.inaccuracy_pct, 1),
                   bar(point.inaccuracy_pct, 0.0, err_hi)});
  }
  table.print();
}

std::vector<SweepPoint> run_threshold_sweep(
    const BenchOptions& options,
    const std::vector<core::Algorithm>& algorithms,
    const std::vector<double>& thresholds,
    const std::function<void(Pipeline&, double)>& apply) {
  using core::Algorithm;
  using core::RunConfig;
  using core::RunOutput;

  Csr graph = make_preset(GraphPreset::Rmat26, options.scale, options.seed);
  Pipeline pipeline(std::move(graph));

  const NodeId sssp_source = [&] {
    NodeId best = 0, best_degree = 0;
    for (NodeId v = 0; v < pipeline.original().num_slots(); ++v) {
      if (pipeline.original().degree(v) > best_degree) {
        best = v;
        best_degree = pipeline.original().degree(v);
      }
    }
    return best;
  }();
  const std::vector<NodeId> bc_nodes = sample_bc_sources(
      pipeline.original(), options.bc_sources, options.seed);

  // One exact run per algorithm, reused across the sweep.
  std::vector<RunOutput> exact;
  exact.reserve(algorithms.size());
  for (Algorithm alg : algorithms) {
    RunConfig rc;
    rc.seed = options.seed;
    rc.sssp_source = sssp_source;
    rc.bc_sources = bc_nodes;
    exact.push_back(pipeline.run_exact(alg, rc));
  }

  std::vector<SweepPoint> points;
  for (double threshold : thresholds) {
    apply(pipeline, threshold);
    std::vector<NodeId> bc_slots(bc_nodes.size());
    for (std::size_t i = 0; i < bc_nodes.size(); ++i) {
      bc_slots[i] = pipeline.slot_of_node(bc_nodes[i]);
    }
    std::vector<double> speedups, inaccuracies;
    for (std::size_t i = 0; i < algorithms.size(); ++i) {
      RunConfig rc;
      rc.seed = options.seed;
      rc.sssp_source = pipeline.slot_of_node(sssp_source);
      rc.bc_sources = bc_slots;
      const RunOutput approx = pipeline.run(algorithms[i], rc);
      speedups.push_back(
          metrics::speedup(exact[i].sim_seconds, approx.sim_seconds));
      double inaccuracy = 0.0;
      switch (algorithms[i]) {
        case Algorithm::SSSP:
        case Algorithm::PR:
        case Algorithm::BC: {
          const auto projected = pipeline.project(approx.attr);
          inaccuracy =
              metrics::attribute_error(exact[i].attr, projected).inaccuracy_pct;
          break;
        }
        case Algorithm::SCC:
        case Algorithm::MST:
          inaccuracy =
              metrics::scalar_inaccuracy_pct(exact[i].scalar, approx.scalar);
          break;
      }
      inaccuracies.push_back(std::max(inaccuracy, 0.1));
    }
    points.push_back({threshold, metrics::geomean(speedups),
                      metrics::geomean(inaccuracies)});
  }
  return points;
}

}  // namespace graffix::bench
