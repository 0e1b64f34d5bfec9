// The batch workloads: paper-table (core::run_table) and single-graph
// (transformed rmat graphs, five algorithms one after another), plus the
// traced-only preprocess pass (Table 5: each transform applied to each
// suite graph).
#include <algorithm>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "algorithms/bc.hpp"
#include "core/experiment.hpp"
#include "gen/suite.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace perfbench {

using graffix::Csr;
using graffix::NodeId;
using graffix::Pipeline;
using graffix::SuiteEntry;
using graffix::Technique;
using graffix::WallTimer;
namespace core = graffix::core;

namespace {

core::ExperimentConfig table_config(std::uint64_t seed, Technique technique) {
  core::ExperimentConfig config;
  config.scale = kTableScale;
  config.seed = seed;
  config.technique = technique;
  config.baseline = graffix::baselines::BaselineId::TopologyDriven;
  return config;
}

/// Runs `round` at least kMinRounds times and until `seconds` have
/// passed; returns each round's wall time.
template <typename Round>
std::vector<double> run_rounds(double seconds, double& total_s, Round&& round) {
  std::vector<double> times;
  WallTimer phase;
  while (static_cast<int>(times.size()) < kMinRounds || phase.seconds() < seconds) {
    WallTimer t;
    round();
    times.push_back(t.seconds());
    std::fprintf(stderr, "perfbench: round %zu took %.3f s\n", times.size(), times.back());
  }
  total_s = phase.seconds();
  return times;
}

template <typename Gen>
double median_setup(Gen&& gen) {
  std::vector<double> times;
  for (int i = 0; i < kSetupReps; ++i) {
    WallTimer t;
    gen();
    times.push_back(t.seconds());
  }
  return median(times);
}

/// A batch workload's operation is one round: the table, analysis pass
/// or Table 5 pass a user asks for. Its latency percentiles are taken
/// over the rounds.
void set_batch_metrics(Result& r, double setup_s, const std::vector<double>& rounds,
                       double total_s) {
  std::vector<double> round_ms;
  for (const double s : rounds) round_ms.push_back(s * 1e3);
  r.set("setup_s", setup_s, "s");
  r.set("run_s", median(rounds), "s");
  r.set("qps", static_cast<double>(rounds.size()) / total_s, "1/s");
  r.set("query_p50_ms", percentile(round_ms, 50), "ms");
  r.set("query_p95_ms", percentile(round_ms, 95), "ms");
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
}

bool rows_equal(const core::ExperimentRow& x, const core::ExperimentRow& y) {
  return x.graph == y.graph && x.algorithm == y.algorithm &&
         x.exact_seconds == y.exact_seconds &&
         x.approx_seconds == y.approx_seconds && x.speedup == y.speedup &&
         x.inaccuracy_pct == y.inaccuracy_pct &&
         x.exact_iterations == y.exact_iterations &&
         x.approx_iterations == y.approx_iterations;
}

/// Counts one check per entry of `reference`: `got` must hold an equal
/// entry at the same position.
template <typename T, typename Eq = std::equal_to<>>
void check_same(Result& r, const std::vector<T>& reference, const std::vector<T>& got,
                Eq eq = {}) {
  for (std::size_t i = 0; i < reference.size(); ++i) {
    r.attempt(got.size() == reference.size() && eq(reference[i], got[i]));
  }
}

/// Inputs of one graph's exact and approximate runs, chosen the way
/// core::run_graph chooses them.
struct RunInputs {
  NodeId sssp_source = 0;
  std::vector<NodeId> bc_nodes;
  std::vector<NodeId> bc_slots;
};

RunInputs run_inputs(const Csr& graph, const Pipeline& pipeline,
                     const core::ExperimentConfig& config) {
  RunInputs in;
  // Maximum out-degree node, ties to the smallest id.
  NodeId best_degree = 0;
  for (NodeId v = 0; v < graph.num_slots(); ++v) {
    if (!graph.is_hole(v) && graph.degree(v) > best_degree) {
      in.sssp_source = v;
      best_degree = graph.degree(v);
    }
  }
  in.bc_nodes = graffix::sample_bc_sources(graph, config.bc_sources, config.seed);
  for (const NodeId v : in.bc_nodes) in.bc_slots.push_back(pipeline.slot_of_node(v));
  return in;
}

core::RunOutput run_one(const Pipeline& pipeline, core::Algorithm alg, bool exact,
                        const RunInputs& in, const core::ExperimentConfig& config,
                        std::uint64_t parent) {
  core::RunConfig rc;
  rc.sim = config.sim;
  rc.baseline = config.baseline;
  rc.seed = config.seed;
  rc.confluence_every = config.confluence_every;
  const std::string alg_name = core::algorithm_name(alg);
  std::string lower(alg_name.size(), ' ');
  std::transform(alg_name.begin(), alg_name.end(), lower.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (exact) {
    rc.sssp_source = in.sssp_source;
    rc.bc_sources = in.bc_nodes;
    SpanGuard span("core.run_exact." + lower, parent);
    return pipeline.run_exact(alg, rc);
  }
  rc.sssp_source = pipeline.slot_of_node(in.sssp_source);
  rc.bc_sources = in.bc_slots;
  SpanGuard span("core.run_approx." + lower, parent);
  return pipeline.run(alg, rc);
}

void add_sim_counters(Result& r, const core::RunOutput& out) {
  r.add("sim.sweeps", static_cast<double>(out.stats.sweeps), "count");
  r.add("sim.warp_steps", static_cast<double>(out.stats.warp_steps), "count");
  r.add("sim.attr_transactions", static_cast<double>(out.stats.attr_transactions),
        "count");
  r.add("sim.edge_transactions", static_cast<double>(out.stats.edge_transactions),
        "count");
  r.add("sim.iterations", out.iterations, "count");
}

void log_suite(const char* workload, const std::vector<SuiteEntry>& suite) {
  std::vector<const Csr*> graphs;
  for (const SuiteEntry& e : suite) graphs.push_back(&e.graph);
  log_inputs(workload, graphs);
}

void add_csr_mb(Result& r, const Csr& graph) {
  r.add("graph.csr_mb", static_cast<double>(graph.memory_bytes()) / (1024.0 * 1024.0),
        "MB");
}

/// core::run_table rebuilt from its public parts, with a span around each
/// call into gen, core, transform and metrics. Its rows must equal
/// run_table's, which checks that the spans time the same work.
std::vector<core::ExperimentRow> traced_table(const core::ExperimentConfig& base,
                                              Result& r) {
  std::vector<SuiteEntry> suite;
  {
    SpanGuard span("gen");
    suite = graffix::make_suite(base.scale, base.seed);
  }
  for (const SuiteEntry& entry : suite) add_csr_mb(r, entry.graph);
  std::vector<core::ExperimentRow> rows;
  for (const SuiteEntry& entry : suite) {
    SpanGuard graph_span("graph");
    const std::uint64_t parent = current_span();
    const core::ExperimentConfig config = core::resolve_for_graph(base, entry.preset);
    std::optional<Pipeline> pipeline;
    {
      SpanGuard span("core.pipeline");
      pipeline.emplace(entry.graph);
    }
    {
      SpanGuard span(std::string("transform.") + graffix::technique_name(config.technique));
      core::apply_technique(*pipeline, config);
    }
    const RunInputs in = run_inputs(entry.graph, *pipeline, config);
    const std::size_t n_algs = config.algorithms.size();
    std::vector<core::RunOutput> outs(2 * n_algs);
    // Same cell fan-out as core::run_graph: exact and approximate runs of
    // every algorithm are independent tasks on the pool.
    graffix::parallel_for_dynamic(
        std::size_t{0}, outs.size(),
        [&](std::size_t t) {
          outs[t] = run_one(*pipeline, config.algorithms[t / 2], t % 2 == 0, in,
                            config, parent);
        },
        /*grain=*/1);
    for (std::size_t a = 0; a < n_algs; ++a) {
      const core::RunOutput& exact = outs[2 * a];
      const core::RunOutput& approx = outs[2 * a + 1];
      add_sim_counters(r, exact);
      add_sim_counters(r, approx);
      core::ExperimentRow row;
      row.graph = entry.name;
      row.algorithm = config.algorithms[a];
      row.exact_seconds = exact.sim_seconds;
      row.approx_seconds = approx.sim_seconds;
      row.exact_iterations = exact.iterations;
      row.approx_iterations = approx.iterations;
      SpanGuard span("metrics");
      row.speedup = graffix::metrics::speedup(exact.sim_seconds, approx.sim_seconds);
      if (row.algorithm == core::Algorithm::SCC || row.algorithm == core::Algorithm::MST) {
        row.inaccuracy_pct =
            graffix::metrics::scalar_inaccuracy_pct(exact.scalar, approx.scalar);
      } else {
        const std::vector<double> projected = pipeline->project(approx.attr);
        row.inaccuracy_pct =
            graffix::metrics::attribute_error(exact.attr, projected).inaccuracy_pct;
      }
      rows.push_back(std::move(row));
    }
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const core::ExperimentRow& a, const core::ExperimentRow& b) {
                     return static_cast<int>(a.algorithm) < static_cast<int>(b.algorithm);
                   });
  return rows;
}

// ---- single-graph -------------------------------------------------------

struct RunDigest {
  graffix::sim::KernelStats stats;
  std::uint64_t attr = 0;
  double scalar = 0.0;
  std::uint32_t iterations = 0;
  bool operator==(const RunDigest&) const = default;
};

struct SingleGraph {
  Csr graph;
  core::ExperimentConfig config;
};

/// A single-graph round runs this many graphs drawn from the seed. What
/// one rmat graph costs depends on its structure, so a round over a
/// single graph would report that graph rather than the workload.
constexpr std::uint64_t kSingleGraphs = 2;

SingleGraph make_single_graph(std::uint64_t seed) {
  SingleGraph sg;
  {
    SpanGuard span("gen");
    sg.graph = graffix::make_preset(graffix::GraphPreset::Rmat26, kSingleScale, seed);
  }
  sg.config = core::resolve_for_graph(table_config(seed, Technique::Divergence),
                                      graffix::GraphPreset::Rmat26);
  return sg;
}

/// The single-graph inputs of a run: rmat seeds kSingleGraphs*seed + k.
std::vector<SingleGraph> make_single_graphs(std::uint64_t seed) {
  std::vector<SingleGraph> graphs;
  for (std::uint64_t k = 0; k < kSingleGraphs; ++k) {
    graphs.push_back(make_single_graph(kSingleGraphs * seed + k));
  }
  return graphs;
}

/// One single-graph round: for each graph, transform, then exact and
/// approximate runs of each algorithm, one call after another. Appends
/// one digest per call to `digests`.
void single_graph_round(const std::vector<SingleGraph>& graphs,
                        std::vector<RunDigest>& digests, Result* counters) {
  for (const SingleGraph& sg : graphs) {
    Pipeline pipeline(sg.graph);
    {
      SpanGuard span("transform.divergence");
      core::apply_technique(pipeline, sg.config);
    }
    const RunInputs in = run_inputs(sg.graph, pipeline, sg.config);
    for (const core::Algorithm alg : sg.config.algorithms) {
      for (const bool exact : {true, false}) {
        const core::RunOutput out =
            run_one(pipeline, alg, exact, in, sg.config, current_span());
        digests.push_back({out.stats, attr_digest(out.attr), out.scalar, out.iterations});
        if (counters != nullptr) add_sim_counters(*counters, out);
      }
    }
  }
}

// ---- preprocess ---------------------------------------------------------

constexpr Technique kTable5Techniques[] = {Technique::Coalescing, Technique::Latency,
                                          Technique::Divergence};

struct TransformDigest {
  std::uint64_t edges_added = 0;
  std::uint64_t csr = 0;
  bool operator==(const TransformDigest&) const = default;
};

void preprocess_round(const std::vector<SuiteEntry>& suite, std::uint64_t seed,
                      std::vector<TransformDigest>& digests, Result* counters) {
  for (const SuiteEntry& entry : suite) {
    Pipeline pipeline(entry.graph);
    for (const Technique technique : kTable5Techniques) {
      const core::ExperimentConfig config =
          core::resolve_for_graph(table_config(seed, technique), entry.preset);
      const std::string name = graffix::technique_name(technique);
      {
        SpanGuard span("transform." + name);
        core::apply_technique(pipeline, config);
      }
      digests.push_back({pipeline.edges_added(), csr_digest(pipeline.current())});
      if (counters != nullptr) {
        counters->add("transform.edges_added",
                      static_cast<double>(pipeline.edges_added()), "count");
        if (technique == Technique::Latency) {
          counters->add("transform.latency_greedy_s", pipeline.greedy_phase_seconds(),
                        "s");
        }
      }
    }
  }
}

/// Runs `round` untraced, traced, then untraced at pool width 1, and
/// records the wall time of each.
template <typename Round>
void traced_triplet(const std::string& workload, Result& out, Round&& round) {
  {
    WallTimer t;
    round(false);
    out.set(workload + ".untraced_s", t.seconds(), "s");
  }
  {
    set_tracing(true);
    WallTimer t;
    {
      SpanGuard root(workload);
      round(true);
    }
    out.set(workload + ".traced_s", t.seconds(), "s");
    set_tracing(false);
  }
  {
    graffix::ScopedNumThreads width1(1);
    WallTimer t;
    round(false);
    out.set(workload + ".w1_s", t.seconds(), "s");
  }
}

}  // namespace

// ---- measured runs ------------------------------------------------------

Result measure_paper_table(const Args& args) {
  Result r;
  std::vector<SuiteEntry> suite;
  const double setup_s =
      median_setup([&] { suite = graffix::make_suite(kTableScale, args.seed); });
  log_suite("paper-table", suite);
  suite.clear();
  const core::ExperimentConfig config = table_config(args.seed, Technique::Coalescing);
  std::vector<core::ExperimentRow> reference;
  double total_s = 0.0;
  const std::vector<double> rounds = run_rounds(args.seconds, total_s, [&] {
    std::vector<core::ExperimentRow> rows = core::run_table(config);
    if (reference.empty()) {
      reference = rows;
      // Every cell must carry a finite, positive speedup.
      for (const auto& row : rows) r.attempt(row.speedup > 0.0 && row.inaccuracy_pct >= 0.0);
    } else {
      check_same(r, reference, rows, rows_equal);
    }
  });
  set_batch_metrics(r, setup_s, rounds, total_s);
  return r;
}

Result measure_single_graph(const Args& args) {
  Result r;
  std::vector<SingleGraph> graphs;
  const double setup_s = median_setup([&] {
    graphs.clear();
    graphs = make_single_graphs(args.seed);
  });
  std::vector<const Csr*> inputs;
  for (const SingleGraph& sg : graphs) inputs.push_back(&sg.graph);
  log_inputs("single-graph", inputs);
  std::vector<RunDigest> reference;
  double total_s = 0.0;
  const std::vector<double> rounds = run_rounds(args.seconds, total_s, [&] {
    std::vector<RunDigest> digests;
    single_graph_round(graphs, digests, nullptr);
    if (reference.empty()) {
      reference = digests;
      for (const RunDigest& d : digests) r.attempt(d.stats.sweeps > 0);
    } else {
      check_same(r, reference, digests);
    }
  });
  set_batch_metrics(r, setup_s, rounds, total_s);
  return r;
}

// ---- traced passes ------------------------------------------------------

void trace_paper_table(const Args& args, Result& out) {
  const core::ExperimentConfig config = table_config(args.seed, Technique::Coalescing);
  std::vector<core::ExperimentRow> reference;
  traced_triplet("paper-table", out, [&](bool traced) {
    if (!traced) {
      const std::vector<core::ExperimentRow> rows = core::run_table(config);
      if (reference.empty()) {
        reference = rows;
      } else {
        check_same(out, reference, rows, rows_equal);  // pool width 1 vs default
      }
      return;
    }
    Result counters;
    const std::vector<core::ExperimentRow> rows = traced_table(config, counters);
    check_same(out, reference, rows, rows_equal);
    for (const auto& [name, m] : counters.metrics) out.add(name, m.value, m.unit);
    const core::GeomeanSummary summary = core::summarize(rows);
    out.set("sim_speedup", summary.speedup, "x");
    out.set("inaccuracy_pct", summary.inaccuracy_pct, "%");
  });
}

void trace_single_graph(const Args& args, Result& out) {
  std::vector<SingleGraph> graphs;
  set_tracing(true);
  {
    SpanGuard root("single-graph.setup");
    graphs = make_single_graphs(args.seed);
  }
  set_tracing(false);
  for (const SingleGraph& sg : graphs) add_csr_mb(out, sg.graph);
  std::vector<RunDigest> reference;
  traced_triplet("single-graph", out, [&](bool traced) {
    std::vector<RunDigest> digests;
    single_graph_round(graphs, digests, traced ? &out : nullptr);
    if (reference.empty()) {
      reference = digests;
    } else {
      check_same(out, reference, digests);
    }
  });
}

void trace_preprocess(const Args& args, Result& out) {
  std::vector<SuiteEntry> suite;
  set_tracing(true);
  {
    SpanGuard root("preprocess.setup");
    SpanGuard span("gen");
    suite = graffix::make_suite(kTableScale, args.seed);
  }
  set_tracing(false);
  std::vector<TransformDigest> reference;
  traced_triplet("preprocess", out, [&](bool traced) {
    std::vector<TransformDigest> digests;
    preprocess_round(suite, args.seed, digests, traced ? &out : nullptr);
    if (reference.empty()) {
      reference = digests;
    } else {
      check_same(out, reference, digests);
    }
  });
}

}  // namespace perfbench
