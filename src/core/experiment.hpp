// Experiment grid runner: evaluates (graph x algorithm x technique x
// baseline) cells exactly the way the paper's Tables 6-14 and Figures
// 7-9 do — one exact run on the original graph, one approximate run on
// the transformed graph, speedup from simulated seconds and inaccuracy
// from §5's per-algorithm metric.
#pragma once

#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "gen/suite.hpp"
#include "metrics/accuracy.hpp"

namespace graffix::core {

struct ExperimentConfig {
  std::uint32_t scale = 13;
  std::uint64_t seed = 42;
  sim::SimConfig sim;
  baselines::BaselineId baseline = baselines::BaselineId::TopologyDriven;
  Technique technique = Technique::Coalescing;

  transform::CoalescingKnobs coalescing;
  transform::LatencyKnobs latency;
  transform::DivergenceKnobs divergence;
  /// Apply the paper's per-graph-class thresholds (connectedness 0.6 for
  /// power-law graphs / 0.4 for road networks, §5.2) instead of the knob
  /// structs' values.
  bool auto_thresholds = true;

  std::vector<Algorithm> algorithms = all_algorithms();
  std::uint32_t bc_sources = 6;
  /// Replica merge cadence (ablation; 1 = paper default).
  std::uint32_t confluence_every = 1;
};

struct ExperimentRow {
  std::string graph;
  Algorithm algorithm = Algorithm::SSSP;
  double exact_seconds = 0.0;
  double approx_seconds = 0.0;
  double speedup = 0.0;
  double inaccuracy_pct = 0.0;
  std::uint32_t exact_iterations = 0;
  std::uint32_t approx_iterations = 0;
};

struct PreprocessReport {
  std::string graph;
  double seconds = 0.0;
  double extra_space_pct = 0.0;
  std::uint64_t edges_added = 0;
};

/// Resolves the technique's knobs for one graph class (applies the
/// auto-threshold rule).
[[nodiscard]] ExperimentConfig resolve_for_graph(ExperimentConfig config,
                                                 GraphPreset preset);

/// Applies config.technique to the pipeline using the (resolved) knobs.
void apply_technique(Pipeline& pipeline, const ExperimentConfig& config);

/// Runs every configured algorithm for one suite graph. The transform is
/// applied once and reused across algorithms (the paper's amortization
/// argument).
[[nodiscard]] std::vector<ExperimentRow> run_graph(const SuiteEntry& entry,
                                                   const ExperimentConfig& config);

/// Full table over the whole Table 1 suite.
[[nodiscard]] std::vector<ExperimentRow> run_table(const ExperimentConfig& config);

/// Exact-only baseline timings (Tables 2-4): no transform, just the
/// baseline's simulated execution time per (graph, algorithm).
[[nodiscard]] std::vector<ExperimentRow> run_exact_table(
    const ExperimentConfig& config);

/// Preprocessing cost per suite graph (Table 5 rows for one technique).
[[nodiscard]] std::vector<PreprocessReport> run_preprocessing(
    const ExperimentConfig& config);

/// Geomean of the rows' speedups and inaccuracies.
struct GeomeanSummary {
  double speedup = 1.0;
  double inaccuracy_pct = 0.0;
};
[[nodiscard]] GeomeanSummary summarize(std::span<const ExperimentRow> rows);

}  // namespace graffix::core
