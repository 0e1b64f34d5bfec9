// graffix::Pipeline — the library's primary public entry point.
//
// Owns an input graph, applies one Graffix transform (the paper evaluates
// the three techniques independently), and runs simulated-device
// algorithms on either the transformed or the original graph with all
// transform artifacts (warp order, replicas, clusters) wired through
// automatically. Results on the transformed graph can be projected back
// to original node ids for accuracy evaluation.
//
// Typical use (see examples/quickstart.cpp):
//
//   graffix::Pipeline pipeline(std::move(graph));
//   pipeline.apply_coalescing({.chunk_size = 16,
//                              .connectedness_threshold = 0.6});
//   auto exact  = pipeline.run_exact(graffix::core::Algorithm::PR);
//   auto approx = pipeline.run(graffix::core::Algorithm::PR);
//   auto ranks  = pipeline.project(approx.attr);   // per original node id
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/runners.hpp"
#include "transform/coalescing.hpp"
#include "transform/combined.hpp"
#include "transform/divergence.hpp"
#include "transform/latency.hpp"

namespace graffix {

enum class Technique { None, Coalescing, Latency, Divergence, Combined };

[[nodiscard]] const char* technique_name(Technique technique);

class Pipeline {
 public:
  explicit Pipeline(Csr graph);

  /// Apply one transform (replacing any previously applied one). Each
  /// returns the transform's report for inspection.
  const transform::CoalescingResult& apply_coalescing(
      const transform::CoalescingKnobs& knobs);
  const transform::LatencyResult& apply_latency(
      const transform::LatencyKnobs& knobs);
  const transform::DivergenceResult& apply_divergence(
      const transform::DivergenceKnobs& knobs);
  /// Apply any combination of the three techniques in the consistent
  /// order (coalescing -> latency -> divergence); see transform/combined.hpp.
  const transform::CombinedResult& apply_combined(
      const transform::CombinedKnobs& knobs);

  /// Drop the applied transform; run() falls back to the original graph.
  void reset();

  [[nodiscard]] Technique technique() const { return technique_; }
  [[nodiscard]] const Csr& original() const { return original_; }
  /// The graph run() executes on (transformed if a technique is applied).
  [[nodiscard]] const Csr& current() const;

  /// Wall-clock seconds spent in the last apply_* (Table 5's time column).
  [[nodiscard]] double preprocessing_seconds() const {
    return preprocessing_seconds_;
  }
  /// Wall-clock seconds of the applied transform's greedy phase — the
  /// scenario-1/2 insertion (latency) or replica application
  /// (coalescing). Zero for techniques without a greedy phase.
  [[nodiscard]] double greedy_phase_seconds() const;
  /// Extra space of the transformed graph relative to the original.
  [[nodiscard]] double extra_space_fraction() const;
  /// Arcs inserted by the applied transform (the approximation volume).
  [[nodiscard]] std::uint64_t edges_added() const;

  /// Runs on the current graph with the transform artifacts wired into
  /// the config (fields warp_order/replicas/clusters are overwritten).
  [[nodiscard]] core::RunOutput run(core::Algorithm alg,
                                    core::RunConfig config = {}) const;
  /// Runs on the original, untransformed graph (the exact comparator).
  [[nodiscard]] core::RunOutput run_exact(core::Algorithm alg,
                                          core::RunConfig config = {}) const;

  /// Slot in current() representing original node v.
  [[nodiscard]] NodeId slot_of_node(NodeId v) const;
  /// Projects a per-slot attribute vector onto original node ids.
  [[nodiscard]] std::vector<double> project(
      std::span<const double> attr_slots) const;

 private:
  Csr original_;
  Technique technique_ = Technique::None;
  std::optional<transform::CoalescingResult> coalescing_;
  std::optional<transform::LatencyResult> latency_;
  std::optional<transform::DivergenceResult> divergence_;
  std::optional<transform::CombinedResult> combined_;
  double preprocessing_seconds_ = 0.0;
};

}  // namespace graffix
