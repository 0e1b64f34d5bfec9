// §3 memory-latency transform: clustering-coefficient driven
// shared-memory clusters plus CC-boosting edge insertion.
//
// Nodes whose CC clears the threshold anchor clusters (the node plus its
// immediate neighbors) that the simulator keeps resident in shared
// memory. Two edge-insertion schemes add the controlled approximation:
// (1) nodes just below the threshold get edges between neighbor pairs
// that share a common neighbor, lifting them over the cutoff; (2) nodes
// already above it get edges between their least-connected neighbors,
// densifying the cluster. A global edge budget bounds the inaccuracy.
// Each cluster is processed for t ~ 2 x (subgraph diameter) inner
// iterations (§3's reuse guideline).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "transform/knobs.hpp"

namespace graffix::transform {

struct Cluster {
  std::vector<NodeId> members;  // anchor first
  std::uint32_t inner_iterations = 1;  // t
};

struct ClusterSchedule {
  std::vector<Cluster> clusters;
  /// Per-slot cluster id; kInvalidNode when not resident. A slot belongs
  /// to at most one cluster.
  std::vector<NodeId> resident;

  [[nodiscard]] bool empty() const { return clusters.empty(); }
  [[nodiscard]] std::size_t resident_count() const {
    std::size_t count = 0;
    for (const auto& c : clusters) count += c.members.size();
    return count;
  }
};

struct LatencyResult {
  Csr graph;  // original plus inserted edges (same node ids, no holes)
  ClusterSchedule schedule;
  std::uint64_t edges_added = 0;
  double extra_space_fraction = 0.0;
  double mean_cc_before = 0.0;
  double mean_cc_after = 0.0;
  /// Wall-clock seconds spent in the scenario-1/2 greedy insertion
  /// phases (perfbench's transform.latency_greedy_s).
  double greedy_seconds = 0.0;
};

/// Runs the latency transform. With an edge budget of 0 no edges are
/// inserted and only naturally high-CC clusters are scheduled (exact
/// structure; useful for ablation).
[[nodiscard]] LatencyResult latency_transform(const Csr& graph,
                                              const LatencyKnobs& knobs);

}  // namespace graffix::transform
