// Step 2 of the coalescing transform (Algorithm 2, ReplicateVertex):
// fill the renumbered graph's holes with replicas of well-connected nodes.
//
// The slot array is viewed as chunks of size k (one warp processes two
// k=16 chunks). For every (node n, chunk C) pair with
//
//   connectedness(n, C) = edges from n into C / non-hole nodes of C
//
// at or above the threshold, n is replicated into a free hole in a chunk
// at C's parent level — preferring the chunk that actually holds BFS
// parents of C's members — so that when the warp covering that parent
// chunk enumerates neighbors, the replica's accesses into C coalesce with
// its siblings'. The replica takes over n's edges into C and gains a few
// 2-hop edges inside C (the controlled approximation). Candidates beyond
// the available holes are dropped in decreasing edge-count order (§2.3).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "transform/confluence.hpp"
#include "transform/knobs.hpp"
#include "transform/renumber.hpp"

namespace graffix::transform {

struct ReplicationResult {
  Csr graph;            // holes filled by replicas; unfilled holes remain
  ReplicaMap replicas;  // slot-level groups (primary first)
  std::uint64_t edges_moved = 0;  // from primaries to replicas
  std::uint64_t edges_added = 0;  // new 2-hop edges (the approximation)
  NodeId holes_total = 0;
  NodeId holes_filled = 0;
  /// Wall-clock seconds spent in the greedy candidate-application phase.
  double greedy_seconds = 0.0;
};

/// Applies replication to a renumbered, hole-aware graph.
[[nodiscard]] ReplicationResult replicate_into_holes(
    const Csr& renumbered, const RenumberResult& renumber,
    const CoalescingKnobs& knobs);

}  // namespace graffix::transform
