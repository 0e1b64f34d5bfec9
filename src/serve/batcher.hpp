// Query execution for `graffix serve`.
//
// Serving needs only the functional answer, so SSSP/BFS queries run as
// per-query host kernels directly on the snapshot's CSR — never through
// the SIMT simulator, whose cost accounting a response would discard:
//
//   - SSSP on a weighted graph: Dijkstra keyed by (distance, hops) on a
//     bucket queue (Dial's algorithm), the distance a `double`
//     left-to-right sum of `double(w)`;
//   - BFS, and SSSP on an unweighted graph: a level-synchronous frontier
//     (Gunrock's advance/filter, one level per step).
//
// Each response carries the query's full-plane digest, its reached
// count, its echo values and `rounds`: the last round in which
// topology-driven Jacobi Bellman-Ford would improve any vertex
// (tests/serve_kernel_test.cpp checks every field against such an
// oracle). Jacobi round r leaves every vertex at its shortest distance
// over paths of at most r edges, so a vertex last improves in the round
// equal to its hop count — the fewest edges on any of its shortest
// paths — and `rounds` is the largest hop count over reached vertices.
// Dijkstra on (distance, hops) settles each vertex at its shortest
// distance with the fewest hops among shortest paths. That argument
// needs exact path sums; float weights widened to double sum exactly
// while a path's length stays below 2^53 units of the last bit of its
// finest weight (2^30 when every weight is at least 1), which every
// generator in the repo (weights in [1, max]) meets with wide margin.
//
// Each query is its own pool task. `form_units` survives as admission
// grouping only: it groups compatible queries (same snapshot, same
// algorithm) so the server's units/batches/batched_lanes counters keep
// their meaning, but a unit's lanes run independently.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "serve/protocol.hpp"

namespace graffix::serve {

/// Lanes one admission group may carry.
inline constexpr std::uint32_t kMaxBatchLanes = 32;

/// One published copy-on-write graph variant. Immutable after
/// construction; queries hold it by shared_ptr, so a superseded snapshot
/// is freed exactly when its last in-flight reader drains.
struct GraphSnapshot {
  std::string variant;
  std::uint64_t version = 0;
  Csr graph;
  /// Divergence-transform processing order (used by the simulated
  /// pagerank/bc runners); empty = slot order.
  std::vector<NodeId> warp_order;
  /// Edge-weight range, which sizes the SSSP kernel's bucket queue:
  /// the lightest positive weight (1 when there is none) and the
  /// heaviest weight (0 when unweighted).
  Weight min_positive_weight = 1.0F;
  Weight max_weight = 0.0F;

  /// Bytes this snapshot keeps resident (graph + order).
  [[nodiscard]] std::size_t resident_bytes() const;
};

[[nodiscard]] std::shared_ptr<const GraphSnapshot> make_snapshot(
    std::string variant, std::uint64_t version, Csr graph,
    std::vector<NodeId> warp_order);

/// Groups a wave of parsed requests into admission units, preserving
/// arrival order of unit leaders. `snapshot_of(i)` must return a stable
/// grouping key (the snapshot pointer) for wave index i.
///
/// Groupable: op Query with alg sssp/bfs — grouped by (snapshot, alg)
/// up to `max_lanes` lanes per unit. Everything else is a singleton.
[[nodiscard]] std::vector<std::vector<std::size_t>> form_units(
    std::span<const Request* const> wave,
    const std::function<const void*(std::size_t)>& snapshot_of,
    std::uint32_t max_lanes);

/// Per-query result. `values` aligns with the lane's echo nodes;
/// unreached vertices render as "inf" (SSSP) or -1 (BFS level).
struct LaneOutcome {
  bool expired = false;        // deadline fired mid-run; answer withheld
  std::uint64_t digest = 0;    // FNV-1a over the lane's full plane
  NodeId reached = 0;          // vertices with a finite value
  std::uint32_t rounds = 0;    // largest hop count over reached vertices
  std::vector<double> values;  // echo values, lane-local
};

struct MultiSourceOutcome {
  /// Always false: the host kernels share no engine, so nothing can be
  /// refused. Kept so existing callers compile unchanged.
  bool engine_busy = false;
  std::vector<LaneOutcome> lanes;
};

struct LaneSpec {
  NodeId source = 0;
  std::span<const NodeId> echo_nodes;
  /// Polled before the run, then every 256 SSSP vertex expansions or
  /// once per BFS level; true stops the lane and marks it expired.
  /// Null = no deadline.
  std::function<bool()> expired;
};

/// Runs one SSSP/BFS query on `snap.graph`. The source must be in range
/// and non-hole — validated by the caller.
[[nodiscard]] LaneOutcome run_single_source(const GraphSnapshot& snap,
                                            QueryAlg alg, const LaneSpec& lane);

/// Runs each lane through run_single_source as its own pool task (serially
/// when called from inside a parallel region). Lane k of the result
/// answers lanes[k]; every lane is a pure function of (graph, source).
[[nodiscard]] MultiSourceOutcome run_multi_source(const GraphSnapshot& snap,
                                                  QueryAlg alg,
                                                  std::span<const LaneSpec> lanes);

}  // namespace graffix::serve
