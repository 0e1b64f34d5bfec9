// Incremental graph construction: collect (src, dst, weight) triples,
// then build() a sorted, optionally deduplicated Csr.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "util/types.hpp"

namespace graffix {

/// Edge triple used during construction and by the generators.
struct EdgeTriple {
  NodeId src;
  NodeId dst;
  Weight weight;
};

/// Chunk consumer for the streaming generator APIs (gen/*::emit_*):
/// receives consecutive spans of the edge stream. Concatenating every
/// span a sink sees reproduces the materializing generators' edge list
/// bit for bit, for any chunk size.
using EdgeSink = std::function<void(std::span<const EdgeTriple>)>;

class GraphBuilder {
 public:
  enum class Dedup {
    None,           // keep parallel edges
    KeepFirst,      // arbitrary (first in sorted order)
    KeepMinWeight,  // keep the cheapest parallel edge
  };

  explicit GraphBuilder(NodeId num_nodes) : num_nodes_(num_nodes) {}

  /// Pre-sizes the edge store. Generators and readers that know (or can
  /// bound) their edge count call this up front so add_edge/add_edges
  /// never copy-grows: one allocation instead of log2(m) doublings, and
  /// no 2x transient during the final growth step.
  void reserve_edges(std::size_t edges) { edges_.reserve(edges); }

  void add_edge(NodeId src, NodeId dst, Weight w = Weight{1});

  /// Bulk-append a pre-generated edge list (from the generators). Adopts
  /// the vector outright when the builder is empty; otherwise reserves
  /// the combined size before inserting.
  void add_edges(std::vector<EdgeTriple>&& edges);

  void set_weighted(bool weighted) { weighted_ = weighted; }
  void set_dedup(Dedup mode) { dedup_ = mode; }
  void set_drop_self_loops(bool drop) { drop_self_loops_ = drop; }

  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }
  [[nodiscard]] NodeId node_count() const { return num_nodes_; }

  /// Builds the Csr. The builder is consumed (edge storage released).
  [[nodiscard]] Csr build();

 private:
  NodeId num_nodes_;
  std::vector<EdgeTriple> edges_;
  bool weighted_ = false;
  bool drop_self_loops_ = false;
  Dedup dedup_ = Dedup::None;
};

}  // namespace graffix
