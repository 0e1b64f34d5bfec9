#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace graffix::sim {

Engine::Engine(const Csr& graph, SimConfig config)
    : graph_(&graph), config_(config) {
  GRAFFIX_CHECK(config_.warp_size > 0 && config_.warp_size <= 64,
                "warp size %u", config_.warp_size);
  GRAFFIX_CHECK(std::has_single_bit(config_.transaction_bytes) &&
                    std::has_single_bit(config_.attr_bytes) &&
                    std::has_single_bit(config_.edge_bytes) &&
                    std::has_single_bit(config_.shared_banks),
                "SimConfig geometry must be powers of two (transaction_bytes "
                "%u, attr_bytes %u, edge_bytes %u, shared_banks %u)",
                config_.transaction_bytes, config_.attr_bytes,
                config_.edge_bytes, config_.shared_banks);
  seg_shift_ =
      static_cast<std::uint32_t>(std::countr_zero(config_.transaction_bytes));
  edge_shift_ = static_cast<std::uint32_t>(std::countr_zero(config_.edge_bytes));
  attr_shift_ = static_cast<std::uint32_t>(std::countr_zero(config_.attr_bytes));
  bank_mask_ = config_.shared_banks - 1;
}

void Engine::charge_uniform_kernel(std::uint64_t n_items, double tx_per_item,
                                   KernelStats& stats) const {
  if (n_items == 0) return;
  stats.sweeps += 1;
  const std::uint32_t ws = config_.warp_size;
  const std::uint64_t steps = (n_items + ws - 1) / ws;
  stats.warp_steps += steps;
  stats.lane_slots += steps * ws;
  stats.active_lanes += n_items;
  stats.aux_ops += n_items;
  // Uniform streaming access: perfectly coalesced. Ceil, not round: a
  // partial trailing segment still occupies a full bus transaction, and
  // a kernel that touches any bytes owes at least one.
  const double bytes =
      static_cast<double>(n_items) * tx_per_item * config_.attr_bytes;
  const auto tx = static_cast<std::uint64_t>(
      std::ceil(bytes / config_.transaction_bytes));
  stats.attr_transactions += tx;
  stats.attr_ideal_transactions += tx;
}

std::vector<WorkItem> items_per_vertex(const Csr& graph,
                                       std::span<const NodeId> slots) {
  std::vector<WorkItem> items;
  items.reserve(slots.size());
  for (NodeId s : slots) {
    items.push_back({s, graph.edge_begin(s), graph.degree(s)});
  }
  return items;
}

std::vector<WorkItem> items_all_vertices(const Csr& graph) {
  std::vector<WorkItem> items;
  items.reserve(graph.num_nodes());
  const NodeId slots = graph.num_slots();
  for (NodeId s = 0; s < slots; ++s) {
    if (graph.is_hole(s)) continue;
    items.push_back({s, graph.edge_begin(s), graph.degree(s)});
  }
  return items;
}

ItemEdges copy_item_edges(const Csr& graph, std::span<const WorkItem> items,
                          bool weighted) {
  ItemEdges copy;
  EdgeId total = 0;
  bool contiguous = true;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0 && items[i].edge_begin !=
                     items[i - 1].edge_begin + items[i - 1].edge_count) {
      contiguous = false;
    }
    total += items[i].edge_count;
  }
  if (contiguous) return copy;
  const auto targets = graph.targets();
  const auto weights = graph.weights();
  const bool with_weights = weighted && !weights.empty();
  copy.begin = MappedArray<EdgeId>(items.size());
  copy.dst = MappedArray<NodeId>(total);
  if (with_weights) copy.weight = MappedArray<Weight>(total);
  EdgeId at = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const WorkItem& item = items[i];
    copy.begin[i] = at;
    std::copy_n(targets.data() + item.edge_begin, item.edge_count,
                copy.dst.data() + at);
    if (with_weights) {
      std::copy_n(weights.data() + item.edge_begin, item.edge_count,
                  copy.weight.data() + at);
    }
    at += item.edge_count;
  }
  return copy;
}

}  // namespace graffix::sim
