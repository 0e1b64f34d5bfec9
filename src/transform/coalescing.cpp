#include "transform/coalescing.hpp"

#include "transform/validate.hpp"

namespace graffix::transform {

CoalescingResult coalescing_transform(const Csr& graph,
                                      const CoalescingKnobs& knobs) {
  CoalescingResult result;
  result.renumber = renumber_bfs_forest(graph, knobs.chunk_size);
  Csr renumbered = apply_renumbering(graph, result.renumber);
  check_transform_phase("coalescing/renumber", renumbered);

  ReplicationResult rep =
      replicate_into_holes(renumbered, result.renumber, knobs);
  result.graph = std::move(rep.graph);
  result.replicas = std::move(rep.replicas);
  result.edges_moved = rep.edges_moved;
  result.edges_added = rep.edges_added;
  result.holes_total = rep.holes_total;
  result.holes_filled = rep.holes_filled;
  result.greedy_seconds = rep.greedy_seconds;
  check_transform_phase("coalescing/replicate", result.graph,
                        &result.replicas);

  const double before = static_cast<double>(graph.memory_bytes());
  const double after = static_cast<double>(result.graph.memory_bytes());
  result.extra_space_fraction = before == 0.0 ? 0.0 : (after - before) / before;
  return result;
}

}  // namespace graffix::transform
