#include "serve/batcher.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/arena.hpp"
#include "util/macros.hpp"
#include "util/parallel.hpp"

namespace graffix::serve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Vertex expansions between deadline polls: a poll reads the clock, an
/// expansion costs tens of nanoseconds.
constexpr std::uint32_t kExpansionsPerPoll = 256;

/// Most buckets the SSSP ring may hold; past it the bucket width grows
/// and buckets may re-expand a vertex (still exact, just slower).
constexpr double kMaxRing = 1024.0;

bool poll_expired(const LaneSpec& lane) { return lane.expired && lane.expired(); }

/// Dijkstra keyed by (distance, hops) on a bucket queue (Dial's
/// algorithm): bucket b holds the vertices whose tentative distance lies
/// in [b * width, (b + 1) * width). With width = the lightest edge, no
/// edge leads back into the bucket being expanded, so buckets settle in
/// distance order like heap pops, at O(1) per queue operation. Any
/// improvement — shorter, or as short with fewer hops — re-queues the
/// vertex, so the result is the exact (distance, hops) fixpoint whatever
/// the width; a wider bucket only costs re-expansions. Returns the
/// largest hop count over reached vertices; sets `expired` instead when
/// the deadline fires.
std::uint32_t dijkstra_hops(const GraphSnapshot& snap, const LaneSpec& lane,
                            ArenaBuffer<double>& dist, bool& expired) {
  const Csr& graph = snap.graph;
  const auto offsets = graph.offsets();
  const auto targets = graph.targets();
  const auto weights = graph.weights();
  const double width = std::max(static_cast<double>(snap.min_positive_weight),
                                static_cast<double>(snap.max_weight) / kMaxRing);
  const double inv_width = 1.0 / width;
  auto bucket_of = [inv_width](double d) {
    return static_cast<std::uint64_t>(d * inv_width);
  };
  // A relaxation lands at most max_weight / width buckets (plus rounding)
  // past the one being expanded, so a ring that long never wraps onto a
  // live bucket.
  const auto ring_size =
      static_cast<std::size_t>(static_cast<double>(snap.max_weight) * inv_width) + 3;
  ArenaVector<ArenaVector<NodeId>> ring(ring_size);
  ArenaBuffer<std::uint32_t> hops(dist.size());
  ArenaBuffer<std::uint8_t> expanded(dist.size(), 0);
  hops[lane.source] = 0;
  ring[0].push_back(lane.source);
  std::size_t queued = 1;  // entries in the ring, stale ones included
  std::uint32_t expansions = 0;
  for (std::uint64_t b = 0; queued > 0; ++b) {
    ArenaVector<NodeId>& bucket = ring[b % ring_size];
    // FIFO by index: expansions may append to this very bucket.
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const NodeId u = bucket[i];
      --queued;
      // Stale: expanded since it was queued, or moved to an earlier bucket.
      if (expanded[u] != 0 || bucket_of(dist[u]) != b) continue;
      if (expansions++ % kExpansionsPerPoll == 0 && poll_expired(lane)) {
        expired = true;
        return 0;
      }
      expanded[u] = 1;
      const double du = dist[u];
      const std::uint32_t nh = hops[u] + 1;
      const EdgeId end = offsets[u + 1];
      for (EdgeId e = offsets[u]; e < end; ++e) {
        const NodeId v = targets[e];
        const double nd = du + static_cast<double>(weights[e]);
        const double old = dist[v];
        if (nd < old || (nd == old && nh < hops[v])) {
          dist[v] = nd;
          hops[v] = nh;
          const std::uint64_t nb = bucket_of(nd);
          GRAFFIX_DCHECK(nb >= b && nb - b < ring_size, "bucket %llu from %llu",
                         static_cast<unsigned long long>(nb),
                         static_cast<unsigned long long>(b));
          // A queued, unexpanded entry in the same bucket already
          // covers the new key.
          if (expanded[v] != 0 || old == kInf || bucket_of(old) != nb) {
            ring[nb % ring_size].push_back(v);
            ++queued;
          }
          expanded[v] = 0;
        }
      }
    }
    bucket.clear();
  }
  std::uint32_t rounds = 0;
  for (std::size_t v = 0; v < dist.size(); ++v) {
    if (dist[v] != kInf) rounds = std::max(rounds, hops[v]);
  }
  return rounds;
}

/// Level-synchronous frontier: each vertex's value is its BFS level.
/// Returns the last non-empty level; sets `expired` instead when the
/// deadline fires.
std::uint32_t bfs_levels(const Csr& graph, const LaneSpec& lane,
                         ArenaBuffer<double>& dist, bool& expired) {
  const auto offsets = graph.offsets();
  const auto targets = graph.targets();
  // Every vertex enters the queue at most once, so one slot-sized
  // buffer holds all levels back to back.
  ArenaBuffer<NodeId> queue(dist.size());
  queue[0] = lane.source;
  std::size_t head = 0;
  std::size_t tail = 1;
  std::uint32_t level = 0;
  while (true) {
    if (poll_expired(lane)) {
      expired = true;
      return 0;
    }
    const std::size_t level_end = tail;
    const double next = static_cast<double>(level + 1);
    for (; head < level_end; ++head) {
      const NodeId u = queue[head];
      const EdgeId end = offsets[u + 1];
      for (EdgeId e = offsets[u]; e < end; ++e) {
        const NodeId v = targets[e];
        if (dist[v] == kInf) {
          dist[v] = next;
          queue[tail++] = v;
        }
      }
    }
    if (tail == level_end) return level;
    ++level;
  }
}

}  // namespace

std::size_t GraphSnapshot::resident_bytes() const {
  return graph.memory_bytes() + warp_order.size() * sizeof(NodeId);
}

std::shared_ptr<const GraphSnapshot> make_snapshot(
    std::string variant, std::uint64_t version, Csr graph,
    std::vector<NodeId> warp_order) {
  auto snap = std::make_shared<GraphSnapshot>();
  snap->variant = std::move(variant);
  snap->version = version;
  snap->graph = std::move(graph);
  snap->warp_order = std::move(warp_order);
  Weight lo = kInfWeight;
  for (const Weight w : snap->graph.weights()) {
    if (w > 0.0F) lo = std::min(lo, w);
    snap->max_weight = std::max(snap->max_weight, w);
  }
  snap->min_positive_weight = lo == kInfWeight ? 1.0F : lo;
  return snap;
}

std::vector<std::vector<std::size_t>> form_units(
    std::span<const Request* const> wave,
    const std::function<const void*(std::size_t)>& snapshot_of,
    std::uint32_t max_lanes) {
  if (max_lanes == 0) max_lanes = 1;
  if (max_lanes > kMaxBatchLanes) max_lanes = kMaxBatchLanes;
  std::vector<std::vector<std::size_t>> units;
  // Open group per (snapshot, alg) key; a handful of live variants means
  // a linear scan beats any map here.
  struct Open {
    const void* snap;
    QueryAlg alg;
    std::size_t unit;
  };
  std::vector<Open> open;
  for (std::size_t i = 0; i < wave.size(); ++i) {
    const Request& req = *wave[i];
    const bool batchable =
        req.op == Op::Query &&
        (req.alg == QueryAlg::Sssp || req.alg == QueryAlg::Bfs);
    if (!batchable) {
      units.push_back({i});
      continue;
    }
    const void* snap = snapshot_of(i);
    Open* slot = nullptr;
    for (Open& o : open) {
      if (o.snap == snap && o.alg == req.alg) { slot = &o; break; }
    }
    if (slot != nullptr && units[slot->unit].size() < max_lanes) {
      units[slot->unit].push_back(i);
      continue;
    }
    units.push_back({i});
    if (slot != nullptr) {
      slot->unit = units.size() - 1;
    } else {
      open.push_back({snap, req.alg, units.size() - 1});
    }
  }
  return units;
}

LaneOutcome run_single_source(const GraphSnapshot& snap, QueryAlg alg,
                              const LaneSpec& lane) {
  const Csr& graph = snap.graph;
  ArenaBuffer<double> dist(graph.num_slots(), kInf);
  dist[lane.source] = 0.0;
  LaneOutcome out;
  out.rounds = alg == QueryAlg::Sssp && graph.has_weights()
                   ? dijkstra_hops(snap, lane, dist, out.expired)
                   : bfs_levels(graph, lane, dist, out.expired);
  if (out.expired) return out;
  out.digest = fnv1a64(dist.data(), dist.size() * sizeof(double));
  out.reached = static_cast<NodeId>(
      std::count_if(dist.begin(), dist.end(), [](double d) { return d != kInf; }));
  out.values.reserve(lane.echo_nodes.size());
  for (const NodeId n : lane.echo_nodes) out.values.push_back(dist[n]);
  return out;
}

MultiSourceOutcome run_multi_source(const GraphSnapshot& snap, QueryAlg alg,
                                    std::span<const LaneSpec> lanes) {
  MultiSourceOutcome out;
  out.lanes.resize(lanes.size());
  parallel_tasks(lanes.size(), [&](std::size_t k) {
    out.lanes[k] = run_single_source(snap, alg, lanes[k]);
  });
  return out;
}

}  // namespace graffix::serve
