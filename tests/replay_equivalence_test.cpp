// Reference-walker oracle for the SIMT engine (DESIGN.md §7).
//
// The engine walks each live warp block once: one loop over the step's
// live lanes charges accounting and replays the functor, segment and
// bank indices are shifts and masks, and ungated sweeps over an
// invariant item list reuse their accounting. This file holds the naive
// walker that the engine must reproduce: every lane at every step,
// geometry by division, accounting and replay as separate passes over
// all blocks, hash-free containers. Engine and reference run the same
// sweep sequence on the same functor shape, and their KernelStats and
// attribute bits must be identical.
//
// The matrix covers transaction_bytes 32 and 128, Csr and
// IdealWarpPacked edge loads, global, shared and resident-cluster
// attributes, weighted and edges_resident sweeps, warp sizes 32 and 64,
// a partial tail warp and a fully gated-out block, over the Csr-ordered
// item list and over a shuffled (T3-like scattered) one whose walk reads
// the warp-order edge copy (sim::ItemEdges) while the reference reads
// the Csr. The shapes are the
// functors the algorithms use: min-merge (SSSP relax, BFS levels),
// sum-merge (PageRank push and pull), ordered absorb (BC backward), a
// Gauss-Seidel relaxation that reads its own same-sweep writes (where
// cross-block replay order is observable), and the runner's SSSP relax
// and BC forward with their scalar aggregates and append order.
//
// Accounting reuse is pinned against full walks, gated and ungated, as
// the live masks repeat and change; the engine's reentrancy guard by
// death tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/runners.hpp"
#include "gen/suite.hpp"
#include "graph/csr.hpp"
#include "sim/engine.hpp"
#include "util/bitset.hpp"

namespace graffix {
namespace {

/// The engine's semantics written the slow, obvious way. Gates all run
/// before any fn(); pass 1 charges accounting for every block, pass 2
/// replays every block through fn.
class ReferenceWalker {
 public:
  ReferenceWalker(const Csr& graph, sim::SimConfig config)
      : graph_(graph), config_(config) {}

  template <typename Gate, typename Fn>
  void sweep_gated(std::span<const sim::WorkItem> items,
                   const sim::SweepOptions& opts, Gate&& gate, Fn&& fn,
                   sim::KernelStats& st) {
    if (opts.charge_launch) st.sweeps += 1;
    std::vector<bool> gated_in(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      gated_in[i] = gate(items[i].src);
    }
    const std::uint32_t ws = config_.warp_size;
    const std::size_t n_blocks = (items.size() + ws - 1) / ws;
    for (std::size_t b = 0; b < n_blocks; ++b) {
      account(items, gated_in, opts, b, st);
    }
    for (std::size_t b = 0; b < n_blocks; ++b) {
      replay(items, gated_in, b, fn, st);
    }
  }

 private:
  [[nodiscard]] std::size_t lanes(std::span<const sim::WorkItem> items,
                                  std::size_t b) const {
    return std::min<std::size_t>(config_.warp_size,
                                 items.size() - b * config_.warp_size);
  }

  [[nodiscard]] NodeId steps(std::span<const sim::WorkItem> items,
                             const std::vector<bool>& gated_in,
                             std::size_t b) const {
    NodeId len = 0;
    for (std::size_t l = 0; l < lanes(items, b); ++l) {
      const std::size_t i = b * config_.warp_size + l;
      if (gated_in[i]) len = std::max(len, items[i].edge_count);
    }
    return len;
  }

  void account(std::span<const sim::WorkItem> items,
               const std::vector<bool>& gated_in,
               const sim::SweepOptions& opts, std::size_t b,
               sim::KernelStats& st) const {
    const NodeId len = steps(items, gated_in, b);
    if (len == 0) return;
    const std::uint64_t tx = config_.transaction_bytes;
    const std::uint64_t attr_bytes = config_.attr_bytes;
    const std::uint64_t edge_bytes = config_.edge_bytes;
    const auto targets = graph_.targets();
    st.warp_steps += len;
    st.lane_slots += std::uint64_t{len} * config_.warp_size;
    std::vector<std::uint64_t> last_edge_seg(config_.warp_size,
                                             ~std::uint64_t{0});
    for (NodeId j = 0; j < len; ++j) {
      std::uint64_t active = 0, edge_segs = 0, shared_hits = 0;
      std::vector<std::uint64_t> attr_segs;
      std::map<std::uint64_t, NodeId> bank_word;
      for (std::size_t l = 0; l < lanes(items, b); ++l) {
        const std::size_t i = b * config_.warp_size + l;
        const sim::WorkItem& item = items[i];
        if (!gated_in[i] || j >= item.edge_count) continue;
        ++active;
        const EdgeId e = item.edge_begin + j;
        const NodeId v = targets[e];
        if (opts.edge_mode == sim::EdgeLoadMode::Csr) {
          const std::uint64_t seg = (e * edge_bytes) / tx;
          if (seg != last_edge_seg[l]) {
            last_edge_seg[l] = seg;
            ++edge_segs;
          }
        }
        const bool resident_pair = !opts.resident.empty() &&
                                   opts.resident[item.src] != kInvalidNode &&
                                   opts.resident[item.src] == opts.resident[v];
        if (opts.attr_space == sim::AttrSpace::Shared || resident_pair) {
          ++shared_hits;
          const std::uint64_t bank = v % config_.shared_banks;
          const auto it = bank_word.find(bank);
          if (it != bank_word.end() && it->second != v) st.bank_conflicts += 1;
          bank_word[bank] = v;
        } else {
          const std::uint64_t seg = (std::uint64_t{v} * attr_bytes) / tx;
          if (std::find(attr_segs.begin(), attr_segs.end(), seg) ==
              attr_segs.end()) {
            attr_segs.push_back(seg);
          }
        }
      }
      if (opts.edge_mode == sim::EdgeLoadMode::IdealWarpPacked) edge_segs = 1;
      if (opts.weighted) edge_segs *= 2;
      if (opts.edges_resident) {
        st.shared_accesses += active;
        edge_segs = 0;
      }
      st.active_lanes += active;
      st.edge_transactions += edge_segs;
      st.attr_transactions += attr_segs.size();
      st.shared_accesses += shared_hits;
      st.attr_ideal_transactions +=
          ((active - shared_hits) * attr_bytes + tx - 1) / tx;
    }
  }

  template <typename Fn>
  void replay(std::span<const sim::WorkItem> items,
              const std::vector<bool>& gated_in, std::size_t b, Fn& fn,
              sim::KernelStats& st) const {
    const NodeId len = steps(items, gated_in, b);
    const auto targets = graph_.targets();
    const auto weights = graph_.weights();
    for (NodeId j = 0; j < len; ++j) {
      std::vector<NodeId> dsts;
      for (std::size_t l = 0; l < lanes(items, b); ++l) {
        const std::size_t i = b * config_.warp_size + l;
        const sim::WorkItem& item = items[i];
        if (!gated_in[i] || j >= item.edge_count) continue;
        const EdgeId e = item.edge_begin + j;
        const NodeId v = targets[e];
        const bool first_at_v =
            std::find(dsts.begin(), dsts.end(), v) == dsts.end();
        dsts.push_back(v);
        const Weight w = weights.empty() ? Weight{1} : weights[e];
        if (fn(item.src, v, w)) {
          st.atomic_commits += 1;
          if (!first_at_v) st.atomic_conflicts += 1;
        }
      }
    }
  }

  const Csr& graph_;
  sim::SimConfig config_;
};

NodeId busiest_node(const Csr& g) {
  NodeId best = 0, best_degree = 0;
  for (NodeId v = 0; v < g.num_slots(); ++v) {
    if (!g.is_hole(v) && g.degree(v) > best_degree) {
      best = v;
      best_degree = g.degree(v);
    }
  }
  return best;
}

/// Everything one functor-shape run must reproduce bit-for-bit.
struct SweepRun {
  sim::KernelStats stats;
  std::vector<double> attr;
};

void expect_same_run(const SweepRun& oracle, const SweepRun& got,
                     const std::string& what) {
  EXPECT_EQ(got.stats, oracle.stats) << what << ": stats differ";
  ASSERT_EQ(got.attr.size(), oracle.attr.size()) << what;
  EXPECT_EQ(std::memcmp(got.attr.data(), oracle.attr.data(),
                        got.attr.size() * sizeof(double)),
            0)
      << what << ": attribute bits differ";
}

/// Work list with a genuinely partial tail warp (3 items dropped) at
/// both warp sizes, and a gate window [dead_lo, dead_hi) covering one
/// full 64-lane block (two full 32-lane blocks) that stays dead for the
/// whole run. `resident` assigns most slots to 96-slot clusters.
/// `shuffled` is the same kind of list in a scattered order: every item
/// outside the dead window moves to a random position, so lanes of a
/// warp lie far apart in the Csr as under the divergence transform's
/// order, and the dead window still fills one block. Its edge copies
/// hold weights (`shuffled_edges`) or leave them to the Csr
/// (`shuffled_dsts`).
struct ShapeInputs {
  Csr graph;
  std::vector<sim::WorkItem> all_items;
  std::span<const sim::WorkItem> items;
  std::vector<sim::WorkItem> all_shuffled;
  std::span<const sim::WorkItem> shuffled;
  sim::ItemEdges shuffled_edges;
  sim::ItemEdges shuffled_dsts;
  std::vector<NodeId> resident;
  NodeId source = 0;
  NodeId dead_lo = 0;
  NodeId dead_hi = 0;
};

ShapeInputs make_inputs() {
  ShapeInputs in;
  in.graph = make_preset(GraphPreset::Rmat26, 11, 13);
  in.all_items = sim::items_all_vertices(in.graph);
  in.items = std::span<const sim::WorkItem>(in.all_items.data(),
                                            in.all_items.size() - 3);
  EXPECT_NE(in.items.size() % 32, 0u);  // tail warp genuinely partial
  EXPECT_NE(in.items.size() % 64, 0u);
  in.source = busiest_node(in.graph);
  // No holes in the preset, so slot == item index; avoid the source's
  // own block.
  const NodeId dead_b = (in.source / 64 == 5) ? 6 : 5;
  in.dead_lo = dead_b * 64;
  in.dead_hi = in.dead_lo + 64;
  bool dead_window_has_edges = false;
  for (NodeId u = in.dead_lo; u < in.dead_hi; ++u) {
    dead_window_has_edges = dead_window_has_edges || in.graph.degree(u) > 0;
  }
  EXPECT_TRUE(dead_window_has_edges);  // gating it out must skip work
  in.resident.assign(in.graph.num_slots(), kInvalidNode);
  for (NodeId s = 0; s < in.graph.num_slots(); ++s) {
    if (s % 4 != 3) in.resident[s] = s / 96;
  }
  in.all_shuffled = in.all_items;
  std::vector<std::size_t> moved;
  for (std::size_t i = 0; i < in.all_items.size(); ++i) {
    if (i < in.dead_lo || i >= in.dead_hi) moved.push_back(i);
  }
  std::vector<std::size_t> to = moved;
  std::mt19937 rng(7);
  std::shuffle(to.begin(), to.end(), rng);
  for (std::size_t k = 0; k < moved.size(); ++k) {
    in.all_shuffled[to[k]] = in.all_items[moved[k]];
  }
  in.shuffled = std::span<const sim::WorkItem>(in.all_shuffled.data(),
                                               in.all_shuffled.size() - 3);
  in.shuffled_edges = sim::copy_item_edges(in.graph, in.shuffled, true);
  in.shuffled_dsts = sim::copy_item_edges(in.graph, in.shuffled, false);
  EXPECT_FALSE(in.shuffled_edges.weight.empty());
  EXPECT_TRUE(in.shuffled_dsts.weight.empty());
  return in;
}

/// True for sources outside the dead window (composed into every gate).
bool live_src(const ShapeInputs& in, NodeId u) {
  return u < in.dead_lo || u >= in.dead_hi;
}

// --- the configuration matrix -----------------------------------------

enum class Attr { Global, Shared, Resident };

struct WalkConfig {
  std::uint32_t warp_size = 32;
  std::uint32_t transaction_bytes = 32;
  sim::EdgeLoadMode edge_mode = sim::EdgeLoadMode::Csr;
  Attr attr = Attr::Global;
  bool weighted = false;
  bool edges_resident = false;
  bool shuffled = false;  // walk in.shuffled through its edge copy

  [[nodiscard]] sim::SimConfig sim() const {
    sim::SimConfig c;
    c.warp_size = warp_size;
    c.transaction_bytes = transaction_bytes;
    return c;
  }

  [[nodiscard]] sim::SweepOptions options(const ShapeInputs& in) const {
    sim::SweepOptions o;
    o.edge_mode = edge_mode;
    o.attr_space = attr == Attr::Shared ? sim::AttrSpace::Shared
                                        : sim::AttrSpace::Global;
    if (attr == Attr::Resident) o.resident = in.resident;
    o.weighted = weighted;
    o.edges_resident = edges_resident;
    if (shuffled) {
      o.item_edges = weighted ? &in.shuffled_edges : &in.shuffled_dsts;
    }
    return o;
  }

  [[nodiscard]] std::span<const sim::WorkItem> items(
      const ShapeInputs& in) const {
    return shuffled ? in.shuffled : in.items;
  }

  [[nodiscard]] std::string describe() const {
    static const char* kAttr[] = {"global", "shared", "resident"};
    return " | ws=" + std::to_string(warp_size) +
           " tx=" + std::to_string(transaction_bytes) +
           (edge_mode == sim::EdgeLoadMode::Csr ? " csr" : " ideal") + " " +
           kAttr[static_cast<int>(attr)] + (weighted ? " weighted" : "") +
           (edges_resident ? " edges-resident" : "") +
           (shuffled ? " shuffled" : "");
  }
};

/// Every combination: 2 warp sizes x 2 segment sizes x 2 edge modes x
/// 3 attribute spaces x {plain, weighted, edges_resident} x {Csr order,
/// shuffled order}.
std::vector<WalkConfig> full_matrix() {
  std::vector<WalkConfig> out;
  for (const std::uint32_t ws : {32u, 64u}) {
    for (const std::uint32_t tx : {32u, 128u}) {
      for (const auto mode :
           {sim::EdgeLoadMode::Csr, sim::EdgeLoadMode::IdealWarpPacked}) {
        for (const Attr attr : {Attr::Global, Attr::Shared, Attr::Resident}) {
          for (int flags = 0; flags < 3; ++flags) {
            for (const bool shuffled : {false, true}) {
              out.push_back(
                  {ws, tx, mode, attr, flags == 1, flags == 2, shuffled});
            }
          }
        }
      }
    }
  }
  return out;
}

/// The default device and one that flips every knob, in both orders.
std::vector<WalkConfig> corner_matrix() {
  std::vector<WalkConfig> out;
  for (const bool shuffled : {false, true}) {
    out.push_back({32, 32, sim::EdgeLoadMode::Csr, Attr::Global, false, false,
                   shuffled});
    out.push_back({64, 128, sim::EdgeLoadMode::IdealWarpPacked,
                   Attr::Resident, true, false, shuffled});
  }
  return out;
}

/// Runs `shape` through the engine and the reference walker under every
/// config and compares the runs. `shape(walker, items, opts)` drives a
/// fresh walker through its whole sweep sequence. The reference ignores
/// opts.item_edges and reads the Csr.
template <typename Shape>
void expect_matches_reference(const ShapeInputs& in, const Shape& shape,
                              const char* name,
                              const std::vector<WalkConfig>& configs) {
  for (const WalkConfig& cfg : configs) {
    const sim::SweepOptions opts = cfg.options(in);
    const std::span<const sim::WorkItem> items = cfg.items(in);
    ReferenceWalker ref(in.graph, cfg.sim());
    const SweepRun oracle = shape(ref, items, opts);
    EXPECT_GT(oracle.stats.atomic_commits, 0u)
        << name << cfg.describe() << ": vacuous shape proves nothing";
    sim::Engine engine(in.graph, cfg.sim());
    expect_same_run(oracle, shape(engine, items, opts),
                    std::string(name) + cfg.describe());
  }
}

// --- the functor shapes ----------------------------------------------

/// SSSP-style Jacobi min-plus: relaxes next[] from a stable dist[]
/// snapshot.
auto minplus_shape(const ShapeInputs& in) {
  return [&in](auto& walker, std::span<const sim::WorkItem> items,
               const sim::SweepOptions& opts) {
    SweepRun r;
    std::vector<double> dist(in.graph.num_slots(),
                             std::numeric_limits<double>::infinity());
    dist[in.source] = 0.0;
    std::vector<double> next(dist);
    for (int s = 0; s < 3; ++s) {
      walker.sweep_gated(
          items, opts,
          [&](NodeId u) { return live_src(in, u) && std::isfinite(dist[u]); },
          [&](NodeId u, NodeId v, Weight w) {
            const double nd = dist[u] + static_cast<double>(w);
            if (nd < next[v]) {
              next[v] = nd;
              return true;
            }
            return false;
          },
          r.stats);
      dist = next;
    }
    r.attr = std::move(dist);
    return r;
  };
}

/// BFS-style Jacobi level merge: integer min into next_level[].
auto bfs_shape(const ShapeInputs& in) {
  return [&in](auto& walker, std::span<const sim::WorkItem> items,
               const sim::SweepOptions& opts) {
    constexpr std::uint32_t kUnset = 0xffffffffu;
    SweepRun r;
    std::vector<std::uint32_t> level(in.graph.num_slots(), kUnset);
    level[in.source] = 0;
    std::vector<std::uint32_t> next(level);
    for (int s = 0; s < 3; ++s) {
      walker.sweep_gated(
          items, opts,
          [&](NodeId u) { return live_src(in, u) && level[u] != kUnset; },
          [&](NodeId u, NodeId v, Weight) {
            const std::uint32_t nl = level[u] + 1;
            if (nl < next[v]) {
              next[v] = nl;
              return true;
            }
            return false;
          },
          r.stats);
      level = next;
    }
    r.attr.assign(level.begin(), level.end());
    return r;
  };
}

/// PageRank push: FP sum merged into next[v] — the per-target
/// accumulation ORDER is observable in the bits.
auto pr_push_shape(const ShapeInputs& in) {
  return [&in](auto& walker, std::span<const sim::WorkItem> items,
               const sim::SweepOptions& opts) {
    SweepRun r;
    const std::size_t n = in.graph.num_slots();
    std::vector<double> rank(n, 1.0 / static_cast<double>(n));
    std::vector<double> next(n, 0.15 / static_cast<double>(n));
    for (int s = 0; s < 2; ++s) {
      walker.sweep_gated(
          items, opts,
          [&](NodeId u) { return live_src(in, u) && in.graph.degree(u) > 0; },
          [&](NodeId u, NodeId v, Weight) {
            next[v] += 0.85 * rank[u] / static_cast<double>(in.graph.degree(u));
            return true;
          },
          r.stats);
      rank.swap(next);
      std::fill(next.begin(), next.end(), 0.15 / static_cast<double>(n));
    }
    r.attr = std::move(rank);
    return r;
  };
}

/// PageRank pull: FP sum merged into the SOURCE side (next[u] gathers
/// from stable rank[v]).
auto pr_pull_shape(const ShapeInputs& in) {
  return [&in](auto& walker, std::span<const sim::WorkItem> items,
               const sim::SweepOptions& opts) {
    SweepRun r;
    const std::size_t n = in.graph.num_slots();
    std::vector<double> rank(n, 1.0 / static_cast<double>(n));
    std::vector<double> next(n, 0.15 / static_cast<double>(n));
    for (int s = 0; s < 2; ++s) {
      walker.sweep_gated(
          items, opts, [&](NodeId u) { return live_src(in, u); },
          [&](NodeId u, NodeId v, Weight) {
            const NodeId deg = std::max<NodeId>(in.graph.degree(v), 1);
            next[u] += 0.85 * rank[v] / static_cast<double>(deg);
            return true;
          },
          r.stats);
      rank.swap(next);
      std::fill(next.begin(), next.end(), 0.15 / static_cast<double>(n));
    }
    r.attr = std::move(rank);
    return r;
  };
}

/// BC-backward-style ordered absorb: delta[u] accumulates sigma-weighted
/// contributions read from sweep-stable arrays (sigma, prev).
auto bc_absorb_shape(const ShapeInputs& in) {
  return [&in](auto& walker, std::span<const sim::WorkItem> items,
               const sim::SweepOptions& opts) {
    SweepRun r;
    const std::size_t n = in.graph.num_slots();
    std::vector<double> sigma(n), prev(n);
    for (std::size_t v = 0; v < n; ++v) {
      sigma[v] = 1.0 + static_cast<double>(in.graph.degree(
                           static_cast<NodeId>(v)));
      prev[v] = static_cast<double>((v * 2654435761u) & 0xff) / 256.0;
    }
    std::vector<double> delta(n, 0.0);
    walker.sweep_gated(
        items, opts, [&](NodeId u) { return live_src(in, u); },
        [&](NodeId u, NodeId v, Weight) {
          delta[u] += (sigma[u] / sigma[v]) * (1.0 + prev[v]);
          return true;
        },
        r.stats);
    r.attr = std::move(delta);
    return r;
  };
}

/// Gauss-Seidel relaxation: reads the SAME array it merges into, so
/// cross-block replay order is observable.
auto gauss_seidel_shape(const ShapeInputs& in) {
  return [&in](auto& walker, std::span<const sim::WorkItem> items,
               const sim::SweepOptions& opts) {
    SweepRun r;
    std::vector<double> dist(in.graph.num_slots(),
                             std::numeric_limits<double>::infinity());
    dist[in.source] = 0.0;
    for (int s = 0; s < 3; ++s) {
      walker.sweep_gated(
          items, opts,
          [&](NodeId u) { return live_src(in, u) && std::isfinite(dist[u]); },
          [&](NodeId u, NodeId v, Weight w) {
            const double nd = dist[u] + static_cast<double>(w);
            if (nd < dist[v]) {
              dist[v] = nd;
              return true;
            }
            return false;
          },
          r.stats);
    }
    r.attr = std::move(dist);
    return r;
  };
}

TEST(ReplayEquivalence, MinPlusMatchesSerialReplay) {
  const ShapeInputs in = make_inputs();
  expect_matches_reference(in, minplus_shape(in), "sssp-minplus",
                           full_matrix());
}

TEST(ReplayEquivalence, BfsLevelMatchesSerialReplay) {
  const ShapeInputs in = make_inputs();
  expect_matches_reference(in, bfs_shape(in), "bfs-level", corner_matrix());
}

TEST(ReplayEquivalence, PageRankPushSumMatchesSerialReplay) {
  const ShapeInputs in = make_inputs();
  expect_matches_reference(in, pr_push_shape(in), "pr-push-sum",
                           full_matrix());
}

TEST(ReplayEquivalence, PageRankPullSumMatchesSerialReplay) {
  const ShapeInputs in = make_inputs();
  expect_matches_reference(in, pr_pull_shape(in), "pr-pull-sum",
                           corner_matrix());
}

TEST(ReplayEquivalence, BcAbsorbMatchesSerialReplay) {
  const ShapeInputs in = make_inputs();
  expect_matches_reference(in, bc_absorb_shape(in), "bc-absorb",
                           full_matrix());
}

TEST(ReplayEquivalence, OrderSensitiveFunctorMatchesSerialReplay) {
  const ShapeInputs in = make_inputs();
  expect_matches_reference(in, gauss_seidel_shape(in), "gauss-seidel",
                           full_matrix());
}

// --- sweep-aggregate shapes -------------------------------------------

/// The runner's SSSP relax, aggregates included: the stall aggregates
/// (improvement sum 0, base sum 1), the discovery flag, and the changed
/// list — every value the driver's stall and frontier decisions read —
/// are folded into attr alongside the stall verdict evaluated at the
/// exact runner threshold. With `weighted == false` unit steps make
/// equal-length paths collide at the exact commit threshold
/// (nd == next[v]); those ties must be REJECTED identically, and sum 2
/// counts them so the tie case is proven to occur.
auto sssp_relax_aggregate_shape(const ShapeInputs& in, bool weighted) {
  return [&in, weighted](auto& walker, std::span<const sim::WorkItem> items,
                         const sim::SweepOptions& opts) {
    const double eps = weighted ? 1e-9 : 0.0;
    SweepRun r;
    const std::size_t n = in.graph.num_slots();
    std::vector<double> dist(n, std::numeric_limits<double>::infinity());
    dist[in.source] = 0.0;
    std::vector<double> next(dist);
    std::vector<NodeId> changed;
    AtomicBitset changed_mask(n);
    for (int s = 0; s < 3; ++s) {
      changed.clear();
      changed_mask.clear();
      double sum[3] = {0.0, 0.0, 0.0};
      bool discovered = false;
      walker.sweep_gated(
          items, opts,
          [&](NodeId u) { return live_src(in, u) && std::isfinite(dist[u]); },
          [&](NodeId u, NodeId v, Weight w) {
            const double step = weighted ? static_cast<double>(w) : 1.0;
            const double nd = dist[u] + step;
            if (nd < next[v] - eps * (1.0 + std::abs(nd))) {
              if (std::isfinite(next[v])) {
                sum[0] += next[v] - nd;
              } else {
                discovered = true;
              }
              sum[1] += 1.0 + std::abs(nd);
              next[v] = nd;
              if (changed_mask.set(v)) changed.push_back(v);
              return true;
            }
            if (nd == next[v]) sum[2] += 1.0;  // exact-threshold tie
            return false;
          },
          r.stats);
      r.attr.push_back(sum[0]);
      r.attr.push_back(sum[1]);
      r.attr.push_back(discovered ? 1.0 : 0.0);
      r.attr.push_back(sum[2]);
      // The runner's stall verdict, bit for bit: a one-ULP drift in the
      // sums could flip this comparison near the threshold.
      r.attr.push_back((!discovered &&
                        sum[0] < 100.0 * eps * std::max(1.0, sum[1]))
                           ? 1.0
                           : 0.0);
      r.attr.push_back(static_cast<double>(changed.size()));
      for (NodeId v : changed) r.attr.push_back(static_cast<double>(v));
      dist = next;
    }
    r.attr.insert(r.attr.end(), dist.begin(), dist.end());
    return r;
  };
}

/// The runner's BC forward: level-synchronous sigma sums with the next
/// frontier appended in discovery order. Each wave's frontier — size
/// AND contents — goes into attr, down to the empty final wave; then one
/// full-frontier sweep gates every slot in at once (dead window
/// included).
auto bc_forward_aggregate_shape(const ShapeInputs& in) {
  return [&in](auto& walker, std::span<const sim::WorkItem> items,
               const sim::SweepOptions& opts) {
    SweepRun r;
    const std::size_t n = in.graph.num_slots();
    std::vector<NodeId> level(n, kInvalidNode);
    std::vector<double> sigma(n, 0.0);
    level[in.source] = 0;
    sigma[in.source] = 1.0;
    NodeId depth = 0;
    std::vector<NodeId> frontier;
    auto forward = [&](NodeId u, NodeId v, Weight) {
      if (level[u] != depth) return false;
      if (level[v] == kInvalidNode) {
        level[v] = depth + 1;
        frontier.push_back(v);
      }
      if (level[v] == depth + 1) {
        sigma[v] += sigma[u];
        return true;
      }
      return false;
    };
    while (depth < static_cast<NodeId>(n)) {
      frontier.clear();
      walker.sweep_gated(
          items, opts,
          [&](NodeId u) { return live_src(in, u) && level[u] == depth; },
          forward, r.stats);
      r.attr.push_back(static_cast<double>(frontier.size()));
      for (NodeId v : frontier) r.attr.push_back(static_cast<double>(v));
      if (frontier.empty()) break;  // the empty-frontier exit decision
      ++depth;
    }
    frontier.clear();
    walker.sweep_gated(items, opts, sim::Ungated{}, forward, r.stats);
    r.attr.push_back(static_cast<double>(frontier.size()));
    for (NodeId v : frontier) r.attr.push_back(static_cast<double>(v));
    r.attr.insert(r.attr.end(), sigma.begin(), sigma.end());
    for (NodeId lv : level) r.attr.push_back(static_cast<double>(lv));
    return r;
  };
}

TEST(SweepAggregateEquivalence, SsspRelaxMatchesSerialReplay) {
  const ShapeInputs in = make_inputs();
  expect_matches_reference(in,
                           sssp_relax_aggregate_shape(in, /*weighted=*/true),
                           "sssp-relax-aggregates", corner_matrix());
}

TEST(SweepAggregateEquivalence, SsspRelaxTiesAtThresholdMatchSerialReplay) {
  const ShapeInputs in = make_inputs();
  const auto shape = sssp_relax_aggregate_shape(in, /*weighted=*/false);
  // The tie case must actually occur: each rejected exactly-at-threshold
  // candidate bumps sum 2 (attr slot 3 of some sweep).
  ReferenceWalker probe_walker(in.graph, sim::SimConfig{});
  const SweepRun probe =
      shape(probe_walker, in.items, sim::SweepOptions{});
  double ties = 0.0;
  std::size_t at = 0;
  for (int s = 0; s < 3; ++s) {
    ties += probe.attr[at + 3];
    at += 6 + static_cast<std::size_t>(probe.attr[at + 5]);
  }
  EXPECT_GT(ties, 0.0) << "no exact-threshold tie ever reached the functor";
  expect_matches_reference(in, shape, "sssp-relax-ties", corner_matrix());
}

TEST(SweepAggregateEquivalence, BcForwardFrontierMatchesSerialReplay) {
  const ShapeInputs in = make_inputs();
  expect_matches_reference(in, bc_forward_aggregate_shape(in),
                           "bc-forward-aggregates", corner_matrix());
}

// --- accounting reuse -------------------------------------------------

/// One sweep per entry of `gates` over `items` under `cfg`, through one
/// sweep_reusing accounting or as full walks, with `gate(g, u)` as sweep
/// g's gate (g == -1 is sim::Ungated). After each sweep, `blocks` gets
/// the accounting's {walked_blocks, reused_blocks}.
template <typename Gate, typename Step>
SweepRun gate_sequence(const ShapeInputs& in, const WalkConfig& cfg,
                       std::span<const sim::WorkItem> items, bool reuse,
                       const std::vector<int>& gates, Gate&& gate, Step&& step,
                       std::vector<std::pair<std::uint64_t, std::uint64_t>>*
                           blocks = nullptr) {
  SweepRun r;
  sim::Engine engine(in.graph, cfg.sim());
  const sim::SweepOptions opts = cfg.options(in);
  sim::SweepAccounting acc;
  std::vector<double> attr(in.graph.num_slots());
  for (NodeId s = 0; s < in.graph.num_slots(); ++s) attr[s] = s;
  for (const int g : gates) {
    auto fn = step(attr);
    const auto gate_g = [&gate, g](NodeId u) { return gate(g, u); };
    if (g < 0 && reuse) {
      engine.sweep_reusing(items, opts, fn, acc, r.stats);
    } else if (g < 0) {
      engine.sweep(items, opts, fn, r.stats);
    } else if (reuse) {
      engine.sweep_reusing(items, opts, gate_g, fn, acc, r.stats);
    } else {
      engine.sweep_gated(items, opts, gate_g, fn, r.stats);
    }
    if (blocks != nullptr) {
      blocks->push_back({acc.walked_blocks, acc.reused_blocks});
    }
  }
  r.attr = std::move(attr);
  return r;
}

/// N ungated sweeps over the config's item list.
template <typename Step>
SweepRun ungated_sweeps(const ShapeInputs& in, const WalkConfig& cfg,
                        bool reuse, int n, Step&& step) {
  return gate_sequence(in, cfg, cfg.items(in), reuse, std::vector<int>(n, -1),
                       [](int, NodeId) { return true; }, step);
}

/// PageRank push-sum: every lane commits, next[] sums in lane order.
auto push_sum_step(const ShapeInputs& in) {
  return [&in](std::vector<double>& rank) {
    return [&in, &rank](NodeId u, NodeId v, Weight) {
      rank[v] += 0.85 * rank[u] / static_cast<double>(in.graph.degree(u));
      return true;
    };
  };
}

/// MST-style min-label: commits only when the label drops, so commits
/// and conflicts shrink sweep over sweep while the accounting does not.
auto min_label_step() {
  return [](std::vector<double>& label) {
    return [&label](NodeId u, NodeId v, Weight) {
      if (label[u] < label[v]) {
        label[v] = label[u];
        return true;
      }
      return false;
    };
  };
}

template <typename Step>
void expect_reuse_matches_full_walks(const ShapeInputs& in, Step step,
                                     const char* name) {
  for (const WalkConfig& cfg : corner_matrix()) {
    const SweepRun full = ungated_sweeps(in, cfg, false, 4, step);
    const SweepRun reused = ungated_sweeps(in, cfg, true, 4, step);
    EXPECT_GT(full.stats.atomic_commits, 0u) << name;
    expect_same_run(full, reused, std::string(name) + cfg.describe());
  }
}

TEST(AccountingReuse, PushSumMatchesFullWalks) {
  const ShapeInputs in = make_inputs();
  expect_reuse_matches_full_walks(in, push_sum_step(in), "push-sum");
}

TEST(AccountingReuse, MinLabelMatchesFullWalks) {
  const ShapeInputs in = make_inputs();
  // The label shape must change its commit count between sweeps, or a
  // reuse that also froze the atomic counters would pass.
  const WalkConfig cfg;
  const SweepRun one = ungated_sweeps(in, cfg, false, 1, min_label_step());
  const SweepRun two = ungated_sweeps(in, cfg, false, 2, min_label_step());
  EXPECT_NE(two.stats.atomic_commits, 2 * one.stats.atomic_commits);
  expect_reuse_matches_full_walks(in, min_label_step(), "min-label");
}

using BlockCounts = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

TEST(AccountingReuse, GatedConstantMaskMatchesFullWalks) {
  // A gate that keeps the same lanes live every sweep — here the dead
  // window, which a gate-type key would never cover — walks its live
  // blocks once and replays them from the second sweep on, matching
  // full walks bit for bit.
  const ShapeInputs in = make_inputs();
  const auto gate = [&in](int, NodeId u) { return live_src(in, u); };
  std::uint64_t live_blocks = 0;
  for (std::size_t base = 0; base < in.all_items.size(); base += 32) {
    bool live = false;
    const std::size_t end = std::min(base + 32, in.all_items.size());
    for (std::size_t i = base; i < end; ++i) {
      live = live || (live_src(in, in.all_items[i].src) &&
                      in.all_items[i].edge_count > 0);
    }
    live_blocks += live ? 1 : 0;
  }
  const std::vector<int> gates(4, 0);
  for (const bool push : {true, false}) {
    const auto run = [&](bool reuse, BlockCounts* blocks) {
      const WalkConfig cfg;
      return push ? gate_sequence(in, cfg, in.all_items, reuse, gates, gate,
                                  push_sum_step(in), blocks)
                  : gate_sequence(in, cfg, in.all_items, reuse, gates, gate,
                                  min_label_step(), blocks);
    };
    BlockCounts blocks;
    const SweepRun full = run(false, nullptr);
    const SweepRun reused = run(true, &blocks);
    EXPECT_GT(full.stats.atomic_commits, 0u);
    expect_same_run(full, reused, push ? "gated push-sum" : "gated min-label");
    const BlockCounts want = {{live_blocks, 0},
                              {live_blocks, live_blocks},
                              {live_blocks, 2 * live_blocks},
                              {live_blocks, 3 * live_blocks}};
    EXPECT_EQ(blocks, want);
  }
}

TEST(AccountingReuse, MaskChangeRewalks) {
  // Over a list where every lane has edges, gate 0 keeps the even lanes
  // and gate 1 the odd ones, so every block's mask differs between them.
  // Masks A, B, A: all three walk every block in full (a block's record
  // holds its latest mask only). B, B: the first walks and re-records,
  // the second replays. Ungated then walks (its masks differ from B's),
  // and the next Ungated sweep replays without a prepass. Gate 2 — every
  // lane outside block 0 — replays all blocks but that dead one from the
  // ungated record, and a gated A after it must walk, not take the
  // ungated masks. A re-recorded every block, so the last Ungated sweep
  // must run its prepass again and walk.
  const ShapeInputs in = make_inputs();
  std::vector<sim::WorkItem> busy;
  for (const sim::WorkItem& item : in.all_items) {
    if (item.edge_count > 0) busy.push_back(item);
  }
  busy.resize(busy.size() - (busy.size() % 32 == 1 ? 2 : 0));  // tail >= 2
  std::vector<std::uint8_t> odd(in.graph.num_slots(), 0);
  std::vector<std::uint8_t> block0(in.graph.num_slots(), 0);
  for (std::size_t i = 0; i < busy.size(); ++i) {
    odd[busy[i].src] = i % 2;
    block0[busy[i].src] = i < 32;
  }
  const auto gate = [&](int g, NodeId u) {
    return g == 2 ? block0[u] == 0 : odd[u] == g;
  };
  const std::uint64_t n = (busy.size() + 31) / 32;
  const std::vector<int> gates = {0, 1, 0, 1, 1, -1, -1, 2, 0, -1};
  BlockCounts blocks;
  const WalkConfig cfg;
  const SweepRun full =
      gate_sequence(in, cfg, busy, false, gates, gate, push_sum_step(in));
  const SweepRun reused =
      gate_sequence(in, cfg, busy, true, gates, gate, push_sum_step(in), &blocks);
  expect_same_run(full, reused, "mask changes");
  const BlockCounts want = {{n, 0},         {2 * n, 0},         {3 * n, 0},
                            {4 * n, 0},     {4 * n, n},         {5 * n, n},
                            {5 * n, 2 * n}, {5 * n, 3 * n - 1}, {6 * n, 3 * n - 1},
                            {7 * n, 3 * n - 1}};
  EXPECT_EQ(blocks, want);
}

TEST(ItemEdgeCopy, CsrContiguousListBuildsNoCopy) {
  // Identity order — one item per slot, or Tigr-style split items — is
  // already laid out in the Csr: copying it would only cost memory.
  const ShapeInputs in = make_inputs();
  EXPECT_TRUE(sim::copy_item_edges(in.graph, in.all_items, true).empty());
  EXPECT_TRUE(sim::copy_item_edges(in.graph, in.items, true).empty());
  std::vector<sim::WorkItem> split;
  for (const sim::WorkItem& item : in.all_items) {
    for (NodeId off = 0; off < item.edge_count; off += 8) {
      split.push_back({item.src, item.edge_begin + off,
                       std::min<NodeId>(8, item.edge_count - off)});
    }
  }
  EXPECT_TRUE(sim::copy_item_edges(in.graph, split, false).empty());
  // A scattered list is copied: item i's edges sit at begin[i], in Csr
  // order, with weights when asked for.
  const sim::ItemEdges& copy = in.shuffled_edges;
  ASSERT_EQ(copy.begin.size(), in.shuffled.size());
  const auto targets = in.graph.targets();
  const auto weights = in.graph.weights();
  for (std::size_t i = 0; i < in.shuffled.size(); ++i) {
    const sim::WorkItem& item = in.shuffled[i];
    for (NodeId j = 0; j < item.edge_count; ++j) {
      ASSERT_EQ(copy.dst[copy.begin[i] + j], targets[item.edge_begin + j]);
      ASSERT_EQ(copy.weight[copy.begin[i] + j], weights[item.edge_begin + j]);
    }
  }
  EXPECT_TRUE(
      std::ranges::equal(in.shuffled_dsts.dst.span(), copy.dst.span()));
}

TEST(AccountingReuseDeathTest, OtherItemListDies) {
  // A frontier list is never the recorded one: sweep_reusing refuses to
  // add stale accounting for it.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const ShapeInputs in = make_inputs();
  const auto reuse_on_frontier = [&] {
    sim::Engine engine(in.graph, sim::SimConfig{});
    sim::SweepAccounting acc;
    sim::KernelStats stats;
    const auto fn = [](NodeId, NodeId, Weight) { return false; };
    engine.sweep_reusing(in.all_items, {}, fn, acc, stats);
    const std::vector<sim::WorkItem> frontier(in.all_items.begin(),
                                              in.all_items.begin() + 100);
    engine.sweep_reusing(frontier, {}, fn, acc, stats);
  };
  EXPECT_DEATH(reuse_on_frontier(), "recorded for another item list");
}

/// Per-iteration KernelStats deltas of a traced run, from the second
/// iteration on (the first also carries the run's setup kernels).
std::vector<sim::KernelStats> iteration_deltas(const core::RunOutput& out) {
  std::vector<sim::KernelStats> deltas;
  for (std::size_t i = 1; i < out.trace.size(); ++i) {
    const sim::KernelStats& prev = out.trace[i - 1].stats;
    sim::KernelStats d = out.trace[i].stats;
    d.warp_steps -= prev.warp_steps;
    d.active_lanes -= prev.active_lanes;
    d.attr_transactions -= prev.attr_transactions;
    deltas.push_back(d);
  }
  return deltas;
}

TEST(AccountingReuse, GatedAndFrontierDriverSweepsWalkInFull) {
  // SSSP's topology-driven sweeps are gated over the driver's cached
  // warp-order list and its data-driven sweeps run over frontiers; both
  // must be walked in full every iteration. Replayed accounting would
  // repeat the first iteration's active lanes every iteration.
  const Csr g = make_preset(GraphPreset::Rmat26, 11, 13);
  for (const auto baseline : {baselines::BaselineId::TopologyDriven,
                              baselines::BaselineId::GunrockLike}) {
    core::RunConfig rc;
    rc.baseline = baseline;
    rc.collect_trace = true;
    rc.sssp_source = busiest_node(g);
    const core::RunOutput out = core::run_algorithm(core::Algorithm::SSSP, g, rc);
    const auto deltas = iteration_deltas(out);
    ASSERT_GE(deltas.size(), 3u);
    bool varies = false;
    for (std::size_t i = 1; i < deltas.size(); ++i) {
      varies = varies || deltas[i].active_lanes != deltas[0].active_lanes;
    }
    EXPECT_TRUE(varies) << baselines::baseline_name(baseline);
  }
  // PageRank's ungated sweeps over the cached list do reuse it: every
  // iteration charges the same accounting.
  core::RunConfig rc;
  rc.collect_trace = true;
  const auto deltas =
      iteration_deltas(core::run_algorithm(core::Algorithm::PR, g, rc));
  ASSERT_GE(deltas.size(), 3u);
  for (std::size_t i = 1; i < deltas.size(); ++i) {
    EXPECT_EQ(deltas[i].active_lanes, deltas[0].active_lanes);
    EXPECT_EQ(deltas[i].attr_transactions, deltas[0].attr_transactions);
  }
}

// --- reentrancy guard ---------------------------------------------------

TEST(EngineReentrancy, SequentialSharingWorks) {
  // Two logical drivers issuing sweeps on ONE engine strictly in turn is
  // legal: the per-sweep scratch is quiescent between sweeps. This is
  // the "work" half of "work or die loudly".
  const Csr g = make_preset(GraphPreset::Rmat26, 10, 13);
  const auto items = sim::items_all_vertices(g);
  sim::Engine engine(g, sim::SimConfig{});
  sim::SweepOptions opts;
  opts.weighted = g.has_weights();
  sim::KernelStats a_stats, b_stats;
  std::vector<double> a_attr(g.num_slots(), 0.0), b_attr(g.num_slots(), 0.0);
  for (int s = 0; s < 2; ++s) {
    engine.sweep(
        items, opts,
        [&](NodeId u, NodeId v, Weight) {
          a_attr[v] += a_attr[u] + 1.0;
          return true;
        },
        a_stats);
    engine.sweep(
        items, opts,
        [&](NodeId u, NodeId v, Weight) {
          b_attr[v] += b_attr[u] + 2.0;
          return true;
        },
        b_stats);
  }
  EXPECT_GT(a_stats.atomic_commits, 0u);
  EXPECT_EQ(a_stats.atomic_commits, b_stats.atomic_commits);
}

TEST(EngineReentrancyDeathTest, NestedSweepDiesLoudly) {
  // A functor (or gate) that drives another sweep on the SAME engine
  // would silently corrupt the block metadata and sweep scratch; it must
  // abort with a diagnostic naming the contract. Threadsafe style: the
  // worker pool may hold live threads by the time this test forks, and
  // "fast" style forbids that.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const Csr g = make_preset(GraphPreset::Rmat26, 10, 13);
  const auto items = sim::items_all_vertices(g);
  const auto nested = [&] {
    sim::Engine engine(g, sim::SimConfig{});
    sim::SweepOptions opts;
    opts.weighted = g.has_weights();
    sim::KernelStats outer;
    sim::KernelStats inner;
    engine.sweep(
        items, opts,
        [&](NodeId, NodeId, Weight) {
          engine.sweep(items, opts,
                       [](NodeId, NodeId, Weight) { return false; }, inner);
          return false;
        },
        outer);
  };
  EXPECT_DEATH(nested(), "re-entered mid-sweep");
}

TEST(EngineReentrancyDeathTest, NestedGateSweepDiesLoudly) {
  // Same contract from the gate side: gates run during the prepass,
  // where a nested sweep would overwrite the block metadata being built.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const Csr g = make_preset(GraphPreset::Rmat26, 10, 13);
  const auto items = sim::items_all_vertices(g);
  const auto nested_gate = [&] {
    sim::Engine engine(g, sim::SimConfig{});
    sim::SweepOptions opts;
    opts.weighted = g.has_weights();
    sim::KernelStats outer;
    sim::KernelStats inner;
    engine.sweep_gated(
        items, opts,
        [&](NodeId) {
          engine.sweep(items, opts,
                       [](NodeId, NodeId, Weight) { return false; }, inner);
          return true;
        },
        [](NodeId, NodeId, Weight) { return false; }, outer);
  };
  EXPECT_DEATH(nested_gate(), "re-entered mid-sweep");
}

}  // namespace
}  // namespace graffix
