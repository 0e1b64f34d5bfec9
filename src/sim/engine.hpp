// Lockstep SIMT engine.
//
// Executes vertex-centric push sweeps over a Csr the way a GPU warp
// would: items are packed into warps of warp_size lanes; the warp steps
// through neighbor position j = 0..max_item_len-1 in lockstep; at each
// step the engine records which lanes are active (divergence), groups the
// lanes' edge-array and node-attribute byte addresses into
// transaction_bytes segments (coalescing), and invokes the caller's edge
// functor, which performs the *functional* update and reports whether it
// committed (atomic traffic).
//
// A sweep is one gate prepass and one walk (DESIGN.md §7):
//
//   Gate prepass — an O(items) pass evaluates every lane's gate and
//   records each warp block's live lanes (gated in, edge_count > 0) and
//   longest live item. Every gate fires before any fn() runs.
//
//   Walk — each live block, in ascending block order, steps through its
//   positions once. One loop over the step's live lanes (a bitmask,
//   visited in ascending countr_zero order: the order bank conflicts and
//   commit conflicts depend on) charges the lane's edge segment,
//   attribute segment or shared hit and bank conflict, then calls fn and
//   charges the commit and any same-destination conflict. A lane's bit
//   clears after its last edge, so the walk costs O(active lanes), not
//   O(warp steps x warp size).
//
// The walk is serial in warp/lane order. Functors may read state written
// by earlier commits of the same sweep (Bellman-Ford-style propagation),
// so commits and all functional state are those of a plain serial GPU
// emulation, at every thread count.
//
// Geometry (transaction_bytes, attr_bytes, edge_bytes, shared_banks) must
// be powers of two: segment and bank indices are shifts and masks, and
// the constructor checks this.
//
// Accounting reuse: every counter a block's walk charges, except
// atomic_commits and atomic_conflicts, depends only on (graph, items,
// options) and on the block's live-lane mask, which the gate prepass
// records. So sweep_reusing() keeps, in a caller-owned SweepAccounting,
// each warp block's counters from its last full walk, keyed on the mask
// it was walked with: a live block whose mask matches its record adds
// the stored counters and is walked replay-only (fn plus commit/conflict
// charging); a block with any other mask is walked in full and
// re-recorded. The key is the mask, not the gate type, so gated sweeps
// reuse wherever their live lanes repeat — a frontier that has stopped
// changing in a block, a gate that is constant — and no gate has to
// promise anything. An Ungated sweep over a list recorded ungated skips
// the prepass too: its masks cannot change. A full walk also records
// the span of steps where two live lanes share a destination; the
// replay keeps its destination set only there, since elsewhere no
// commit can conflict. The caller keeps the options of one
// SweepAccounting fixed; the engine checks the item list's identity.
//
// Warp-order edge copy: SweepOptions::item_edges may point the walk at
// an ItemEdges copy of the items' (dst, weight) pairs laid out in item
// order, so a walk over a scattered order (the divergence transform's
// regrouped warps, §2.5) reads each block's edges from one contiguous
// run instead of from lanes far apart in the Csr. The copy changes where
// the host reads, not what the model charges: edge-segment accounting
// still takes the items' Csr offsets.
//
// Contract for gates: a gate may not depend on commits made by this
// sweep's functor — the prepass evaluates every gate before the walk
// runs any fn(). All in-repo gates qualify (SSSP gates on a snapshot,
// BC's level==depth can never be produced by a same-sweep write of
// depth+1, SCC flags are not written mid-propagation).
//
// A single Engine instance is not thread-safe; use one engine per thread
// of control (forked drivers each own one). A sweep that re-enters the
// same engine (e.g. a functor driving another sweep) dies loudly on the
// in-sweep guard instead of silently corrupting the per-sweep scratch.
//
// This is the substitution substrate for the paper's K40c — see DESIGN.md.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "graph/csr.hpp"
#include "sim/config.hpp"
#include "sim/stats.hpp"
#include "sim/work.hpp"
#include "util/arena.hpp"
#include "util/macros.hpp"

namespace graffix::sim {

/// The constant-true gate: every lane with edges is live. An Ungated
/// sweep's live masks are fixed by its item list, so sweep_reusing()
/// skips its gate prepass once the masks are recorded.
struct Ungated {
  constexpr bool operator()(NodeId /*src*/) const { return true; }
};

/// A warp-order copy of the edges an item list covers (see the file
/// comment): item i's (dst, weight) pairs sit contiguously at
/// [begin[i], begin[i] + edge_count). Built by copy_item_edges(). Page
/// mapped: a copy lives as long as its run and is several MiB, so it
/// goes back to the OS with the run instead of staying in the heap.
struct ItemEdges {
  MappedArray<EdgeId> begin;
  MappedArray<NodeId> dst;
  /// Empty when the copy was built unweighted: the walk then reads
  /// weights from the Csr.
  MappedArray<Weight> weight;

  [[nodiscard]] bool empty() const { return begin.empty(); }
};

/// Per-sweep options.
struct SweepOptions {
  EdgeLoadMode edge_mode = EdgeLoadMode::Csr;
  AttrSpace attr_space = AttrSpace::Global;
  /// Edge/weight arrays already staged into shared memory (cluster inner
  /// iterations after the first): edge traffic becomes shared accesses.
  bool edges_resident = false;
  /// Cluster residency: resident[slot] == cluster id, kInvalidNode if not
  /// resident. When src and dst share a cluster the attribute access is
  /// served from shared memory (the latency technique's effect, §3).
  std::span<const NodeId> resident = {};
  /// Count a weights-array stream alongside the edges array.
  bool weighted = false;
  /// Whether this sweep is its own kernel launch. Cluster inner
  /// iterations run inside one launch and set this to false.
  bool charge_launch = true;
  /// Warp-order copy of exactly this sweep's items' edges, or null to
  /// read them from the Csr. Host locality only: no counter changes.
  const ItemEdges* item_edges = nullptr;
};

/// Epoch-stamped open-addressed key set for one warp step. Bumping the
/// owner's epoch empties it in O(1). Capacity is a power of two >=
/// 4*warp_size, so it can never fill from <= warp_size inserts a step.
struct StepKeySet {
  ArenaVector<std::uint64_t> key;
  ArenaVector<std::uint64_t> stamp;
  std::uint32_t mask = 0;

  /// Resizes for `warp_size` lanes; returns true when the table was
  /// rebuilt (its stamps are then all zero).
  bool ensure(std::uint32_t warp_size) {
    std::uint32_t cap = 4;
    while (cap < 4 * warp_size) cap *= 2;
    if (key.size() == cap) return false;
    key.assign(cap, 0);
    stamp.assign(cap, 0);
    mask = cap - 1;
    return true;
  }

  /// Returns true if `k` is new this epoch, false if already present.
  /// Stamps start at 0 and the epoch is pre-incremented per step, so
  /// zero-filled tables are never falsely valid.
  bool insert(std::uint64_t k, std::uint64_t epoch) {
    std::uint64_t h = k * 0x9e3779b97f4a7c15ull;
    h ^= h >> 29;
    std::uint32_t slot = static_cast<std::uint32_t>(h) & mask;
    while (true) {
      if (stamp[slot] != epoch) {
        stamp[slot] = epoch;
        key[slot] = k;
        return true;
      }
      if (key[slot] == k) return false;
      slot = (slot + 1) & mask;
    }
  }
};

/// The engine's sweep scratch. Bank words and both key sets are stamped
/// with one per-step epoch. The attribute-segment set and the
/// destination set are both live in the same lane loop, so each has its
/// own table.
struct SweepScratch {
  // Arena-pooled (ArenaVector): short-lived engines hand the blocks to
  // the next Engine instead of round-tripping through the kernel
  // allocator (DESIGN.md §9).
  ArenaVector<std::uint64_t> lane_edge_seg;
  ArenaVector<NodeId> lane_res;         // per-lane source residency cluster
  ArenaVector<const NodeId*> lane_dst;  // per-lane first destination read
  ArenaVector<const Weight*> lane_w;    // per-lane first weight read
  ArenaVector<NodeId> bank_word;
  ArenaVector<std::uint64_t> bank_epoch;
  StepKeySet segs;  // the step's distinct attribute segments
  StepKeySet dsts;  // the step's destinations (commit conflicts)
  std::uint64_t epoch = 0;

  void ensure(std::uint32_t warp_size, std::uint32_t banks) {
    if (lane_edge_seg.size() != warp_size) {
      lane_edge_seg.assign(warp_size, ~std::uint64_t{0});
      lane_res.assign(warp_size, kInvalidNode);
      lane_dst.assign(warp_size, nullptr);
      lane_w.assign(warp_size, nullptr);
    }
    bool rewound = false;
    if (bank_word.size() != banks) {
      bank_word.assign(banks, kInvalidNode);
      bank_epoch.assign(banks, 0);
      rewound = true;
    }
    rewound = segs.ensure(warp_size) || rewound;
    rewound = dsts.ensure(warp_size) || rewound;
    if (rewound) {
      // Rewinding the epoch invalidates the stamps of EVERY table, not
      // just the one that was resized: a stale stamp left at e.g. 1
      // would read as valid the moment the rewound epoch reaches 1
      // again (false "already present" segments undercount attr
      // transactions; false bank hits overcount conflicts).
      epoch = 0;
      std::fill(bank_epoch.begin(), bank_epoch.end(), 0);
      std::fill(segs.stamp.begin(), segs.stamp.end(), 0);
      std::fill(dsts.stamp.begin(), dsts.stamp.end(), 0);
    }
  }
};

/// Per-block metadata recorded by the gate prepass.
struct BlockMeta {
  std::uint64_t live;  // lane l is live (gated in, edge_count > 0) iff bit l
  NodeId max_len;      // longest live item (warp step count)

  bool operator==(const BlockMeta&) const = default;
};

/// Steps [begin, end) of a block's walk hold every step at which two
/// live lanes target the same destination. Outside them no commit can
/// conflict, so a replay-only walk needs no destination set there.
struct DupSteps {
  NodeId begin = 0;
  NodeId end = 0;
};

/// What one full walk of a warp block charged: every counter but sweeps,
/// aux_ops, atomic_commits and atomic_conflicts, and its DupSteps.
struct BlockRecord {
  KernelStats counters;
  DupSteps dups;
};

/// Per warp block of one item list, the record of the block's last full
/// walk and the live mask it was walked with: kept and reused by
/// sweep_reusing(). Owned by the caller that owns the item list, one per
/// (engine, list, options).
struct SweepAccounting {
  ArenaVector<BlockMeta> blocks;  // each block's mask at its last full walk
  ArenaVector<BlockRecord> records;  // what that walk charged
  const WorkItem* items = nullptr;   // the item list; null until recorded
  std::size_t n_items = 0;
  bool ungated = false;  // `blocks` hold the list's ungated masks
  std::uint64_t walked_blocks = 0;  // live blocks walked in full so far
  std::uint64_t reused_blocks = 0;  // live blocks replayed so far
};

class Engine {
 public:
  /// Dies unless the warp size is 1..64 and the memory geometry is
  /// powers of two (see the file comment).
  Engine(const Csr& graph, SimConfig config);

  [[nodiscard]] const SimConfig& config() const { return config_; }
  [[nodiscard]] const Csr& graph() const { return *graph_; }

  /// Runs one lockstep sweep over `items`. For every edge (u -> v, w)
  /// covered by an item, calls fn(u, v, w) -> bool; true means the lane
  /// committed an atomic update to v's attribute.
  ///
  /// Functional state lives entirely in the caller; the engine only
  /// observes addresses and commit flags.
  template <typename EdgeFn>
  void sweep(std::span<const WorkItem> items, const SweepOptions& opts,
             EdgeFn&& fn, KernelStats& stats) {
    sweep_blocks(items, opts, Ungated{}, fn, nullptr, stats);
  }

  /// sweep() with per-source gating: lanes whose gate(src) is false idle
  /// for the whole item (they still occupy lane slots — that idling IS
  /// thread divergence — but issue no memory traffic), exactly like a
  /// kernel thread that loads its vertex's state, finds nothing to do,
  /// and falls through. The gate's own coalesced state load is charged
  /// by the caller as a uniform kernel. See the file comment for the
  /// gate contract.
  template <typename Gate, typename EdgeFn>
  void sweep_gated(std::span<const WorkItem> items, const SweepOptions& opts,
                   Gate&& gate, EdgeFn&& fn, KernelStats& stats) {
    sweep_blocks(items, opts, gate, fn, nullptr, stats);
  }

  /// sweep_gated() with accounting reuse over a list swept many times:
  /// each live block whose mask `acc` recorded adds the recorded counters
  /// and is walked replay-only; every other live block is walked in full
  /// and recorded into `acc`. Every call with one `acc` must pass the
  /// same `items` span and options. Stats and functional state are
  /// identical to calling sweep_gated() every time.
  template <typename Gate, typename EdgeFn>
  void sweep_reusing(std::span<const WorkItem> items, const SweepOptions& opts,
                     Gate&& gate, EdgeFn&& fn, SweepAccounting& acc,
                     KernelStats& stats) {
    sweep_blocks(items, opts, gate, fn, &acc, stats);
  }

  /// Ungated sweep_reusing().
  template <typename EdgeFn>
  void sweep_reusing(std::span<const WorkItem> items, const SweepOptions& opts,
                     EdgeFn&& fn, SweepAccounting& acc, KernelStats& stats) {
    sweep_blocks(items, opts, Ungated{}, fn, &acc, stats);
  }

  /// Charges a uniform auxiliary kernel (confluence merges, frontier
  /// filters): n items, each touching `tx_per_item` global words.
  void charge_uniform_kernel(std::uint64_t n_items, double tx_per_item,
                             KernelStats& stats) const;

 private:
  /// The gate prepass (unless `acc` already holds the list's ungated
  /// masks), then one walk over every live block in ascending block
  /// order: replay-only where `acc` holds the block's mask, in full
  /// otherwise (recording into `acc` when there is one).
  template <typename Gate, typename EdgeFn>
  void sweep_blocks(std::span<const WorkItem> items, const SweepOptions& opts,
                    Gate&& gate, EdgeFn& fn, SweepAccounting* acc,
                    KernelStats& stats) {
    if (opts.charge_launch) stats.sweeps += 1;
    if (items.empty()) return;
    // The per-sweep scratch (block_meta_, scratch_) is shared mutable
    // state: a nested sweep on the same engine — a functor or gate
    // driving another sweep, or two drivers sharing one engine across
    // threads — would corrupt it silently. Die loudly instead
    // (GRAFFIX_CHECK is always on; the flag costs two writes per sweep).
    GRAFFIX_CHECK(!in_sweep_,
                  "Engine::sweep_gated re-entered mid-sweep: an Engine is "
                  "not reentrant — use one engine per thread of control");
    in_sweep_ = true;
    struct SweepGuard {
      bool* flag;
      ~SweepGuard() { *flag = false; }
    } sweep_guard{&in_sweep_};
    GRAFFIX_CHECK(opts.item_edges == nullptr ||
                      opts.item_edges->begin.size() == items.size(),
                  "Engine: edge copy covers %zu items, the sweep has %zu",
                  opts.item_edges == nullptr ? 0 : opts.item_edges->begin.size(),
                  items.size());
    const bool recorded = acc != nullptr && acc->items != nullptr;
    GRAFFIX_CHECK(!recorded || (acc->items == items.data() &&
                                acc->n_items == items.size()),
                  "Engine::sweep_reusing: accounting recorded for another "
                  "item list");
    constexpr bool kUngated =
        std::is_same_v<std::remove_cvref_t<Gate>, Ungated>;
    std::span<const BlockMeta> meta;
    if (kUngated && recorded && acc->ungated) {
      meta = acc->blocks;
    } else {
      prepass(items, gate);
      meta = block_meta_;
    }
    scratch_.ensure(config_.warp_size, config_.shared_banks);
    if (acc != nullptr && !recorded) {
      acc->blocks.assign(meta.size(), BlockMeta{0, 0});
      acc->records.assign(meta.size(), BlockRecord{});
      acc->items = items.data();
      acc->n_items = items.size();
    }
    // A block's record stays valid for its mask until the block is walked
    // with another one, however many sweeps pass in between.
    bool rerecorded = false;
    for (std::size_t b = 0; b < meta.size(); ++b) {
      if (meta[b].live == 0) continue;
      if (acc == nullptr) {
        DupSteps dups;
        walk_block<true>(items, opts, b, meta[b], fn, stats, dups);
        continue;
      }
      BlockRecord& rec = acc->records[b];
      if (meta[b] == acc->blocks[b]) {
        stats += rec.counters;
        walk_block<false>(items, opts, b, meta[b], fn, stats, rec.dups);
        acc->reused_blocks += 1;
        continue;
      }
      KernelStats walked;
      walk_block<true>(items, opts, b, meta[b], fn, walked, rec.dups);
      stats += walked;
      walked.atomic_commits = 0;
      walked.atomic_conflicts = 0;
      rec.counters = walked;
      acc->blocks[b] = meta[b];
      acc->walked_blocks += 1;
      rerecorded = true;
    }
    // After an Ungated sweep every block holds its ungated mask (blocks it
    // did not walk have no edges, so no sweep ever recorded them).
    if (acc != nullptr && kUngated) {
      acc->ungated = true;
    } else if (rerecorded) {
      acc->ungated = false;
    }
  }

  /// Records each warp block's live lanes (gated in, edge_count > 0) and
  /// longest live item in block_meta_. Every gate fires here, before any
  /// fn() runs. The warp runs until its longest live item is exhausted
  /// (thread divergence: shorter, edgeless and gated-out lanes idle).
  template <typename Gate>
  void prepass(std::span<const WorkItem> items, Gate& gate) {
    const std::uint32_t ws = config_.warp_size;
    const std::size_t n_blocks = (items.size() + ws - 1) / ws;
    block_meta_.resize(n_blocks);
    for (std::size_t b = 0; b < n_blocks; ++b) {
      const std::size_t base = b * ws;
      const auto lanes = static_cast<std::uint32_t>(
          std::min<std::size_t>(ws, items.size() - base));
      std::uint64_t live = 0;
      NodeId max_len = 0;
      for (std::uint32_t l = 0; l < lanes; ++l) {
        const WorkItem& item = items[base + l];
        if (!gate(item.src) || item.edge_count == 0) continue;
        live |= std::uint64_t{1} << l;
        max_len = std::max(max_len, item.edge_count);
      }
      block_meta_[b] = {live, max_len};
    }
  }

  /// One live warp block, one pass: per step, each live lane is charged
  /// (kAccount) and then replayed through fn. A committing lane
  /// conflicts (its atomic serializes) iff an earlier active lane of the
  /// same step targets the same destination, whether or not that lane
  /// committed. A full walk records its DupSteps in `dups`; a
  /// replay-only walk reads them and keeps the destination set only
  /// there.
  template <bool kAccount, typename EdgeFn>
  void walk_block(std::span<const WorkItem> items, const SweepOptions& opts,
                  std::size_t b, const BlockMeta& meta, EdgeFn& fn,
                  KernelStats& st, DupSteps& dups) {
    SweepScratch& sc = scratch_;
    const std::uint32_t ws = config_.warp_size;
    const ItemEdges* copy = opts.item_edges;
    const NodeId* csr_targets = graph_->targets().data();
    const auto csr_weights = graph_->weights();
    const bool copy_weights = copy != nullptr && !copy->weight.empty();
    const bool has_weights = copy_weights || !csr_weights.empty();
    const bool csr_mode = opts.edge_mode == EdgeLoadMode::Csr;
    const bool shared_attr = opts.attr_space == AttrSpace::Shared;
    const bool have_resident = !opts.resident.empty();
    const std::size_t base = b * ws;
    std::uint64_t live = meta.live;
    // Each live lane reads its edges from its item's run in the copy when
    // there is one, else from the Csr. Source-side residency is invariant
    // across an item's edges: fetch it once per live lane, not per edge.
    for (std::uint64_t m = live; m != 0; m &= m - 1) {
      const int l = std::countr_zero(m);
      const WorkItem& item = items[base + l];
      sc.lane_dst[l] = copy != nullptr
                           ? copy->dst.data() + copy->begin[base + l]
                           : csr_targets + item.edge_begin;
      if (copy_weights) {
        sc.lane_w[l] = copy->weight.data() + copy->begin[base + l];
      } else if (has_weights) {
        sc.lane_w[l] = csr_weights.data() + item.edge_begin;
      }
      if constexpr (kAccount) {
        sc.lane_res[l] =
            have_resident ? opts.resident[item.src] : kInvalidNode;
        sc.lane_edge_seg[l] = ~std::uint64_t{0};
      }
    }
    if constexpr (kAccount) {
      // Every step issues one warp instruction and occupies ws lane slots.
      st.warp_steps += meta.max_len;
      st.lane_slots += static_cast<std::uint64_t>(meta.max_len) * ws;
    }
    if constexpr (kAccount) dups = {};
    for (NodeId j = 0; j < meta.max_len; ++j) {
      sc.epoch += 1;  // empties the bank words and both key sets in O(1)
      const bool track_dsts = kAccount || (j >= dups.begin && j < dups.end);
      [[maybe_unused]] bool step_dup = false;
      [[maybe_unused]] const auto active =
          static_cast<std::uint32_t>(std::popcount(live));
      [[maybe_unused]] std::uint32_t edge_segs = 0;
      [[maybe_unused]] std::uint32_t attr_segs = 0;
      [[maybe_unused]] std::uint32_t shared_hits = 0;
      std::uint32_t commits = 0;
      for (std::uint64_t m = live; m != 0; m &= m - 1) {
        const int l = std::countr_zero(m);
        const WorkItem& item = items[base + l];
        const NodeId v = sc.lane_dst[l][j];
        if (j + 1 == item.edge_count) live &= ~(std::uint64_t{1} << l);
        if constexpr (kAccount) {
          if (csr_mode) {
            // A lane streams its adjacency sequentially: consecutive
            // positions share a segment and hit in cache, so a lane only
            // pays when it crosses into a new segment. Charged at the
            // item's Csr offset, wherever the host read the edge from.
            const EdgeId e = item.edge_begin + j;
            const std::uint64_t seg = (e << edge_shift_) >> seg_shift_;
            if (seg != sc.lane_edge_seg[l]) {
              sc.lane_edge_seg[l] = seg;
              ++edge_segs;
            }
          }
          const bool resident_pair = sc.lane_res[l] != kInvalidNode &&
                                     sc.lane_res[l] == opts.resident[v];
          if (shared_attr || resident_pair) {
            ++shared_hits;
            // Bank-conflict bookkeeping: lanes hitting different words in
            // the same bank serialize; same-word hits broadcast for free.
            const std::uint32_t bank = v & bank_mask_;
            if (sc.bank_epoch[bank] == sc.epoch && sc.bank_word[bank] != v) {
              st.bank_conflicts += 1;
            }
            sc.bank_word[bank] = v;
            sc.bank_epoch[bank] = sc.epoch;
          } else {
            const std::uint64_t seg =
                (std::uint64_t{v} << attr_shift_) >> seg_shift_;
            attr_segs += sc.segs.insert(seg, sc.epoch) ? 1 : 0;
          }
        }
        const bool first_at_v = !track_dsts || sc.dsts.insert(v, sc.epoch);
        if constexpr (kAccount) step_dup = step_dup || !first_at_v;
        const Weight w = has_weights ? sc.lane_w[l][j] : Weight{1};
        if (fn(item.src, v, w)) {
          ++commits;
          if (!first_at_v) st.atomic_conflicts += 1;
        }
      }
      st.atomic_commits += commits;
      if constexpr (kAccount) {
        if (step_dup) {
          if (dups.end == 0) dups.begin = j;
          dups.end = j + 1;
        }
        // Every step has at least one live lane (max_len is the longest).
        if (opts.edge_mode == EdgeLoadMode::IdealWarpPacked) edge_segs = 1;
        if (opts.weighted) edge_segs *= 2;  // parallel weights stream
        if (opts.edges_resident) {
          st.shared_accesses += active;
          edge_segs = 0;
        }
        st.active_lanes += active;
        st.edge_transactions += edge_segs;
        st.attr_transactions += attr_segs;
        st.shared_accesses += shared_hits;
        // Lower bound: `active` gathers of attr_bytes each, fully packed.
        const std::uint64_t global_attr = active - shared_hits;
        st.attr_ideal_transactions +=
            ((global_attr << attr_shift_) + config_.transaction_bytes - 1) >>
            seg_shift_;
      }
    }
  }

  const Csr* graph_;
  SimConfig config_;
  // log2 of the power-of-two geometry (checked by the constructor).
  std::uint32_t seg_shift_ = 0;
  std::uint32_t edge_shift_ = 0;
  std::uint32_t attr_shift_ = 0;
  std::uint32_t bank_mask_ = 0;
  ArenaVector<BlockMeta> block_meta_;  // per warp block, one sweep's worth
  SweepScratch scratch_;
  bool in_sweep_ = false;  // reentrancy guard
};

/// Builds one WorkItem per listed slot covering its whole adjacency.
[[nodiscard]] std::vector<WorkItem> items_per_vertex(
    const Csr& graph, std::span<const NodeId> slots);

/// Builds items for all non-hole slots in slot order.
[[nodiscard]] std::vector<WorkItem> items_all_vertices(const Csr& graph);

/// Copies the edges `items` cover into item order (weights too when
/// `weighted` and the graph has them). Returns an empty copy when the
/// list is already CSR-contiguous — each item starts where the previous
/// one ends, as in identity order — since the copy would repeat the Csr.
[[nodiscard]] ItemEdges copy_item_edges(const Csr& graph,
                                        std::span<const WorkItem> items,
                                        bool weighted);

}  // namespace graffix::sim
