// Counters accumulated by the SIMT engine during a run. These are the
// raw observables the cost model converts into simulated cycles, and the
// quantities the unit tests assert on directly (transactions for known
// access patterns, SIMD efficiency for known degree layouts).
#pragma once

#include <cstdint>

namespace graffix::sim {

struct KernelStats {
  std::uint64_t sweeps = 0;             // kernel launches
  std::uint64_t warp_steps = 0;         // lockstep instruction steps issued
  std::uint64_t lane_slots = 0;         // warp_steps * warp_size
  std::uint64_t active_lanes = 0;       // lanes doing real work
  std::uint64_t edge_transactions = 0;  // edges/weights array segments
  std::uint64_t attr_transactions = 0;  // node-attribute gather segments
  std::uint64_t attr_ideal_transactions = 0;  // lower bound (fully packed)
  std::uint64_t shared_accesses = 0;    // attr accesses served from smem
  std::uint64_t bank_conflicts = 0;     // serialized smem bank accesses
  std::uint64_t atomic_commits = 0;     // successful attribute updates
  std::uint64_t atomic_conflicts = 0;   // intra-step same-address collisions
  std::uint64_t aux_ops = 0;            // confluence merges, filter items...

  /// Fraction of issued lane slots doing useful work (1.0 = no divergence).
  [[nodiscard]] double simd_efficiency() const {
    return lane_slots == 0
               ? 1.0
               : static_cast<double>(active_lanes) / static_cast<double>(lane_slots);
  }

  /// Ratio of the minimum possible attribute transactions to the ones
  /// actually issued (1.0 = perfectly coalesced).
  [[nodiscard]] double coalescing_efficiency() const {
    return attr_transactions == 0
               ? 1.0
               : static_cast<double>(attr_ideal_transactions) /
                     static_cast<double>(attr_transactions);
  }

  /// Global gather transactions issued per useful lane — the cost of
  /// feeding one edge's destination attribute. Lower is better; this is
  /// the fairest cross-run coalescing comparison since it normalizes by
  /// work actually done (iteration counts may differ between runs).
  [[nodiscard]] double gather_transactions_per_lane() const {
    return active_lanes == 0
               ? 0.0
               : static_cast<double>(attr_transactions) /
                     static_cast<double>(active_lanes);
  }

  /// Fraction of attribute traffic served from shared memory.
  [[nodiscard]] double shared_fraction() const {
    const double total = static_cast<double>(shared_accesses) +
                         static_cast<double>(attr_transactions);
    return total == 0.0 ? 0.0 : static_cast<double>(shared_accesses) / total;
  }

  KernelStats& operator+=(const KernelStats& other);

  /// Counter-for-counter equality — the determinism and reference-walker
  /// tests compare runs with this, so it must stay exact (no tolerance).
  [[nodiscard]] bool operator==(const KernelStats& other) const = default;
};

}  // namespace graffix::sim
