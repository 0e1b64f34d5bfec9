// Configuration of the SIMT execution model.
//
// This is the repo's stand-in for the paper's NVIDIA K40c (see DESIGN.md
// §2): a deterministic cost model in which the only things that matter
// are the ones Graffix manipulates — memory-transaction counts
// (coalescing), the global/shared access mix (latency), and active-lane
// fractions (divergence). Defaults approximate K40c ratios; absolute
// seconds are not meaningful, relative times are.
#pragma once

#include <cstdint>

namespace graffix::sim {

struct SimConfig {
  /// Threads per warp; also the coalescing window.
  std::uint32_t warp_size = 32;
  /// Bytes served by one global-memory transaction. Kepler-class GPUs
  /// (the paper's K40c) serve non-cached global loads as 32-byte L2
  /// sectors, which is what makes scattered gathers so expensive there.
  /// Must be a power of two (the engine computes segments by shifts).
  std::uint32_t transaction_bytes = 32;
  /// Bytes per node-attribute element and per edges-array element.
  /// Both must be powers of two.
  std::uint32_t attr_bytes = 4;
  std::uint32_t edge_bytes = 4;

  /// Cycles to issue one warp instruction step.
  double issue_cycles = 2.0;
  /// Unhidden latency of one global-memory transaction.
  double global_latency = 300.0;
  /// Latency of one shared-memory access (per warp step).
  double shared_latency = 4.0;
  /// Shared memory bank geometry: Kepler has 32 banks of 4-byte words;
  /// lanes hitting different words in one bank serialize. Must be a
  /// power of two (the engine masks node ids into banks).
  std::uint32_t shared_banks = 32;
  /// Extra cycles per serialized bank access beyond the first.
  double bank_conflict_cycles = 2.0;
  /// Cycles per atomic RMW that actually commits.
  double atomic_cycles = 12.0;
  /// Extra serialization cycles per same-address conflict inside a step.
  double atomic_conflict_cycles = 8.0;
  /// Fixed cycles per kernel launch (one sweep = one launch).
  double launch_cycles = 20000.0;

  /// Latency hiding: with W resident warps, effective latency is
  /// global_latency / clamp(W / warps_to_hide, 1, max_overlap).
  std::uint32_t warps_to_hide = 48;
  double max_overlap = 16.0;

  /// Device shape, used only to convert cycles to seconds.
  std::uint32_t num_sms = 15;     // K40c: 15 SMX
  double clock_ghz = 0.745;       // K40c boost

  /// Shared memory capacity per thread-block in attribute elements;
  /// bounds the cluster sizes the latency technique may schedule.
  std::uint32_t shared_capacity_elems = 12288;  // 48 KiB / 4 B

  /// Occupancy cost of shared-memory residency: blocks that stage
  /// cluster subgraphs into shared memory fit fewer warps per SM, so the
  /// run's latency hiding degrades with the resident fraction r as
  /// warps_eff = warps / (1 + smem_occupancy_penalty * r). This is what
  /// makes very low CC thresholds counter-productive (§5.3's "low
  /// threshold -> diminished benefits" discussion).
  double smem_occupancy_penalty = 0.25;
};

}  // namespace graffix::sim
