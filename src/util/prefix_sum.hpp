// Exclusive prefix sums — the workhorse of CSR construction and of the
// renumbering / replication transforms.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "util/parallel.hpp"

namespace graffix {

/// In-place exclusive scan; returns the total sum.
template <typename T>
T exclusive_scan_inplace(std::span<T> values) {
  T running{};
  for (auto& v : values) {
    T next = running + v;
    v = running;
    running = next;
  }
  return running;
}

/// Out-of-place exclusive scan: out[i] = sum of in[0..i). out may have one
/// extra trailing slot which then receives the total.
template <typename T>
T exclusive_scan(std::span<const T> in, std::span<T> out) {
  T running{};
  const std::size_t n = in.size();
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = running;
    running += in[i];
  }
  if (out.size() > n) out[n] = running;
  return running;
}

/// Smallest input parallel_exclusive_scan_inplace splits: below it the
/// two pool dispatches cost more than the split saves (break-even near
/// 1<<18 on a 4-proc Xeon VM; bench_micro_engine's prefix_scan rows).
inline constexpr std::size_t kParallelScanMin = std::size_t{1} << 18;

/// Two-pass parallel exclusive scan for large arrays, on the worker pool:
/// each block sums its slice, the block sums are folded serially into
/// block offsets, then each block rescans its slice from its offset.
/// Integer addition is associative, so the result is independent of the
/// block count and hence of the thread count; the static_assert keeps
/// out floating-point types, whose sums would depend on it. Inside a
/// pool task (in_parallel()) it runs serially.
template <typename T>
T parallel_exclusive_scan_inplace(std::span<T> values) {
  static_assert(std::is_integral_v<T>,
                "the block-parallel scan is width-independent only for "
                "integer sums");
  const std::size_t n = values.size();
  const int workers = effective_workers();
  if (n < kParallelScanMin || workers <= 1 || in_parallel()) {
    return exclusive_scan_inplace(values);
  }

  // One block per worker that can actually run: more blocks would only
  // split one core's work into context-switching fragments.
  const auto blocks = static_cast<std::size_t>(workers);
  const std::size_t chunk = (n + blocks - 1) / blocks;
  auto slice = [&](std::size_t b) {
    const std::size_t lo = std::min(b * chunk, n);
    return values.subspan(lo, std::min(lo + chunk, n) - lo);
  };
  std::vector<T> offset(blocks + 1, T{});
  parallel_tasks(blocks, [&](std::size_t b) {
    T sum{};
    for (const T v : slice(b)) sum += v;
    offset[b + 1] = sum;
  });
  for (std::size_t b = 1; b <= blocks; ++b) offset[b] += offset[b - 1];
  parallel_tasks(blocks, [&](std::size_t b) {
    T running = offset[b];
    for (T& v : slice(b)) {
      const T next = running + v;
      v = running;
      running = next;
    }
  });
  return offset[blocks];
}

}  // namespace graffix
