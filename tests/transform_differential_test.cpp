// Pinned outputs of the order-dependent greedy transform phases: the
// latency scenario-1/2 edge insertion and the replication candidate
// application (DESIGN.md §7). Each phase walks its sorted candidate list
// serially; these digests pin that walk's exact output on every Table-1
// generator graph at scale 10, seed 7, across three knob sets each, and
// re-check it at pool widths 1, 2 and 8 (the surrounding enumeration and
// rebuild steps run on the pool).
//
// The rows are the serial reference oracle's output. They were captured
// while a conflict-free batched execution of the same phases still
// existed and was tested byte-identical to that oracle at every width,
// so they pin the semantics both paths shared.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "gen/suite.hpp"
#include "graph/csr.hpp"
#include "transform/latency.hpp"
#include "transform/renumber.hpp"
#include "transform/replicate.hpp"
#include "util/parallel.hpp"

namespace graffix::transform {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};
constexpr std::uint32_t kScale = 10;
constexpr std::uint64_t kSeed = 7;

/// Runs fn with the worker pool pinned to t threads.
template <typename Fn>
auto at_threads(int t, Fn&& fn) {
  ScopedNumThreads pin(t);
  return fn();
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 1099511628211ull;
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

std::uint64_t digest_csr(const Csr& g) {
  std::uint64_t h = kFnvBasis;
  h = fnv(h, g.num_slots());
  h = fnv(h, g.num_edges());
  for (auto o : g.offsets()) h = fnv(h, o);
  for (auto t : g.targets()) h = fnv(h, t);
  if (g.has_weights()) {
    for (auto w : g.weights()) {
      std::uint32_t bits;
      std::memcpy(&bits, &w, sizeof(bits));
      h = fnv(h, bits);
    }
  }
  if (g.has_holes()) {
    for (auto x : g.holes()) h = fnv(h, x);
  }
  return h;
}

/// Digest of one greedy run: `edges_added`, the output CSR, and the
/// phase's side structure (latency: cluster schedule; replication:
/// replica map).
struct Pin {
  const char* name;  // "<knob set>/<graph>"
  std::uint64_t edges_added;
  std::uint64_t csr;
  std::uint64_t side;
};

std::string initializer(const std::string& name, const Pin& p) {
  char row[160];
  std::snprintf(row, sizeof(row), "    {\"%s\", %llu, 0x%016llxull, 0x%016llxull},",
                name.c_str(), static_cast<unsigned long long>(p.edges_added),
                static_cast<unsigned long long>(p.csr),
                static_cast<unsigned long long>(p.side));
  return row;
}

template <std::size_t N>
void expect_pinned(const Pin (&pins)[N], const std::string& name,
                   const Pin& got, int threads) {
  for (const Pin& want : pins) {
    if (name != want.name) continue;
    EXPECT_TRUE(got.edges_added == want.edges_added && got.csr == want.csr &&
                got.side == want.side)
        << name << " at threads=" << threads << " drifted; now:\n"
        << initializer(name, got);
    return;
  }
  ADD_FAILURE() << "no pinned row; captured:\n" << initializer(name, got);
}

// --- latency ---------------------------------------------------------

// clang-format off
constexpr Pin kLatencyPins[] = {
    {"default/rmat26", 239, 0x30fe8ed152f078beull, 0x4c248c100fa4cef5ull},
    {"default/random26", 0, 0xf256516edde3686bull, 0x4638058c164aaf83ull},
    {"default/LiveJournal", 27, 0xf4f33389c5729355ull, 0x1ba6fc723121d642ull},
    {"default/USA-road", 0, 0x29c5576d100cf505ull, 0x4638058c164aaf83ull},
    {"default/twitter", 748, 0x149a04d9ed5b1e1full, 0x5efd94108ee8358eull},
    {"aggressive/rmat26", 1501, 0x6ea6fc204f84d479ull, 0x2e60010443055231ull},
    {"aggressive/random26", 0, 0xf256516edde3686bull, 0x4638058c164aaf83ull},
    {"aggressive/LiveJournal", 1429, 0x310e3aafb81119efull, 0x0878bdf87c12e612ull},
    {"aggressive/USA-road", 394, 0xac877076e7d4fca2ull, 0xfc7d1f0df3155016ull},
    {"aggressive/twitter", 585, 0x2b1964b9e34dcc7aull, 0x741ee15d4b7d0609ull},
    {"tight-budget/rmat26", 32, 0x824b9d84c607fbf4ull, 0x0f37e34b70651fb9ull},
    {"tight-budget/random26", 0, 0xf256516edde3686bull, 0x4638058c164aaf83ull},
    {"tight-budget/LiveJournal", 28, 0x49de77df3c6af28dull, 0xbc5132de1cb53983ull},
    {"tight-budget/USA-road", 7, 0x52f9c424f9b8dcacull, 0xa17c1aab0587a17full},
    {"tight-budget/twitter", 64, 0x30cfa2ac8ffd5dacull, 0xf6bf2701b39e1272ull},
};
// clang-format on

Pin digest_latency(const LatencyResult& r) {
  std::uint64_t h = kFnvBasis;
  for (const Cluster& c : r.schedule.clusters) {
    h = fnv(h, c.members.size());
    for (NodeId m : c.members) h = fnv(h, m);
    h = fnv(h, c.inner_iterations);
  }
  for (NodeId s : r.schedule.resident) h = fnv(h, s);
  return {nullptr, r.edges_added, digest_csr(r.graph), h};
}

void run_latency_pinned(const LatencyKnobs& knobs, const char* knob_label) {
  std::uint64_t total_added = 0;
  for (const SuiteEntry& entry : make_suite(kScale, kSeed)) {
    const std::string name = std::string(knob_label) + "/" + entry.name;
    for (int t : kThreadCounts) {
      const LatencyResult got =
          at_threads(t, [&] { return latency_transform(entry.graph, knobs); });
      expect_pinned(kLatencyPins, name, digest_latency(got), t);
      if (t == 1) total_added += got.edges_added;
    }
  }
  // Non-vacuity: the greedy phases must have inserted edges somewhere in
  // the suite, otherwise the pins above say nothing about them.
  EXPECT_GT(total_added, 0u) << knob_label;
}

TEST(TransformDifferential, LatencyMatchesSerialOracleDefaultKnobs) {
  run_latency_pinned(LatencyKnobs{}, "default");
}

TEST(TransformDifferential, LatencyMatchesSerialOracleAggressiveKnobs) {
  LatencyKnobs knobs;
  knobs.cc_threshold = 0.4;
  knobs.near_delta = 0.3;
  knobs.edge_budget_fraction = 0.1;
  run_latency_pinned(knobs, "aggressive");
}

TEST(TransformDifferential, LatencyMatchesSerialOracleTightBudget) {
  // A budget small enough that scenario 1's per-insertion budget break
  // fires mid-anchor on the dense presets.
  LatencyKnobs knobs;
  knobs.cc_threshold = 0.4;
  knobs.near_delta = 0.3;
  knobs.edge_budget_fraction = 0.002;
  run_latency_pinned(knobs, "tight-budget");
}

// --- replication -----------------------------------------------------

// clang-format off
constexpr Pin kReplicationPins[] = {
    {"thr0.6/rmat26", 35, 0x10412df3426daf39ull, 0x30484967a98c4134ull},
    {"thr0.6/random26", 0, 0xa258a8a79d19078full, 0xd2b3d8ea12d280deull},
    {"thr0.6/LiveJournal", 17, 0xb6f862985c80dd29ull, 0x5e38adef156d446cull},
    {"thr0.6/USA-road", 2, 0xb63f412ad3582f3aull, 0x4d830b78457d1617ull},
    {"thr0.6/twitter", 7, 0xee1548941e3dd710ull, 0x4f81ad9338ca03e9ull},
    {"thr0.4/rmat26", 35, 0xa042735c20eaa4faull, 0xe77d7e9068f3a92cull},
    {"thr0.4/random26", 0, 0xa258a8a79d19078full, 0xd2b3d8ea12d280deull},
    {"thr0.4/LiveJournal", 38, 0x80aaae256c683519ull, 0xcf29206c8bc22e46ull},
    {"thr0.4/USA-road", 8, 0x919b0841759b4cd5ull, 0x01db9479d15fcce3ull},
    {"thr0.4/twitter", 7, 0xf67bf88e38d1e6d6ull, 0x6770793c14a25b1dull},
    {"thr0.3/rmat26", 44, 0xf7582fd2e22acabfull, 0x637ad85b0138cbbfull},
    {"thr0.3/random26", 0, 0xa258a8a79d19078full, 0xd2b3d8ea12d280deull},
    {"thr0.3/LiveJournal", 38, 0x80aaae256c683519ull, 0xcf29206c8bc22e46ull},
    {"thr0.3/USA-road", 12, 0xf44d1855ea194eb7ull, 0xd18d4da86a5d33e5ull},
    {"thr0.3/twitter", 7, 0x738c424851c72693ull, 0xe2fa576408d7094bull},
};
// clang-format on

Pin digest_replication(const ReplicationResult& r) {
  std::uint64_t h = kFnvBasis;
  h = fnv(h, r.edges_moved);
  h = fnv(h, r.holes_total);
  h = fnv(h, r.holes_filled);
  for (const auto& group : r.replicas.groups) {
    h = fnv(h, group.size());
    for (NodeId s : group) h = fnv(h, s);
  }
  for (NodeId s : r.replicas.group_of_slot) h = fnv(h, s);
  return {nullptr, r.edges_added, digest_csr(r.graph), h};
}

void run_replication_pinned(double threshold, const char* label) {
  std::uint64_t total_filled = 0;
  for (const SuiteEntry& entry : make_suite(kScale, kSeed)) {
    const std::string name = std::string(label) + "/" + entry.name;
    const RenumberResult renumber = renumber_bfs_forest(entry.graph, 16);
    const Csr renumbered = apply_renumbering(entry.graph, renumber);
    CoalescingKnobs knobs;
    knobs.connectedness_threshold = threshold;
    for (int t : kThreadCounts) {
      const ReplicationResult got = at_threads(
          t, [&] { return replicate_into_holes(renumbered, renumber, knobs); });
      expect_pinned(kReplicationPins, name, digest_replication(got), t);
      if (t == 1) total_filled += got.holes_filled;
    }
  }
  EXPECT_GT(total_filled, 0u) << "threshold " << threshold;
}

TEST(TransformDifferential, ReplicationMatchesSerialOracleThreshold06) {
  run_replication_pinned(0.6, "thr0.6");
}

TEST(TransformDifferential, ReplicationMatchesSerialOracleThreshold04) {
  run_replication_pinned(0.4, "thr0.4");
}

TEST(TransformDifferential, ReplicationMatchesSerialOracleThreshold03) {
  run_replication_pinned(0.3, "thr0.3");
}

}  // namespace
}  // namespace graffix::transform
