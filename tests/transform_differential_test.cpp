// Differential tests for the batched greedy phases (DESIGN.md §7,
// "batched greedy phases"): the conflict-free round-based execution of
// the latency scenario-1/2 insertion and the replication candidate
// application must be BYTE-IDENTICAL to the serial reference oracle
// (GRAFFIX_SERIAL_TRANSFORMS) on every Table-1 generator graph, at every
// thread count. This is the acceptance gate for the ISSUE-4 tentpole:
// the batching is an execution strategy, never a semantic change.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "gen/suite.hpp"
#include "graph/csr.hpp"
#include "transform/batch.hpp"
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

void expect_same_csr(const Csr& a, const Csr& b, const std::string& what) {
  ASSERT_EQ(a.num_slots(), b.num_slots()) << what;
  ASSERT_EQ(a.num_edges(), b.num_edges()) << what;
  EXPECT_TRUE(std::equal(a.offsets().begin(), a.offsets().end(),
                         b.offsets().begin()))
      << what << ": offsets differ";
  EXPECT_TRUE(std::equal(a.targets().begin(), a.targets().end(),
                         b.targets().begin()))
      << what << ": targets differ";
  ASSERT_EQ(a.has_weights(), b.has_weights()) << what;
  if (a.has_weights()) {
    EXPECT_TRUE(std::equal(a.weights().begin(), a.weights().end(),
                           b.weights().begin()))
        << what << ": weights differ";
  }
  ASSERT_EQ(a.has_holes(), b.has_holes()) << what;
  if (a.has_holes()) {
    EXPECT_TRUE(
        std::equal(a.holes().begin(), a.holes().end(), b.holes().begin()))
        << what << ": holes differ";
  }
}

// --- latency ---------------------------------------------------------

void expect_same_latency(const LatencyResult& oracle, const LatencyResult& got,
                         const std::string& what) {
  expect_same_csr(oracle.graph, got.graph, what);
  EXPECT_EQ(oracle.edges_added, got.edges_added) << what;
  EXPECT_EQ(oracle.schedule.resident, got.schedule.resident) << what;
  ASSERT_EQ(oracle.schedule.clusters.size(), got.schedule.clusters.size())
      << what;
  for (std::size_t c = 0; c < oracle.schedule.clusters.size(); ++c) {
    EXPECT_EQ(oracle.schedule.clusters[c].members,
              got.schedule.clusters[c].members)
        << what << " cluster " << c;
    EXPECT_EQ(oracle.schedule.clusters[c].inner_iterations,
              got.schedule.clusters[c].inner_iterations)
        << what << " cluster " << c;
  }
  EXPECT_DOUBLE_EQ(oracle.mean_cc_before, got.mean_cc_before) << what;
  EXPECT_DOUBLE_EQ(oracle.mean_cc_after, got.mean_cc_after) << what;
}

void run_latency_differential(const LatencyKnobs& knobs,
                              const char* knob_label) {
  std::uint64_t total_added = 0;
  std::uint64_t total_batched = 0;
  for (const SuiteEntry& entry : make_suite(kScale, kSeed)) {
    const LatencyResult oracle = [&] {
      ScopedSerialTransforms serial_mode(1);
      return at_threads(1, [&] { return latency_transform(entry.graph, knobs); });
    }();
    EXPECT_EQ(oracle.batching.rounds, 0u)
        << entry.name << ": oracle must not report batched rounds";
    ScopedSerialTransforms batched_mode(0);
    for (int t : kThreadCounts) {
      const LatencyResult got =
          at_threads(t, [&] { return latency_transform(entry.graph, knobs); });
      expect_same_latency(oracle, got,
                          std::string(knob_label) + " | " + entry.name +
                              " | threads=" + std::to_string(t));
      total_batched += got.batching.batched;
    }
    total_added += oracle.edges_added;
  }
  // Non-vacuity: the greedy phases must have inserted edges somewhere in
  // the suite AND the batched path must actually have batched work —
  // otherwise the equality above proves nothing.
  EXPECT_GT(total_added, 0u) << knob_label;
  EXPECT_GT(total_batched, 0u) << knob_label;
}

TEST(TransformDifferential, LatencyMatchesSerialOracleDefaultKnobs) {
  run_latency_differential(LatencyKnobs{}, "default");
}

TEST(TransformDifferential, LatencyMatchesSerialOracleAggressiveKnobs) {
  LatencyKnobs knobs;
  knobs.cc_threshold = 0.4;
  knobs.near_delta = 0.3;
  knobs.edge_budget_fraction = 0.1;
  run_latency_differential(knobs, "aggressive");
}

TEST(TransformDifferential, LatencyMatchesSerialOracleTightBudget) {
  // A budget small enough that the reservation logic's serial tail (the
  // budget-stop path of run_budgeted_rounds) engages on the dense
  // presets: the oracle's per-insertion budget break must be reproduced
  // exactly at the batch boundary.
  LatencyKnobs knobs;
  knobs.cc_threshold = 0.4;
  knobs.near_delta = 0.3;
  knobs.edge_budget_fraction = 0.002;
  run_latency_differential(knobs, "tight-budget");
}

// --- replication -----------------------------------------------------

void expect_same_replication(const ReplicationResult& oracle,
                             const ReplicationResult& got,
                             const std::string& what) {
  expect_same_csr(oracle.graph, got.graph, what);
  EXPECT_EQ(oracle.replicas.groups, got.replicas.groups) << what;
  EXPECT_EQ(oracle.replicas.group_of_slot, got.replicas.group_of_slot) << what;
  EXPECT_EQ(oracle.edges_moved, got.edges_moved) << what;
  EXPECT_EQ(oracle.edges_added, got.edges_added) << what;
  EXPECT_EQ(oracle.holes_total, got.holes_total) << what;
  EXPECT_EQ(oracle.holes_filled, got.holes_filled) << what;
}

void run_replication_differential(double threshold) {
  std::uint64_t total_filled = 0;
  std::uint64_t total_batched = 0;
  for (const SuiteEntry& entry : make_suite(kScale, kSeed)) {
    const RenumberResult renumber = renumber_bfs_forest(entry.graph, 16);
    const Csr renumbered = apply_renumbering(entry.graph, renumber);
    CoalescingKnobs knobs;
    knobs.connectedness_threshold = threshold;
    const ReplicationResult oracle = [&] {
      ScopedSerialTransforms serial_mode(1);
      return at_threads(
          1, [&] { return replicate_into_holes(renumbered, renumber, knobs); });
    }();
    ScopedSerialTransforms batched_mode(0);
    for (int t : kThreadCounts) {
      const ReplicationResult got = at_threads(
          t, [&] { return replicate_into_holes(renumbered, renumber, knobs); });
      expect_same_replication(oracle, got,
                              "thr=" + std::to_string(threshold) + " | " +
                                  entry.name +
                                  " | threads=" + std::to_string(t));
      total_batched += got.batching.batched;
    }
    total_filled += oracle.holes_filled;
  }
  EXPECT_GT(total_filled, 0u) << "threshold " << threshold;
  EXPECT_GT(total_batched, 0u) << "threshold " << threshold;
}

TEST(TransformDifferential, ReplicationMatchesSerialOracleThreshold06) {
  run_replication_differential(0.6);
}

TEST(TransformDifferential, ReplicationMatchesSerialOracleThreshold04) {
  run_replication_differential(0.4);
}

TEST(TransformDifferential, ReplicationMatchesSerialOracleThreshold03) {
  run_replication_differential(0.3);
}

}  // namespace
}  // namespace graffix::transform
