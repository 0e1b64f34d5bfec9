// Serve query kernels against an independent oracle: a host Jacobi
// Bellman-Ford with double sums that records each lane's last improving
// round — the semantics `graffix serve` answers with. Every non-hole
// source of each scale-10 preset (and of a divergence variant with its
// warp order) must match on digest, reached, rounds and echo values.
// Labeled `parallel`: run_multi_source runs its lanes as pool tasks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "gen/suite.hpp"
#include "graph/csr.hpp"
#include "serve/batcher.hpp"
#include "serve/protocol.hpp"
#include "transform/divergence.hpp"

namespace graffix::serve {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct OracleLane {
  std::vector<double> dist;
  std::uint32_t rounds = 0;  // last round that improved any vertex
};

/// Topology-driven Jacobi rounds over the snapshot's processing order:
/// round r relaxes every finite vertex of the round-(r-1) plane.
OracleLane jacobi_oracle(const GraphSnapshot& snap, QueryAlg alg, NodeId source) {
  const Csr& g = snap.graph;
  std::vector<NodeId> order = snap.warp_order;
  if (order.empty()) {
    for (NodeId s = 0; s < g.num_slots(); ++s) {
      if (!g.is_hole(s)) order.push_back(s);
    }
  }
  const bool weighted = alg == QueryAlg::Sssp && g.has_weights();
  OracleLane out;
  out.dist.assign(g.num_slots(), kInf);
  out.dist[source] = 0.0;
  std::vector<double> next = out.dist;
  for (std::uint32_t round = 1;; ++round) {
    bool changed = false;
    for (const NodeId u : order) {
      const double du = out.dist[u];
      if (du == kInf) continue;
      for (EdgeId e = g.edge_begin(u); e < g.edge_end(u); ++e) {
        const double nd = du + (weighted ? static_cast<double>(g.weights()[e]) : 1.0);
        const NodeId v = g.targets()[e];
        if (nd < next[v]) {
          next[v] = nd;
          changed = true;
        }
      }
    }
    if (!changed) return out;
    out.rounds = round;
    out.dist = next;
  }
}

void expect_matches_oracle(const GraphSnapshot& snap, const std::string& label) {
  const Csr& g = snap.graph;
  std::vector<NodeId> sources;
  for (NodeId s = 0; s < g.num_slots(); ++s) {
    if (!g.is_hole(s)) sources.push_back(s);
  }
  const std::vector<NodeId> echo = {0, 1, g.num_slots() / 2, g.num_slots() - 1};
  for (const QueryAlg alg : {QueryAlg::Sssp, QueryAlg::Bfs}) {
    std::vector<LaneSpec> lanes(sources.size());
    for (std::size_t k = 0; k < sources.size(); ++k) {
      lanes[k].source = sources[k];
      lanes[k].echo_nodes = echo;
    }
    const MultiSourceOutcome got = run_multi_source(snap, alg, lanes);
    EXPECT_FALSE(got.engine_busy);
    ASSERT_EQ(got.lanes.size(), sources.size());
    int mismatches = 0;
    for (std::size_t k = 0; k < sources.size() && mismatches < 5; ++k) {
      const OracleLane want = jacobi_oracle(snap, alg, sources[k]);
      NodeId reached = 0;
      for (const double d : want.dist) reached += d != kInf ? 1 : 0;
      std::vector<double> values;
      for (const NodeId n : echo) values.push_back(want.dist[n]);
      const LaneOutcome& lane = got.lanes[k];
      const bool same =
          !lane.expired &&
          lane.digest == fnv1a64(want.dist.data(), want.dist.size() * sizeof(double)) &&
          lane.reached == reached && lane.rounds == want.rounds && lane.values == values;
      EXPECT_TRUE(same) << label << " " << query_alg_name(alg) << " source "
                        << sources[k] << ": rounds " << lane.rounds << " vs "
                        << want.rounds << ", reached " << lane.reached << " vs "
                        << reached;
      mismatches += same ? 0 : 1;
    }
  }
}

struct PresetCase {
  GraphPreset preset;
  const char* name;
};

class ServeKernelOracle : public ::testing::TestWithParam<PresetCase> {};

TEST_P(ServeKernelOracle, EverySourceMatchesJacobi) {
  const auto snap = make_snapshot("base", 1, make_preset(GetParam().preset, 10, 3), {});
  expect_matches_oracle(*snap, GetParam().name);
}

INSTANTIATE_TEST_SUITE_P(
    Scale10, ServeKernelOracle,
    ::testing::Values(PresetCase{GraphPreset::LiveJournal, "LiveJournal"},
                      PresetCase{GraphPreset::UsaRoad, "USA_road"},
                      PresetCase{GraphPreset::Rmat26, "rmat26"},
                      PresetCase{GraphPreset::Twitter, "twitter"}),
    [](const ::testing::TestParamInfo<PresetCase>& info) {
      return std::string(info.param.name);
    });

/// The LiveJournal scale-10 preset with every weight passed through `map`.
Csr reweighted(Weight (*map)(Weight)) {
  const Csr g = make_preset(GraphPreset::LiveJournal, 10, 3);
  EXPECT_TRUE(g.has_weights());
  std::vector<Weight> weights(g.weights().begin(), g.weights().end());
  for (Weight& w : weights) w = map(w);
  return Csr({g.offsets().begin(), g.offsets().end()},
             {g.targets().begin(), g.targets().end()}, std::move(weights),
             {g.holes().begin(), g.holes().end()});
}

// Random float weights almost never tie, so this case rounds them to
// 1..4: many shortest paths then share a length and only the fewest-hops
// tie-break reproduces the Jacobi round count.
TEST(ServeKernel, TiedIntegerWeightsMatchJacobi) {
  const auto snap = make_snapshot(
      "tied", 1, reweighted([](Weight w) { return std::floor(w / 25.0F) + 1.0F; }), {});
  expect_matches_oracle(*snap, "LiveJournal tied weights");
}

// Weights of 0, 1 and 5000: the range is too wide for one bucket per
// unit of the lightest positive weight, so SSSP buckets are wider than
// some edges and vertices must be re-expanded inside a bucket; zero
// weights relax into the bucket being expanded.
TEST(ServeKernel, WideWeightRangeWithZerosMatchesJacobi) {
  const auto snap = make_snapshot(
      "wide", 1,
      reweighted([](Weight w) { return w < 10.0F ? 0.0F : w < 60.0F ? 1.0F : 5000.0F; }),
      {});
  ASSERT_EQ(snap->min_positive_weight, 1.0F);
  ASSERT_EQ(snap->max_weight, 5000.0F);
  expect_matches_oracle(*snap, "LiveJournal wide weights");
}

TEST(ServeKernel, DivergenceVariantMatchesJacobiInWarpOrder) {
  transform::DivergenceResult div = transform::divergence_transform(
      make_preset(GraphPreset::Rmat26, 10, 3), transform::DivergenceKnobs{});
  ASSERT_GT(div.edges_added, 0U);
  const auto snap =
      make_snapshot("div", 2, std::move(div.graph), std::move(div.warp_order));
  expect_matches_oracle(*snap, "rmat26+divergence");
}

TEST(ServeKernel, DeadlineFiringMidRunExpiresOnlyThatLane) {
  const auto snap = make_snapshot("base", 1, make_preset(GraphPreset::LiveJournal, 10, 3), {});
  const Csr& g = snap->graph;
  NodeId hub = 0;
  for (NodeId s = 0; s < g.num_slots(); ++s) {
    if (!g.is_hole(s) && g.degree(s) > g.degree(hub)) hub = s;
  }
  for (const QueryAlg alg : {QueryAlg::Sssp, QueryAlg::Bfs}) {
    // The first poll (before any work) passes; the next one, after the
    // kernel has made progress, fires.
    int polls = 0;
    std::vector<LaneSpec> lanes(2);
    lanes[0].source = hub;
    lanes[0].expired = [&polls] { return ++polls > 1; };
    lanes[1].source = hub;
    const MultiSourceOutcome out = run_multi_source(*snap, alg, lanes);
    ASSERT_EQ(out.lanes.size(), 2U);
    EXPECT_TRUE(out.lanes[0].expired) << query_alg_name(alg);
    EXPECT_EQ(polls, 2) << query_alg_name(alg);
    EXPECT_FALSE(out.lanes[1].expired);
    EXPECT_EQ(out.lanes[1].rounds, jacobi_oracle(*snap, alg, hub).rounds);
    EXPECT_GT(out.lanes[1].reached, 1U);
  }
}

}  // namespace
}  // namespace graffix::serve
