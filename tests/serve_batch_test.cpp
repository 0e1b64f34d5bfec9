// Grouping contract for `graffix serve`: queries admitted together and
// run as concurrent pool tasks produce byte-identical responses to
// per-query serial execution, at every thread count, under arbitrary
// client interleavings. Labeled `parallel`
// so the TSan shard exercises the concurrent paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "gen/suite.hpp"
#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "serve/batcher.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve_test_util.hpp"
#include "util/parallel.hpp"

namespace graffix::serve {
namespace {

using graffix::serve::testing::LineClient;
using graffix::serve::testing::connect_client;

constexpr int kThreadCounts[] = {1, 2, 8};

Csr bench_graph() { return make_preset(GraphPreset::LiveJournal, 8, 7); }

// ---- form_units ---------------------------------------------------------

TEST(ServeBatcher, GroupsCompatibleQueriesPreservingArrival) {
  std::vector<Request> reqs(6);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].op = Op::Query;
    reqs[i].alg = QueryAlg::Sssp;
    reqs[i].id = i;
  }
  reqs[2].alg = QueryAlg::Bfs;       // different alg: its own unit
  reqs[4].alg = QueryAlg::Pagerank;  // not batchable: singleton
  std::vector<const Request*> wave;
  for (const Request& r : reqs) wave.push_back(&r);

  const int snap_a = 0;
  const auto units = form_units(
      wave, [&](std::size_t) { return static_cast<const void*>(&snap_a); }, 32);
  // sssp{0,1,3,5}, bfs{2}, pr{4} — leaders in arrival order.
  ASSERT_EQ(units.size(), 3U);
  EXPECT_EQ(units[0], (std::vector<std::size_t>{0, 1, 3, 5}));
  EXPECT_EQ(units[1], (std::vector<std::size_t>{2}));
  EXPECT_EQ(units[2], (std::vector<std::size_t>{4}));
}

TEST(ServeBatcher, SplitsOnSnapshotAndLaneCap) {
  std::vector<Request> reqs(5);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].op = Op::Query;
    reqs[i].alg = QueryAlg::Sssp;
  }
  const int snap_a = 0;
  const int snap_b = 1;
  const auto units = form_units(
      std::vector<const Request*>{&reqs[0], &reqs[1], &reqs[2], &reqs[3],
                                  &reqs[4]},
      [&](std::size_t i) {
        return static_cast<const void*>(i == 2 ? &snap_b : &snap_a);
      },
      2);  // lane cap 2
  // a{0,1}, b{2}, a{3,4} — the cap closes a unit, a new one opens.
  ASSERT_EQ(units.size(), 3U);
  EXPECT_EQ(units[0], (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(units[1], (std::vector<std::size_t>{2}));
  EXPECT_EQ(units[2], (std::vector<std::size_t>{3, 4}));
}

// ---- Executor-level differential ----------------------------------------

TEST(ServeBatch, MultiSourceEqualsPerLaneSerialAtEveryThreadCount) {
  const auto snap = make_snapshot("base", 1, bench_graph(), {});
  const NodeId sources[] = {0, 1, 5, 9, 17, 33, 64, 100};
  const std::vector<NodeId> echo = {0, 2, 50, 111};

  for (const QueryAlg alg : {QueryAlg::Sssp, QueryAlg::Bfs}) {
    // Serial goldens: one lane per run, hardware-default threads.
    std::vector<LaneOutcome> golden;
    for (const NodeId s : sources) {
      LaneSpec lane;
      lane.source = s;
      lane.echo_nodes = echo;
      const MultiSourceOutcome one = run_multi_source(*snap, alg, {&lane, 1});
      ASSERT_FALSE(one.engine_busy);
      golden.push_back(one.lanes.front());
    }

    for (const int threads : kThreadCounts) {
      ScopedNumThreads pin(threads);
      std::vector<LaneSpec> lanes;
      for (const NodeId s : sources) {
        LaneSpec lane;
        lane.source = s;
        lane.echo_nodes = echo;
        lanes.push_back(std::move(lane));
      }
      const MultiSourceOutcome batched = run_multi_source(*snap, alg, lanes);
      ASSERT_FALSE(batched.engine_busy);
      ASSERT_EQ(batched.lanes.size(), golden.size());
      for (std::size_t k = 0; k < golden.size(); ++k) {
        EXPECT_EQ(batched.lanes[k].digest, golden[k].digest)
            << "alg " << query_alg_name(alg) << " lane " << k << " threads "
            << threads;
        EXPECT_EQ(batched.lanes[k].reached, golden[k].reached);
        EXPECT_EQ(batched.lanes[k].rounds, golden[k].rounds);
        EXPECT_EQ(batched.lanes[k].values, golden[k].values);
      }
    }
  }
}

// ---- Server-level differential ------------------------------------------

std::vector<std::string> query_frames() {
  const NodeId sources[] = {0, 1, 5, 9, 17, 33, 64, 100};
  std::vector<std::string> frames;
  for (std::size_t i = 0; i < std::size(sources); ++i) {
    frames.push_back(
        R"({"id":)" + std::to_string(i + 1) +
        R"(,"op":"query","alg":)" + (i % 2 == 0 ? R"("sssp")" : R"("bfs")") +
        R"(,"source":)" + std::to_string(sources[i]) + R"(,"nodes":[0,2,50]})");
  }
  return frames;
}

/// One query at a time against a lanes=1 server: the serial baseline.
std::map<std::uint64_t, std::string> serial_baseline(const Csr& graph) {
  ServerConfig cfg;
  cfg.max_batch_lanes = 1;
  Server server(graph, cfg);
  server.start();
  auto client = connect_client(server);
  std::map<std::uint64_t, std::string> out;
  for (const std::string& frame : query_frames()) {
    client->send(frame);
    const std::string line = client->recv_or_die();
    out[LineClient::extract_id(line)] = line;
  }
  server.stop();
  return out;
}

TEST(ServeBatch, BatchedServerMatchesSerialByteForByte) {
  const Csr graph = bench_graph();
  const auto golden = serial_baseline(graph);
  ASSERT_EQ(golden.size(), 8U);

  for (const int threads : kThreadCounts) {
    ScopedNumThreads pin(threads);
    ServerConfig cfg;
    cfg.max_batch_lanes = 8;
    Server server(graph, cfg);
    server.start();
    // Park the dispatcher so all 8 arrive in ONE wave — batching is then
    // guaranteed, not scheduling-dependent.
    server.hold_dispatch_for_test(true);
    auto client = connect_client(server);
    for (const std::string& frame : query_frames()) client->send(frame);
    server.hold_dispatch_for_test(false);
    const auto got = client->recv_by_id(8);
    EXPECT_EQ(got, golden) << "threads " << threads;
    const ServerMetrics m = server.metrics();
    EXPECT_GE(m.batches, 1U) << "wave must actually have batched";
    EXPECT_GE(m.batched_lanes, 4U);
    server.stop();
  }
}

// Satellite: randomized interleaving stress. N concurrent clients send a
// shuffled query mix; every response must be byte-identical to the serial
// baseline regardless of arrival order, wave composition, or thread count.
TEST(ServeBatch, RandomInterleavingsMatchSerial) {
  const Csr graph = bench_graph();
  const auto golden = serial_baseline(graph);

  constexpr int kClients = 8;
  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    ServerConfig cfg;
    cfg.max_batch_lanes = 8;
    Server server(graph, cfg);
    server.start();

    std::vector<std::unique_ptr<LineClient>> clients;
    for (int c = 0; c < kClients; ++c) clients.push_back(connect_client(server));

    std::vector<std::thread> threads;
    std::vector<std::map<std::uint64_t, std::string>> received(kClients);
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        // Deterministic per-thread shuffle; the OS scheduler supplies the
        // actual interleaving nondeterminism.
        std::vector<std::string> frames = query_frames();
        std::mt19937 rng(static_cast<std::uint32_t>(round * kClients + c));
        std::shuffle(frames.begin(), frames.end(), rng);
        for (const std::string& frame : frames) clients[c]->send(frame);
        received[c] = clients[c]->recv_by_id(frames.size());
      });
    }
    for (std::thread& t : threads) t.join();
    for (int c = 0; c < kClients; ++c) {
      EXPECT_EQ(received[c], golden) << "round " << round << " client " << c;
    }
    server.stop();
  }
}

}  // namespace
}  // namespace graffix::serve
