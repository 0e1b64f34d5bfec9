// Serving throughput + tail latency: a closed-loop client fleet drives a
// resident `graffix serve` Server over socketpairs at 1, 8, and 64
// simulated clients. Each fleet pipelines a fixed query mix (SSSP/BFS,
// randomized sources), so larger fleets produce fuller dispatch waves
// and the batch-occupancy column shows how many queries admission
// grouped together. Writes BENCH_serve.json for trajectory tracking;
// the CI serve-smoke cell gates errors == 0.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "gen/suite.hpp"
#include "harness.hpp"
#include "serve/server.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace graffix::bench {
namespace {

/// Minimal blocking line client over one socketpair end.
class FleetClient {
 public:
  explicit FleetClient(serve::Server& server) {
    int sv[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      std::perror("socketpair");
      std::exit(1);
    }
    server.serve_fds(sv[0], sv[0]);
    fd_ = sv[1];
  }
  ~FleetClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  FleetClient(const FleetClient&) = delete;
  FleetClient& operator=(const FleetClient&) = delete;

  void send(const std::string& line) {
    std::string frame = line + "\n";
    std::size_t off = 0;
    while (off < frame.size()) {
      const ssize_t n = ::write(fd_, frame.data() + off, frame.size() - off);
      if (n <= 0) return;
      off += static_cast<std::size_t>(n);
    }
  }

  bool recv_line(std::string& out) {
    while (true) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        out.assign(buffer_, 0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

std::string query_frame(std::uint64_t id, bool sssp, NodeId source) {
  return "{\"id\":" + std::to_string(id) + ",\"op\":\"query\",\"alg\":\"" +
         (sssp ? "sssp" : "bfs") + "\",\"source\":" + std::to_string(source) +
         "}";
}

ServeBenchRow run_fleet(const Csr& graph, std::uint32_t clients,
                        std::uint64_t queries_per_client, std::uint64_t seed) {
  serve::Server server(graph);
  server.start();

  std::vector<std::unique_ptr<FleetClient>> fleet;
  fleet.reserve(clients);
  for (std::uint32_t c = 0; c < clients; ++c) {
    fleet.push_back(std::make_unique<FleetClient>(server));
  }

  std::uint64_t bad_responses = 0;
  std::mutex bad_mutex;
  WallTimer wall;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      // Pipelined closed loop: fire a window of requests, then read the
      // window's responses. The window is what lets dispatch waves fill
      // and batching engage even at low client counts.
      constexpr std::uint64_t kWindow = 16;
      std::mt19937_64 rng(seed * 1000003ULL + c);
      std::uniform_int_distribution<NodeId> pick(
          0, static_cast<NodeId>(graph.num_slots() - 1));
      std::uint64_t local_bad = 0;
      std::uint64_t sent = 0;
      while (sent < queries_per_client) {
        const std::uint64_t burst =
            std::min(kWindow, queries_per_client - sent);
        for (std::uint64_t q = 0; q < burst; ++q) {
          NodeId source = pick(rng);
          while (graph.is_hole(source)) source = pick(rng);
          fleet[c]->send(query_frame(sent + q + 1, (sent + q) % 2 == 0, source));
        }
        std::string line;
        for (std::uint64_t q = 0; q < burst; ++q) {
          if (!fleet[c]->recv_line(line) ||
              line.find("\"ok\":true") == std::string::npos) {
            ++local_bad;
          }
        }
        sent += burst;
      }
      if (local_bad > 0) {
        std::scoped_lock lk(bad_mutex);
        bad_responses += local_bad;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds = wall.seconds();

  const serve::ServerMetrics m = server.metrics();
  server.stop();

  ServeBenchRow row;
  row.clients = clients;
  row.queries = queries_per_client * clients;
  row.seconds = seconds;
  row.qps = seconds > 0.0 ? static_cast<double>(row.queries) / seconds : 0.0;
  row.p50_ms = m.p50_ms;
  row.p95_ms = m.p95_ms;
  row.p99_ms = m.p99_ms;
  row.units = m.units;
  row.batches = m.batches;
  row.batched_lanes = m.batched_lanes;
  row.errors = m.errors + bad_responses;
  return row;
}

}  // namespace
}  // namespace graffix::bench

int main(int argc, char** argv) {
  using namespace graffix;
  using namespace graffix::bench;

  BenchOptions options = parse_args(argc, argv);
  // The serving experiment targets the scale-16 preset by default (the
  // harness default of 11 is tuned for the table benches); --scale and
  // --quick still override.
  if (argc == 1) options.scale = 16;
  if (options.threads != 0) set_num_threads(options.threads);

  const Csr graph = make_preset(GraphPreset::LiveJournal, options.scale,
                                options.seed);
  const bool quick = options.scale <= 9;
  const std::uint64_t total = quick ? 64 : 192;

  std::vector<ServeBenchRow> rows;
  for (const std::uint32_t clients : {1U, 8U, 64U}) {
    rows.push_back(run_fleet(graph, clients,
                             std::max<std::uint64_t>(1, total / clients),
                             options.seed));
  }
  print_serve_table("Serving throughput (LiveJournal preset, scale " +
                        std::to_string(options.scale) + ")",
                    rows, graph.num_nodes(), graph.num_edges());
  return 0;
}
