// serve-mixed: a resident serve::Server on the LiveJournal preset, driven
// by one client thread in a closed loop over a few socketpair
// connections. Queries (SSSP/BFS) are reads; a periodic `divergence`
// transform republishes a variant beside them, and later queries read it.
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "algorithms/bfs.hpp"
#include "algorithms/sssp.hpp"
#include "gen/suite.hpp"
#include "serve/server.hpp"
#include "transform/divergence.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace perfbench {

using graffix::Csr;
using graffix::NodeId;
using graffix::WallTimer;
namespace serve = graffix::serve;

namespace {

// Closed loop: each connection keeps kWindow requests outstanding and
// sends the next one when a response arrives. One client thread and no
// more connections than a 4-core box has cores.
constexpr int kConnections = 4;
constexpr int kWindow = 8;
/// run_s is the mean time the server takes to complete a block of this
/// many requests.
constexpr std::size_t kBlockRequests = 64;
/// A measured run sends at least this many requests, however short
/// --seconds is, so its percentiles rest on enough samples.
constexpr std::uint64_t kMinRequests = 960;
/// The traced pass sends this many requests, whatever --seconds says.
constexpr std::uint64_t kTracedRequests = 192;
/// A transform is sent on connection 0 once this many requests have been
/// sent since the previous one.
constexpr std::uint64_t kTransformEvery = 50;
constexpr std::size_t kEchoNodes = 4;
constexpr double kDivergenceThreshold = 0.3;
constexpr const char* kVariant = "div";
/// A run that sees no response for this long is abandoned; its
/// outstanding requests count as failed.
constexpr int kStallMs = 30000;

enum class Kind { Query, Transform };

struct Sent {
  Kind kind = Kind::Query;
  bool sssp = true;
  bool on_variant = false;
  NodeId source = 0;
  std::vector<NodeId> echo;
  double sent_s = 0.0;
  double recv_s = -1.0;  // < 0: no response
  std::string response;
};

struct Connection {
  int fd = -1;
  std::string buffer;
  int outstanding = 0;
};

/// The load generator. Owns its ends of the socketpairs; the server owns
/// the other ends.
class Client {
 public:
  Client(serve::Server& server, const Csr& base, std::uint64_t seed)
      : rng_(seed * 0x9E3779B97F4A7C15ULL + 17) {
    for (NodeId v = 0; v < base.num_slots(); ++v) {
      if (!base.is_hole(v)) nodes_.push_back(v);
    }
    for (Connection& c : conns_) {
      int sv[2] = {-1, -1};
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
        std::perror("socketpair");
        continue;
      }
      server.serve_fds(sv[0], sv[0]);
      c.fd = sv[1];
    }
  }
  ~Client() {
    for (Connection& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Keeps every connection's window full until `seconds` have passed
  /// and at least `min_requests` were sent, then drains. If the server
  /// stalls, the unanswered requests stay unanswered and count as failed.
  void run(double seconds, std::uint64_t min_requests, std::uint64_t parent_span) {
    const double start = trace_clock();
    const auto more = [&] {
      return log_.size() < min_requests || trace_clock() - start < seconds;
    };
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      for (int w = 0; w < kWindow && more(); ++w) send_next(c);
    }
    std::vector<pollfd> fds(conns_.size());
    while (true) {
      int waiting = 0;
      for (std::size_t c = 0; c < conns_.size(); ++c) {
        fds[c] = {conns_[c].fd, POLLIN, 0};
        waiting += conns_[c].outstanding;
      }
      if (waiting == 0) return;
      if (::poll(fds.data(), fds.size(), kStallMs) <= 0) return;
      for (std::size_t c = 0; c < conns_.size(); ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        for (std::size_t k = read_responses(c, parent_span); k > 0 && more(); --k) {
          send_next(c);
        }
      }
    }
  }

  [[nodiscard]] const std::vector<Sent>& log() const { return log_; }

 private:
  void send_next(std::size_t c) {
    Sent s;
    std::string frame;
    const std::uint64_t id = log_.size() + 1;  // ids are 1-based log slots
    const bool transform_due = c == 0 && !transform_outstanding_ &&
                               log_.size() - last_transform_at_ >= kTransformEvery;
    if (transform_due) {
      s.kind = Kind::Transform;
      transform_outstanding_ = true;
      last_transform_at_ = log_.size();
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "{\"id\":%llu,\"op\":\"transform\",\"variant\":\"base\","
                    "\"name\":\"%s\",\"kind\":\"divergence\",\"threshold\":%.2f}",
                    static_cast<unsigned long long>(id), kVariant,
                    kDivergenceThreshold);
      frame = buf;
    } else {
      std::uniform_int_distribution<std::size_t> pick(0, nodes_.size() - 1);
      s.sssp = (rng_() & 1U) == 0;
      s.source = nodes_[pick(rng_)];
      // A variant is read only after its publish reply has arrived.
      s.on_variant = variant_published_ && rng_() % 3 == 0;
      for (std::size_t i = 0; i < kEchoNodes; ++i) s.echo.push_back(nodes_[pick(rng_)]);
      frame = "{\"id\":" + std::to_string(id) + ",\"op\":\"query\",\"alg\":\"" +
              (s.sssp ? "sssp" : "bfs") + "\",\"source\":" + std::to_string(s.source) +
              ",\"variant\":\"" + (s.on_variant ? kVariant : "base") + "\",\"nodes\":[";
      for (std::size_t i = 0; i < s.echo.size(); ++i) {
        if (i != 0) frame += ',';
        frame += std::to_string(s.echo[i]);
      }
      frame += "]}";
    }
    frame += '\n';
    s.sent_s = trace_clock();
    log_.push_back(std::move(s));
    conns_[c].outstanding += 1;
    std::size_t off = 0;
    while (off < frame.size()) {
      const ssize_t w = ::write(conns_[c].fd, frame.data() + off, frame.size() - off);
      if (w <= 0) return;  // unanswered: counted as failed
      off += static_cast<std::size_t>(w);
    }
  }

  /// Drains readable bytes from connection c; returns how many requests
  /// they answered.
  std::size_t read_responses(std::size_t c, std::uint64_t parent_span) {
    Connection& conn = conns_[c];
    std::size_t answered = 0;
    char chunk[8192];
    const ssize_t n = ::read(conn.fd, chunk, sizeof chunk);
    if (n <= 0) {
      conn.outstanding = 0;  // peer gone; the rest count as failed
      return 0;
    }
    conn.buffer.append(chunk, static_cast<std::size_t>(n));
    const double now = trace_clock();
    std::size_t nl = 0;
    while ((nl = conn.buffer.find('\n')) != std::string::npos) {
      std::string line = conn.buffer.substr(0, nl);
      conn.buffer.erase(0, nl + 1);
      unsigned long long id = 0;
      if (std::sscanf(line.c_str(), "{\"id\":%llu", &id) != 1 || id == 0 ||
          id > log_.size() || log_[id - 1].recv_s >= 0.0) {
        continue;  // unmatched line: its request stays unanswered
      }
      Sent& s = log_[id - 1];
      s.recv_s = now;
      s.response = std::move(line);
      conn.outstanding -= 1;
      if (s.kind == Kind::Transform) {
        transform_outstanding_ = false;
        if (s.response.find("\"ok\":true") != std::string::npos) variant_published_ = true;
      }
      record_span(s.kind == Kind::Query ? "serve.query" : "serve.transform", parent_span,
                  id, s.sent_s, now);
      ++answered;
    }
    return answered;
  }

  std::mt19937_64 rng_;
  std::vector<NodeId> nodes_;
  std::array<Connection, kConnections> conns_;
  std::vector<Sent> log_;
  std::uint64_t last_transform_at_ = 0;
  bool transform_outstanding_ = false;
  bool variant_published_ = false;
};

// ---- Verification against host algorithms --------------------------------

/// What a query's answer must hold: the host's reached count and the
/// values of the nodes it echoes (+inf = unreached).
struct Expected {
  NodeId reached = 0;
  std::vector<double> echo;
};

/// Per-node host answer from `source`: distance or BFS level, +inf where
/// unreached.
std::vector<double> host_values(const Csr& graph, bool sssp, NodeId source) {
  std::vector<double> value(graph.num_slots(), INFINITY);
  if (sssp) {
    const std::vector<graffix::Weight> d = graffix::sssp_dijkstra(graph, source);
    for (std::size_t v = 0; v < d.size(); ++v) {
      if (d[v] < graffix::kInfWeight) value[v] = d[v];
    }
  } else {
    const std::vector<NodeId> level = graffix::parallel_bfs(graph, source);
    for (std::size_t v = 0; v < level.size(); ++v) {
      if (level[v] != graffix::kInvalidNode) value[v] = level[v];
    }
  }
  return value;
}

double json_number(const serve::JsonValue& v) {
  if (v.type == serve::JsonValue::Type::String && v.string == "inf") return INFINITY;
  return v.type == serve::JsonValue::Type::Number ? v.number : NAN;
}

bool close_enough(double got, double want) {
  if (std::isinf(want) || std::isinf(got)) return std::isinf(want) && std::isinf(got);
  return std::fabs(got - want) <= 1e-5 * std::max(1.0, std::fabs(want));
}

/// Checks every logged request against host algorithms on the graph of
/// the snapshot it read (base, or the divergence variant). Returns one
/// verdict per log entry.
std::vector<bool> verify(const std::vector<Sent>& log, const Csr& base) {
  graffix::transform::DivergenceKnobs knobs;
  knobs.degree_sim_threshold = kDivergenceThreshold;
  const graffix::transform::DivergenceResult variant =
      graffix::transform::divergence_transform(base, knobs);

  // One host run per distinct (variant, algorithm, source). Each run keeps
  // only what its queries check, so verification holds a few values per
  // request rather than a node-sized vector per source.
  using Key = std::tuple<bool, bool, NodeId>;
  std::map<Key, std::vector<std::size_t>> queries_of;
  for (std::size_t i = 0; i < log.size(); ++i) {
    const Sent& s = log[i];
    if (s.kind == Kind::Query) queries_of[Key{s.on_variant, s.sssp, s.source}].push_back(i);
  }
  const std::vector<std::pair<Key, std::vector<std::size_t>>> groups(queries_of.begin(),
                                                                     queries_of.end());
  std::vector<Expected> expected(log.size());
  graffix::parallel_for_dynamic(
      std::size_t{0}, groups.size(),
      [&](std::size_t g) {
        const auto& [key, queries] = groups[g];
        const auto& [on_variant, sssp, source] = key;
        const std::vector<double> value =
            host_values(on_variant ? variant.graph : base, sssp, source);
        NodeId reached = 0;
        for (const double x : value) reached += std::isfinite(x) ? 1 : 0;
        // Each query belongs to exactly one group, so the writes are disjoint.
        for (const std::size_t i : queries) {
          expected[i].reached = reached;
          for (const NodeId v : log[i].echo) expected[i].echo.push_back(value[v]);
        }
      },
      /*grain=*/1);

  std::vector<bool> ok(log.size(), false);
  for (std::size_t i = 0; i < log.size(); ++i) {
    const Sent& s = log[i];
    if (s.recv_s < 0.0) continue;
    serve::JsonValue doc;
    std::string error;
    if (!serve::parse_json(s.response, doc, error)) continue;
    const serve::JsonValue* okv = doc.find("ok");
    if (okv == nullptr || !okv->boolean) continue;
    const serve::JsonValue* variant_name = doc.find("variant");
    const std::string want_variant = s.on_variant || s.kind == Kind::Transform ? kVariant : "base";
    if (variant_name == nullptr || variant_name->string != want_variant) continue;
    if (s.kind == Kind::Transform) {
      const serve::JsonValue* added = doc.find("edges_added");
      const serve::JsonValue* edges = doc.find("edges");
      ok[i] = added != nullptr && edges != nullptr &&
              added->number == static_cast<double>(variant.edges_added) &&
              edges->number == static_cast<double>(variant.graph.num_edges());
      continue;
    }
    const Expected& e = expected[i];
    const serve::JsonValue* alg = doc.find("alg");
    const serve::JsonValue* reached = doc.find("reached");
    const serve::JsonValue* values = doc.find("values");
    if (alg == nullptr || alg->string != (s.sssp ? "sssp" : "bfs") || reached == nullptr ||
        reached->number != static_cast<double>(e.reached) || values == nullptr ||
        values->array.size() != s.echo.size()) {
      continue;
    }
    bool all = true;
    for (std::size_t k = 0; k < s.echo.size(); ++k) {
      all = all && close_enough(json_number(values->array[k]), e.echo[k]);
    }
    ok[i] = all;
  }
  return ok;
}

struct Resident {
  Csr graph;
  std::unique_ptr<serve::Server> server;
};

Resident set_up(std::uint64_t seed) {
  Resident r;
  {
    SpanGuard span("gen");
    r.graph = graffix::make_preset(graffix::GraphPreset::LiveJournal, kServeScale, seed);
  }
  SpanGuard span("serve.setup");
  r.server = std::make_unique<serve::Server>(r.graph);
  r.server->start();
  return r;
}

/// Client latencies (ms) of one kind of request; a request that failed
/// or got no answer counts as +inf.
std::vector<double> latencies_ms(const std::vector<Sent>& log, const std::vector<bool>& ok,
                                 Kind kind) {
  std::vector<double> ms;
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (log[i].kind != kind) continue;
    ms.push_back(ok[i] ? (log[i].recv_s - log[i].sent_s) * 1e3 : INFINITY);
  }
  return ms;
}

}  // namespace

Result measure_serve_mixed(const Args& args) {
  Result r;
  std::optional<Resident> resident;
  std::vector<double> setup;
  for (int i = 0; i < kSetupReps; ++i) {
    resident.reset();  // ~Server stops it
    WallTimer t;
    resident.emplace(set_up(args.seed));
    setup.push_back(t.seconds());
  }
  log_inputs("serve-mixed", {&resident->graph});
  std::vector<Sent> log;
  double start_s = 0.0;
  double peak_mb = 0.0;
  {
    Client client(*resident->server, resident->graph, args.seed);
    start_s = trace_clock();
    client.run(args.seconds, kMinRequests, 0);
    resident->server->stop();
    // The peak is the server's and the load generator's, taken before
    // verification allocates its own buffers.
    peak_mb = peak_rss_mb();
    log = client.log();
  }
  double end_s = start_s;
  for (const Sent& s : log) end_s = std::max(end_s, s.recv_s);
  const double total_s = end_s - start_s;
  const std::vector<bool> ok = verify(log, resident->graph);
  std::uint64_t queries_ok = 0;
  for (std::size_t i = 0; i < log.size(); ++i) {
    r.attempt(ok[i]);
    if (ok[i] && log[i].kind == Kind::Query) ++queries_ok;
  }
  const std::vector<double> query_ms = latencies_ms(log, ok, Kind::Query);
  r.set("setup_s", median(setup), "s");
  r.set("run_s",
        log.empty() ? 0.0 : total_s * static_cast<double>(kBlockRequests) /
                                 static_cast<double>(log.size()),
        "s");
  r.set("qps", total_s > 0.0 ? static_cast<double>(queries_ok) / total_s : 0.0, "1/s");
  r.set("query_p50_ms", percentile(query_ms, 50), "ms");
  r.set("query_p95_ms", percentile(query_ms, 95), "ms");
  r.set("peak_rss_mb", peak_mb, "MB");
  return r;
}

void trace_serve_mixed(const Args& args, Result& out) {
  set_tracing(true);
  std::vector<Sent> log;
  std::optional<Resident> resident;
  serve::ServerMetrics m;
  {
    SpanGuard root("serve-mixed");
    resident.emplace(set_up(args.seed));
    Client client(*resident->server, resident->graph, args.seed);
    client.run(0.0, kTracedRequests, current_span());
    // Counters are read only after stop(): a response is sent before it
    // is counted.
    resident->server->stop();
    m = resident->server->metrics();
    log = client.log();
  }
  const std::vector<bool> ok = verify(log, resident->graph);
  for (const bool v : ok) out.attempt(v);
  out.add("graph.csr_mb",
          static_cast<double>(resident->graph.memory_bytes()) / (1024.0 * 1024.0), "MB");
  out.set("serve.units", static_cast<double>(m.units), "count");
  out.set("serve.shed", static_cast<double>(m.shed), "count");
  out.set("serve.queue_peak", static_cast<double>(m.queue_peak), "count");
  out.set("serve.lanes_per_batch",
          m.batches == 0 ? 0.0
                         : static_cast<double>(m.batched_lanes) / static_cast<double>(m.batches),
          "count");
  out.set("serve.server_p50_ms", m.p50_ms, "ms");
  out.set("serve.server_p95_ms", m.p95_ms, "ms");
  out.set("serve.transform_ms", median(latencies_ms(log, ok, Kind::Transform)), "ms");

  // Kernel probes on a snapshot of the base graph: one lane, a full
  // 32-lane batch, and the host Dijkstra floor, each the median of a few
  // repetitions. Sources are the highest-degree nodes, so every probe
  // reaches most of the graph instead of a near-empty out-set.
  const Csr& base = resident->graph;
  const std::shared_ptr<const serve::GraphSnapshot> snap =
      serve::make_snapshot("probe", 1, base, {});
  std::vector<NodeId> sources;
  for (NodeId v = 0; v < base.num_slots(); ++v) {
    if (!base.is_hole(v)) sources.push_back(v);
  }
  std::stable_sort(sources.begin(), sources.end(), [&](NodeId a, NodeId b) {
    return base.degree(a) > base.degree(b);
  });
  sources.resize(std::min<std::size_t>(sources.size(), serve::kMaxBatchLanes));
  constexpr int kProbeReps = 5;
  std::vector<double> k1, k32, host;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    const NodeId s = sources[static_cast<std::size_t>(rep)];
    std::vector<serve::LaneSpec> one(1);
    one[0].source = s;
    std::vector<serve::LaneSpec> all(sources.size());
    for (std::size_t k = 0; k < sources.size(); ++k) all[k].source = sources[k];
    WallTimer t;
    serve::MultiSourceOutcome o1;
    {
      SpanGuard span("serve.kernel_k1");
      o1 = serve::run_multi_source(*snap, serve::QueryAlg::Sssp, one);
    }
    k1.push_back(t.millis());
    t.start();
    serve::MultiSourceOutcome o32;
    {
      SpanGuard span("serve.kernel_k32");
      o32 = serve::run_multi_source(*snap, serve::QueryAlg::Sssp, all);
    }
    k32.push_back(t.millis());
    t.start();
    std::vector<graffix::Weight> dist;
    {
      SpanGuard span("serve.host_sssp");
      dist = graffix::sssp_dijkstra(base, s);
    }
    host.push_back(t.millis());
    NodeId reached = 0;
    for (const graffix::Weight d : dist) reached += d < graffix::kInfWeight ? 1 : 0;
    out.attempt(!o1.engine_busy && o1.lanes.size() == 1 && o1.lanes[0].reached == reached);
    out.attempt(!o32.engine_busy && o32.lanes.size() == all.size() &&
                o32.lanes[static_cast<std::size_t>(rep)].reached == reached);
  }
  set_tracing(false);
  out.set("serve.kernel_k1_ms", median(k1), "ms");
  out.set("serve.kernel_k32_ms", median(k32), "ms");
  out.set("serve.host_sssp_ms", median(host), "ms");
}

}  // namespace perfbench
