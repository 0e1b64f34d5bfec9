#include "graph/io.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>

#include "graph/builder.hpp"
#include "util/macros.hpp"

namespace graffix {

namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

FilePtr open_or_throw(const std::string& path, const char* mode) {
  FilePtr f(std::fopen(path.c_str(), mode));
  if (!f) {
    throw std::runtime_error("graffix: cannot open '" + path + "'");
  }
  return f;
}

/// Reads one full line into `out` (trailing newline stripped), growing
/// past the fixed fgets buffer. A line longer than the buffer must not be
/// split — the remainder would re-parse as a bogus extra record.
/// Returns false at end of file with nothing read.
bool read_line(std::FILE* f, std::string& out) {
  out.clear();
  char buf[512];
  bool got_any = false;
  while (std::fgets(buf, sizeof(buf), f)) {
    got_any = true;
    out += buf;
    if (!out.empty() && out.back() == '\n') {
      out.pop_back();
      return true;
    }
    // No newline yet: the line continues beyond the buffer (or the file
    // ends without one) — keep reading.
  }
  return got_any;
}

}  // namespace

Csr read_edge_list(const std::string& path, bool weighted, NodeId min_nodes) {
  FilePtr f = open_or_throw(path, "r");
  std::vector<EdgeTriple> edges;
  NodeId max_id = 0;
  std::string line;
  while (read_line(f.get(), line)) {
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    unsigned long long u = 0, v = 0;
    double w = 1.0;
    const int got = std::sscanf(line.c_str(), "%llu %llu %lf", &u, &v, &w);
    if (got < 2) continue;
    edges.push_back({static_cast<NodeId>(u), static_cast<NodeId>(v),
                     static_cast<Weight>(w)});
    max_id = std::max({max_id, static_cast<NodeId>(u), static_cast<NodeId>(v)});
  }
  const NodeId n = std::max(min_nodes, edges.empty() ? min_nodes : max_id + 1);
  GraphBuilder builder(n);
  builder.set_weighted(weighted);
  builder.add_edges(std::move(edges));
  return builder.build();
}

void write_edge_list(const Csr& graph, const std::string& path) {
  FilePtr f = open_or_throw(path, "w");
  const NodeId slots = graph.num_slots();
  for (NodeId u = 0; u < slots; ++u) {
    if (graph.is_hole(u)) continue;
    const auto nbrs = graph.neighbors(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (graph.has_weights()) {
        std::fprintf(f.get(), "%u %u %g\n", u, nbrs[i],
                     static_cast<double>(graph.edge_weights(u)[i]));
      } else {
        std::fprintf(f.get(), "%u %u\n", u, nbrs[i]);
      }
    }
  }
}

Csr read_dimacs(const std::string& path) {
  FilePtr f = open_or_throw(path, "r");
  std::string line;
  NodeId n = 0;
  std::vector<EdgeTriple> edges;
  while (read_line(f.get(), line)) {
    if (line.empty() || line[0] == 'c') continue;
    if (line[0] == 'p') {
      unsigned long long nn = 0, mm = 0;
      if (std::sscanf(line.c_str(), "p sp %llu %llu", &nn, &mm) == 2) {
        n = static_cast<NodeId>(nn);
        edges.reserve(mm);
      }
      continue;
    }
    if (line[0] == 'a') {
      unsigned long long u = 0, v = 0;
      double w = 1.0;
      if (std::sscanf(line.c_str(), "a %llu %llu %lf", &u, &v, &w) == 3) {
        // DIMACS ids are 1-based.
        edges.push_back({static_cast<NodeId>(u - 1), static_cast<NodeId>(v - 1),
                         static_cast<Weight>(w)});
      }
    }
  }
  GRAFFIX_CHECK(n > 0, "DIMACS file missing 'p sp' header: %s", path.c_str());
  GraphBuilder builder(n);
  builder.set_weighted(true);
  builder.add_edges(std::move(edges));
  return builder.build();
}

Csr read_matrix_market(const std::string& path) {
  FilePtr f = open_or_throw(path, "r");
  std::string line;
  // Header: %%MatrixMarket matrix coordinate <field> <symmetry>
  if (!read_line(f.get(), line) ||
      std::strncmp(line.c_str(), "%%MatrixMarket", 14) != 0) {
    throw std::runtime_error("graffix: '" + path +
                             "' is not a MatrixMarket file");
  }
  bool symmetric = line.find("symmetric") != std::string::npos;
  bool pattern = line.find("pattern") != std::string::npos;
  if (line.find("coordinate") == std::string::npos) {
    throw std::runtime_error("graffix: only coordinate .mtx is supported");
  }

  // Skip comments, read the size line.
  unsigned long long rows = 0, cols = 0, nnz = 0;
  while (read_line(f.get(), line)) {
    if (line.empty() || line[0] == '%') continue;
    if (std::sscanf(line.c_str(), "%llu %llu %llu", &rows, &cols, &nnz) != 3) {
      throw std::runtime_error("graffix: bad .mtx size line in '" + path +
                               "'");
    }
    break;
  }
  const auto n = static_cast<NodeId>(std::max(rows, cols));
  GraphBuilder builder(n);
  builder.set_weighted(!pattern);
  builder.reserve_edges(symmetric ? 2 * nnz : nnz);
  unsigned long long entries = 0;
  while (entries < nnz && read_line(f.get(), line)) {
    if (line.empty() || line[0] == '%') continue;
    unsigned long long r = 0, c = 0;
    double value = 1.0;
    const int got = std::sscanf(line.c_str(), "%llu %llu %lf", &r, &c, &value);
    if (got < 2 || r == 0 || c == 0 || r > n || c > n) {
      throw std::runtime_error("graffix: bad .mtx entry in '" + path + "'");
    }
    ++entries;
    const auto u = static_cast<NodeId>(r - 1);
    const auto v = static_cast<NodeId>(c - 1);
    const auto w = static_cast<Weight>(value);
    builder.add_edge(u, v, w);
    if (symmetric && u != v) builder.add_edge(v, u, w);
  }
  if (entries < nnz) {
    throw std::runtime_error("graffix: truncated .mtx '" + path + "'");
  }
  return builder.build();
}

void write_matrix_market(const Csr& graph, const std::string& path) {
  FilePtr f = open_or_throw(path, "w");
  std::fprintf(f.get(), "%%%%MatrixMarket matrix coordinate %s general\n",
               graph.has_weights() ? "real" : "pattern");
  std::fprintf(f.get(), "%u %u %llu\n", graph.num_slots(), graph.num_slots(),
               static_cast<unsigned long long>(graph.num_edges()));
  for (NodeId u = 0; u < graph.num_slots(); ++u) {
    if (graph.is_hole(u)) continue;
    const auto nbrs = graph.neighbors(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (graph.has_weights()) {
        std::fprintf(f.get(), "%u %u %g\n", u + 1, nbrs[i] + 1,
                     static_cast<double>(graph.edge_weights(u)[i]));
      } else {
        std::fprintf(f.get(), "%u %u\n", u + 1, nbrs[i] + 1);
      }
    }
  }
}

namespace {
constexpr std::uint64_t kBinaryMagic = 0x47524658'43535231ULL;  // "GRFXCSR1"
}

void write_binary(const Csr& graph, const std::string& path) {
  FilePtr f = open_or_throw(path, "wb");
  const std::uint64_t magic = kBinaryMagic;
  const std::uint64_t slots = graph.num_slots();
  const std::uint64_t edges = graph.num_edges();
  const std::uint64_t flags = (graph.has_weights() ? 1u : 0u) |
                              (graph.has_holes() ? 2u : 0u);
  std::fwrite(&magic, sizeof(magic), 1, f.get());
  std::fwrite(&slots, sizeof(slots), 1, f.get());
  std::fwrite(&edges, sizeof(edges), 1, f.get());
  std::fwrite(&flags, sizeof(flags), 1, f.get());
  std::fwrite(graph.offsets().data(), sizeof(EdgeId), slots + 1, f.get());
  std::fwrite(graph.targets().data(), sizeof(NodeId), edges, f.get());
  if (graph.has_weights()) {
    std::fwrite(graph.weights().data(), sizeof(Weight), edges, f.get());
  }
  if (graph.has_holes()) {
    std::fwrite(graph.holes().data(), 1, slots, f.get());
  }
}

Csr read_binary(const std::string& path) {
  FilePtr f = open_or_throw(path, "rb");
  std::uint64_t magic = 0, slots = 0, edges = 0, flags = 0;
  auto read_or_throw = [&](void* dst, std::size_t bytes) {
    if (std::fread(dst, 1, bytes, f.get()) != bytes) {
      throw std::runtime_error("graffix: truncated binary graph '" + path + "'");
    }
  };
  read_or_throw(&magic, sizeof(magic));
  if (magic != kBinaryMagic) {
    throw std::runtime_error("graffix: bad magic in '" + path + "'");
  }
  read_or_throw(&slots, sizeof(slots));
  read_or_throw(&edges, sizeof(edges));
  read_or_throw(&flags, sizeof(flags));
  std::vector<EdgeId> offsets(slots + 1);
  std::vector<NodeId> targets(edges);
  read_or_throw(offsets.data(), sizeof(EdgeId) * (slots + 1));
  read_or_throw(targets.data(), sizeof(NodeId) * edges);
  std::vector<Weight> weights;
  if (flags & 1u) {
    weights.resize(edges);
    read_or_throw(weights.data(), sizeof(Weight) * edges);
  }
  std::vector<std::uint8_t> holes;
  if (flags & 2u) {
    holes.resize(slots);
    read_or_throw(holes.data(), slots);
  }
  return Csr(std::move(offsets), std::move(targets), std::move(weights),
             std::move(holes));
}

}  // namespace graffix
