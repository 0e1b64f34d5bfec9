// Runner golden digests: whole runs pinned across versions.
//
// Every paper number is a ratio of two simulated run times plus an
// accuracy metric over the run's output, so the engine's counters and
// the runners' functional results must not drift when the simulator is
// reimplemented. This test runs SSSP, MST, SCC, PR and BC through the
// public Pipeline at scale 10 for every baseline — exact, and on the
// T1 (coalescing), T2 (latency) and T3 (divergence) transformed graphs —
// and pins, per run, every KernelStats counter, an FNV-1a digest of the
// attribute and scalar bits, the bits of sim_seconds, the iteration
// count and the trace length.
//
// The values were captured from the engine that walked accounting and
// replay in separate passes with division-based geometry and no
// accounting reuse. A mismatch prints the new row in initializer form;
// updating a row is a reviewed change to the simulator's semantics, not
// a refresh.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "algorithms/bc.hpp"
#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "gen/suite.hpp"

namespace graffix {
namespace {

struct Golden {
  const char* name;
  std::uint64_t counters[12];  // KernelStats, declaration order
  std::uint64_t attr_digest;   // attr bits, then scalar bits
  std::uint64_t sim_seconds_bits;
  std::uint32_t iterations;
  std::uint32_t trace_len;
};

// clang-format off
constexpr Golden kGolden[] = {
    {"topology/exact/SSSP", {9, 42704, 1366528, 120416, 35642, 103365, 46710, 0, 0, 2549, 8, 9216}, 0xcf0bb390afba8989ull, 0x3f6ec4df42b3c917ull, 8, 8},
    {"topology/exact/MST", {20, 30230, 967360, 101630, 27170, 77897, 35867, 0, 0, 2797, 227, 20480}, 0xe53ae42e0345e6b1ull, 0x3f6774141eb07b96ull, 5, 5},
    {"topology/exact/SCC", {18, 48527, 1552864, 144371, 20995, 119957, 53829, 0, 0, 7092, 353, 16564}, 0xddd0db7b9e58b7b8ull, 0x3f6f57dde1c7a430ull, 2, 2},
    {"topology/exact/PR", {51, 60812, 1945984, 214524, 27170, 154898, 70838, 0, 0, 162300, 11710, 52224}, 0xcbf930e3a7921809ull, 0x3f74813afd6f39deull, 10, 10},
    {"topology/exact/BC", {38, 45812, 1465984, 135322, 15686, 95780, 51970, 0, 0, 20614, 38, 38912}, 0x363964b5a5fbdbf3ull, 0x3f692872134b6013ull, 3, 3},
    {"topology/T1/SSSP", {19, 19214, 614848, 131634, 39410, 86121, 28241, 0, 0, 3169, 53, 10794}, 0x6d3180aa7e5153e7ull, 0x3f6beb2846bc7153ull, 9, 9},
    {"topology/T1/MST", {19, 10019, 320608, 82034, 21976, 48077, 16901, 0, 0, 2733, 223, 16974}, 0x457e16b0f5ca1548ull, 0x3f5f6a4454662942ull, 4, 4},
    {"topology/T1/SCC", {32, 22190, 710080, 150815, 21895, 94189, 32274, 0, 0, 6502, 713, 18434}, 0xddd0db7b9e58b7b8ull, 0x3f6a0b262e67d9beull, 2, 2},
    {"topology/T1/PR", {61, 25413, 813216, 216766, 27470, 119352, 41412, 0, 0, 162650, 25950, 54116}, 0xf7200f8c49d54e69ull, 0x3f70b7faedaea411ull, 10, 10},
    {"topology/T1/BC", {57, 21339, 682848, 137242, 15866, 79141, 31059, 0, 0, 20634, 654, 40622}, 0x8f17557e5d98bde2ull, 0x3f65c90721e184bfull, 3, 3},
    {"topology/T2/SSSP", {21, 53340, 1706880, 193641, 43294, 74365, 32193, 166927, 8157, 2546, 37, 11545}, 0x2c3b62d6dc5d0449ull, 0x3f6a4b437bebeb65ull, 7, 7},
    {"topology/T2/MST", {25, 28475, 911200, 108080, 31270, 65247, 29022, 20610, 1355, 3137, 215, 22875}, 0xe53ae42e0345e6b1ull, 0x3f65a60c9fbca83cull, 5, 5},
    {"topology/T2/SCC", {30, 45103, 1443296, 156255, 24064, 100103, 44233, 32977, 2120, 6211, 337, 22306}, 0x9337717d27379571ull, 0x3f6bd4a8733b9200ull, 2, 2},
    {"topology/T2/PR", {61, 57302, 1833664, 227424, 31270, 129598, 57148, 41220, 2710, 170410, 12970, 57014}, 0x9c9caece4aa24a3cull, 0x3f7241034051850dull, 10, 10},
    {"topology/T2/BC", {66, 44288, 1417216, 152546, 18146, 91514, 53294, 24648, 1144, 20082, 72, 51234}, 0xea673356cd75361cull, 0x3f692d776b3650a0ull, 3, 3},
    {"topology/T3/SSSP", {9, 11727, 375264, 121889, 36214, 84148, 22229, 0, 0, 2494, 49, 9216}, 0xcf0bb390afba8989ull, 0x3f6a9f99ea7b2f8dull, 8, 8},
    {"topology/T3/MST", {20, 8120, 259840, 102695, 27640, 63962, 18292, 0, 0, 2791, 322, 20480}, 0xe53ae42e0345e6b1ull, 0x3f6475d9e073a549ull, 5, 5},
    {"topology/T3/SCC", {18, 13644, 436608, 146141, 21310, 95670, 26165, 0, 0, 3849, 180, 16564}, 0xddd0db7b9e58b7b8ull, 0x3f6a04ad67f291f4ull, 2, 2},
    {"topology/T3/PR", {51, 16592, 530944, 216654, 27640, 127028, 35688, 0, 0, 164430, 36520, 52224}, 0xde634a43b7c92481ull, 0x3f71885442c79636ull, 10, 10},
    {"topology/T3/BC", {38, 14892, 476544, 136600, 15950, 82356, 26262, 0, 0, 20700, 928, 38912}, 0x024826c22ca94285ull, 0x3f6639486418be58ull, 3, 3},
    {"tigr/exact/SSSP", {17, 2811, 89952, 40837, 5262, 31336, 6303, 0, 0, 2557, 15, 5447}, 0xcf0bb390afba8989ull, 0x3f509c09eda1c25cull, 8, 8},
    {"tigr/exact/MST", {25, 7570, 242240, 108330, 13440, 76567, 17647, 0, 0, 2780, 218, 27180}, 0xe53ae42e0345e6b1ull, 0x3f642f15da397c60ull, 5, 5},
    {"tigr/exact/SCC", {30, 5194, 166208, 77849, 4762, 57528, 12011, 0, 0, 7279, 371, 13516}, 0xddd0db7b9e58b7b8ull, 0x3f5c4f8c69b91ed6ull, 2, 2},
    {"tigr/exact/PR", {61, 15492, 495744, 227924, 13440, 152238, 34398, 0, 0, 162300, 12160, 65624}, 0x18ca80d001a87b61ull, 0x3f72bf15c024c80bull, 10, 10},
    {"tigr/exact/BC", {70, 6820, 218240, 114042, 6230, 84922, 17902, 0, 0, 20614, 716, 17632}, 0xe35899f8e6eabaa8ull, 0x3f65194587d38ba3ull, 3, 3},
    {"tigr/T1/SSSP", {28, 2398, 76736, 42096, 4400, 26257, 6290, 0, 0, 2555, 32, 5975}, 0x5850bce54556d1dbull, 0x3f4ca300e89f04c9ull, 9, 9},
    {"tigr/T1/MST", {23, 4607, 147424, 87502, 7808, 49089, 13685, 0, 0, 2750, 178, 22442}, 0x457e16b0f5ca1548ull, 0x3f59bbc6567fa224ull, 4, 4},
    {"tigr/T1/SCC", {45, 4571, 146272, 86589, 4103, 52522, 12734, 0, 0, 6902, 710, 14356}, 0xddd0db7b9e58b7b8ull, 0x3f5a42ee1843b8c9ull, 2, 2},
    {"tigr/T1/PR", {71, 11883, 380256, 230436, 9760, 121882, 33372, 0, 0, 162650, 21100, 67786}, 0xb329fdf50e30cf57ull, 0x3f6e33cab168d530ull, 10, 10},
    {"tigr/T1/BC", {89, 6253, 200096, 115088, 5632, 70963, 17935, 0, 0, 20634, 846, 18468}, 0xfa2ba9630a85542dull, 0x3f622d18a41b2177ull, 3, 3},
    {"tigr/T2/SSSP", {24, 5813, 186016, 43884, 11212, 27272, 6348, 8429, 563, 2746, 19, 6215}, 0xec5d665bc0bca614ull, 0x3f51a8334fbeb29dull, 8, 8},
    {"tigr/T2/MST", {30, 14270, 456640, 114225, 26720, 64777, 17797, 20610, 1355, 3160, 198, 29020}, 0xe53ae42e0345e6b1ull, 0x3f649969fd0558c8ull, 5, 5},
    {"tigr/T2/SCC", {42, 10088, 322816, 80759, 9618, 47539, 11620, 15854, 1120, 6224, 340, 14480}, 0x9337717d27379571ull, 0x3f5a6cdb0b8bf57cull, 2, 2},
    {"tigr/T2/PR", {71, 28892, 924544, 239714, 26720, 128658, 34698, 41220, 2710, 170410, 13030, 69304}, 0x411ba6b067d8252dull, 0x3f71b4870688004full, 10, 10},
    {"tigr/T2/BC", {88, 14228, 455296, 120640, 13568, 72022, 17560, 24648, 1678, 20082, 882, 19328}, 0x3ad82668fd778f13ull, 0x3f64280d94d31d7eull, 3, 3},
    {"tigr/T3/SSSP", {17, 1802, 57664, 41335, 3244, 28810, 5690, 0, 0, 2438, 17, 5466}, 0xcf0bb390afba8989ull, 0x3f4d37403491e060ull, 8, 8},
    {"tigr/T3/MST", {25, 4605, 147360, 109440, 7500, 69647, 16017, 0, 0, 2725, 180, 27225}, 0xe53ae42e0345e6b1ull, 0x3f6159e7df603fd4ull, 5, 5},
    {"tigr/T3/SCC", {30, 3449, 110368, 78749, 3015, 53468, 10898, 0, 0, 3726, 37, 13549}, 0xddd0db7b9e58b7b8ull, 0x3f59bee17bbc336eull, 2, 2},
    {"tigr/T3/PR", {61, 9562, 305984, 230144, 7500, 138398, 31138, 0, 0, 164430, 24770, 65714}, 0x615a6f48d3f3a9ecull, 0x3f709ab758633b5full, 10, 10},
    {"tigr/T3/BC", {70, 4978, 159296, 115374, 4386, 80496, 16608, 0, 0, 20700, 752, 17686}, 0x649f0ef0f7bcea21ull, 0x3f63b7a5f606e306ull, 3, 3},
    {"gunrock/exact/SSSP", {17, 9828, 314496, 42063, 11710, 32216, 11973, 0, 0, 2549, 9, 6673}, 0xcf0bb390afba8989ull, 0x3f53daa40df7ca3cull, 8, 8},
    {"gunrock/exact/MST", {25, 30550, 977600, 111870, 27170, 79177, 37147, 0, 0, 2797, 227, 30720}, 0xe53ae42e0345e6b1ull, 0x3f67cffd3cfe6d4cull, 5, 5},
    {"gunrock/exact/SCC", {30, 20092, 642944, 80633, 10821, 59557, 24230, 0, 0, 7106, 355, 16300}, 0xddd0db7b9e58b7b8ull, 0x3f5fe9e17401272aull, 2, 2},
    {"gunrock/exact/PR", {61, 61452, 1966464, 235004, 27170, 157458, 73398, 0, 0, 162300, 11710, 72704}, 0xcbf930e3a7921809ull, 0x3f74dd241bbd2b94ull, 10, 10},
    {"gunrock/exact/BC", {70, 25168, 805376, 116942, 15686, 87644, 32476, 0, 0, 20614, 752, 20532}, 0x363964b5a5fbdbf3ull, 0x3f67ce1922b8ae98ull, 3, 3},
    {"gunrock/T1/SSSP", {28, 5229, 167328, 43480, 12220, 26445, 8420, 0, 0, 2621, 41, 7359}, 0x5850bce54556d1dbull, 0x3f51d99d24a8dcdcull, 9, 9},
    {"gunrock/T1/MST", {23, 10283, 329056, 90482, 21976, 49133, 17957, 0, 0, 2733, 223, 25422}, 0x457e16b0f5ca1548ull, 0x3f60007d950800ecull, 4, 4},
    {"gunrock/T1/SCC", {45, 10729, 343328, 89353, 11968, 52382, 17366, 0, 0, 6604, 716, 17120}, 0xddd0db7b9e58b7b8ull, 0x3f5daddf7321d40full, 2, 2},
    {"gunrock/T1/PR", {71, 26073, 834336, 237886, 27470, 121992, 44052, 0, 0, 162650, 25950, 75236}, 0xf7200f8c49d54e69ull, 0x3f71162d3338cb6full, 10, 10},
    {"gunrock/T1/BC", {89, 14049, 449568, 118108, 15866, 71311, 23731, 0, 0, 20634, 1088, 21488}, 0x8f17557e5d98bde2ull, 0x3f64846dd81f7268ull, 3, 3},
    {"gunrock/T2/SSSP", {24, 10835, 346720, 45369, 13792, 27843, 10538, 8429, 563, 2735, 19, 7700}, 0xec5d665bc0bca614ull, 0x3f530f0bcc35f596ull, 8, 8},
    {"gunrock/T2/MST", {30, 28795, 921440, 118320, 31270, 66527, 30302, 20610, 1355, 3137, 215, 33115}, 0xe53ae42e0345e6b1ull, 0x3f6601f5be0a99f3ull, 5, 5},
    {"gunrock/T2/SCC", {42, 19405, 620960, 83805, 12125, 48830, 19497, 15854, 1120, 6252, 341, 17526}, 0x9337717d27379571ull, 0x3f5c20140588254aull, 2, 2},
    {"gunrock/T2/PR", {71, 57942, 1854144, 247904, 31270, 132158, 59708, 41220, 2710, 170410, 12970, 77494}, 0x9c9caece4aa24a3cull, 0x3f729cec5e9f76c3ull, 10, 10},
    {"gunrock/T2/BC", {88, 27112, 867584, 124260, 18146, 73872, 28094, 24648, 1678, 20082, 834, 22948}, 0xea673356cd75361cull, 0x3f65970c806b7b20ull, 3, 3},
    {"gunrock/T3/SSSP", {17, 3512, 112384, 42542, 11904, 27415, 7152, 0, 0, 2479, 41, 6673}, 0xcf0bb390afba8989ull, 0x3f51cf3e4f7f527full, 8, 8},
    {"gunrock/T3/MST", {25, 8440, 270080, 112935, 27640, 65242, 19572, 0, 0, 2791, 322, 30720}, 0xe53ae42e0345e6b1ull, 0x3f64d1c2fec196ffull, 5, 5},
    {"gunrock/T3/SCC", {30, 6980, 223360, 81500, 10986, 49888, 13998, 0, 0, 3848, 180, 16300}, 0xddd0db7b9e58b7b8ull, 0x3f5bb0ea55097258ull, 2, 2},
    {"gunrock/T3/PR", {61, 17232, 551424, 237134, 27640, 129588, 38248, 0, 0, 164430, 36520, 72704}, 0xde634a43b7c92481ull, 0x3f71e43d611587ecull, 10, 10},
    {"gunrock/T3/BC", {70, 11480, 367360, 118220, 15950, 77122, 21908, 0, 0, 20700, 1162, 20532}, 0x024826c22ca94285ull, 0x3f6588102e3e8cd3ull, 3, 3},
};
// clang-format on

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ull;
  return h;
}

Golden digest_of(const core::RunOutput& out) {
  Golden g{};
  const sim::KernelStats& s = out.stats;
  const std::uint64_t counters[12] = {
      s.sweeps,           s.warp_steps,         s.lane_slots,
      s.active_lanes,     s.edge_transactions,  s.attr_transactions,
      s.attr_ideal_transactions, s.shared_accesses, s.bank_conflicts,
      s.atomic_commits,   s.atomic_conflicts,   s.aux_ops};
  std::memcpy(g.counters, counters, sizeof(counters));
  std::uint64_t h = 1469598103934665603ull;
  h = fnv1a(h, out.attr.data(), out.attr.size() * sizeof(double));
  h = fnv1a(h, &out.scalar, sizeof(double));
  g.attr_digest = h;
  std::memcpy(&g.sim_seconds_bits, &out.sim_seconds, sizeof(double));
  g.iterations = out.iterations;
  g.trace_len = static_cast<std::uint32_t>(out.trace.size());
  return g;
}

std::string initializer(const std::string& name, const Golden& g) {
  std::string s = "    {\"" + name + "\", {";
  for (int i = 0; i < 12; ++i) {
    s += std::to_string(g.counters[i]) + (i < 11 ? ", " : "");
  }
  char tail[160];
  std::snprintf(tail, sizeof(tail), "}, 0x%016llxull, 0x%016llxull, %u, %u},",
                static_cast<unsigned long long>(g.attr_digest),
                static_cast<unsigned long long>(g.sim_seconds_bits),
                g.iterations, g.trace_len);
  return s + tail;
}

const Golden* find_golden(const std::string& name) {
  for (const Golden& g : kGolden) {
    if (name == g.name) return &g;
  }
  return nullptr;
}

void expect_golden(const std::string& name, const core::RunOutput& out) {
  const Golden got = digest_of(out);
  const Golden* want = find_golden(name);
  if (want == nullptr) {
    ADD_FAILURE() << "no golden row; captured:\n" << initializer(name, got);
    return;
  }
  bool same = got.attr_digest == want->attr_digest &&
              got.sim_seconds_bits == want->sim_seconds_bits &&
              got.iterations == want->iterations &&
              got.trace_len == want->trace_len;
  for (int i = 0; i < 12; ++i) same = same && got.counters[i] == want->counters[i];
  EXPECT_TRUE(same) << name << " drifted; now:\n" << initializer(name, got);
}

struct Pipelines {
  const char* label;
  Technique technique;
};

constexpr Pipelines kPipelines[] = {
    {"exact", Technique::None},
    {"T1", Technique::Coalescing},
    {"T2", Technique::Latency},
    {"T3", Technique::Divergence},
};

/// Runs every algorithm through every pipeline for one baseline.
void run_baseline(baselines::BaselineId baseline, const char* tag) {
  constexpr std::uint32_t kScale = 10;
  constexpr std::uint64_t kSeed = 7;
  const Csr graph = make_preset(GraphPreset::Rmat26, kScale, kSeed);
  NodeId source = 0;
  for (NodeId v = 0; v < graph.num_slots(); ++v) {
    if (graph.degree(v) > graph.degree(source)) source = v;
  }
  const std::vector<NodeId> bc_nodes = sample_bc_sources(graph, 3, kSeed);
  for (const Pipelines& p : kPipelines) {
    core::ExperimentConfig config;
    config.scale = kScale;
    config.seed = kSeed;
    config.baseline = baseline;
    config.technique = p.technique;
    config = core::resolve_for_graph(config, GraphPreset::Rmat26);
    Pipeline pipeline(graph);
    core::apply_technique(pipeline, config);
    std::vector<NodeId> bc_slots;
    for (const NodeId v : bc_nodes) bc_slots.push_back(pipeline.slot_of_node(v));
    for (const core::Algorithm alg : core::all_algorithms()) {
      core::RunConfig rc;
      rc.baseline = baseline;
      rc.seed = kSeed;
      rc.collect_trace = true;
      const std::string name = std::string(tag) + "/" + p.label + "/" +
                               core::algorithm_name(alg);
      if (p.technique == Technique::None) {
        rc.sssp_source = source;
        rc.bc_sources = bc_nodes;
        expect_golden(name, pipeline.run_exact(alg, rc));
      } else {
        rc.sssp_source = pipeline.slot_of_node(source);
        rc.bc_sources = bc_slots;
        expect_golden(name, pipeline.run(alg, rc));
      }
    }
  }
}

TEST(RunnerGoldenDigest, TopologyDriven) {
  run_baseline(baselines::BaselineId::TopologyDriven, "topology");
}

TEST(RunnerGoldenDigest, TigrLike) {
  run_baseline(baselines::BaselineId::TigrLike, "tigr");
}

TEST(RunnerGoldenDigest, GunrockLike) {
  run_baseline(baselines::BaselineId::GunrockLike, "gunrock");
}

}  // namespace
}  // namespace graffix
