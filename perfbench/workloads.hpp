// The workloads. paper-table, single-graph and serve-mixed each have a
// measured (untraced) run that reports the end-to-end metrics; every
// workload, preprocess too, has a traced pass that adds per-layer metrics.
#pragma once

#include "bench.hpp"

namespace perfbench {

// Input sizes. Every working set here fits in the last-level cache of the
// machines this was sized on (see WORKLOADS.md).
inline constexpr std::uint32_t kTableScale = 14;   // paper-table, preprocess pass
inline constexpr std::uint32_t kSingleScale = 16;  // single-graph
inline constexpr std::uint32_t kServeScale = 14;   // serve-mixed

/// Set-up is repeated this many times per run and its median reported.
inline constexpr int kSetupReps = 5;
/// A measured phase runs at least this many rounds, so run_s is a median.
inline constexpr int kMinRounds = 3;

Result measure_paper_table(const Args& args);
Result measure_single_graph(const Args& args);
Result measure_serve_mixed(const Args& args);

/// Traced passes: each records spans under a root span named after the
/// workload, adds its counters to `out`, and counts its correctness
/// checks in out.attempted / out.failed. The batch workloads time an
/// untraced, a traced and a pool-width-1 round, reported as
/// `<workload>.untraced_s`, `.traced_s` and `.w1_s` for main.cpp to turn
/// into the parallel.* and trace.overhead_s metrics.
void trace_paper_table(const Args& args, Result& out);
void trace_single_graph(const Args& args, Result& out);
void trace_preprocess(const Args& args, Result& out);
void trace_serve_mixed(const Args& args, Result& out);

}  // namespace perfbench
