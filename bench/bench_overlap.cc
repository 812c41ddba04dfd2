// Compute/communication overlap: serial vs double-buffered prefetch wall
// clock on real-mode fig-12 NMF cells (DESIGN.md section 14).
//
// Both modes run the same fused CFO plan over actual blocks with the
// emulated shuffle pace enabled (ClusterConfig::
// emulated_shuffle_seconds_per_byte), which stands in for network transfer
// time by sleeping per copied byte — so the host CPU is idle during a
// "transfer" and asynchronous prefetching can genuinely hide it, even on
// machines with few cores.  The only difference between the two runs is
// ClusterConfig::prefetch_depth: 0 (synchronous legacy fetch) vs 2 (double
// buffering).  Outputs and StageStats must be bitwise identical; the wall
// clock must not be.
//
// Environment overrides for quick smoke runs (scripts/run_bench_smoke.sh):
//   FUSEME_BENCH_OVERLAP_N      matrix dimension of the first cell
//   FUSEME_BENCH_OVERLAP_PACE   emulated seconds per copied byte

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "matrix/generators.h"
#include "telemetry/metrics.h"
#include "workloads/queries.h"

using namespace fuseme;         // NOLINT
using namespace fuseme::bench;  // NOLINT

namespace {

std::vector<BenchRecord> g_records;
Tracer g_tracer;            // includes the "prefetch" copy spans
MetricsRegistry g_metrics;  // embedded in BENCH_overlap.json

struct Cell {
  std::string label;
  std::int64_t n, k, bs;
  double density;
};

struct ModeResult {
  double wall_seconds = 0.0;
  double fetch_wait_seconds = 0.0;
  double compute_busy_seconds = 0.0;
  Engine::RunResult run;
};

ModeResult RunMode(const Cell& cell, const NmfPattern& q,
                   const FusionPlanSet& plans,
                   const std::map<NodeId, BlockedMatrix>& inputs,
                   int prefetch_depth, double pace) {
  EngineOptions options;
  options.system = SystemMode::kFuseMe;
  options.cluster.num_nodes = 2;
  options.cluster.tasks_per_node = 2;
  options.cluster.block_size = cell.bs;
  options.cluster.task_memory_budget = 1LL << 40;
  // Fixed work-item parallelism for BOTH modes; the pool keeps spare
  // workers for the staged copies, which is where overlap comes from.
  options.cluster.local_threads = 2;
  options.cluster.prefetch_depth = prefetch_depth;
  options.cluster.emulated_shuffle_seconds_per_byte = pace;
  options.tracer = &g_tracer;
  options.metrics = &g_metrics;

  ModeResult result;
  double best = 1e30;
  const Engine engine(options);
  const CompiledPlan plan =
      CompiledOrDie(engine.CompileWithPlans(q.dag, plans, OperatorKind::kCfo));
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    Engine::RunResult run = engine.Execute(plan, inputs);
    const auto t1 = std::chrono::steady_clock::now();
    if (!run.report.ok()) {
      std::fprintf(stderr, "overlap cell %s (depth %d) failed: %s\n",
                   cell.label.c_str(), prefetch_depth,
                   run.report.status.ToString().c_str());
      std::exit(1);
    }
    const double wall = std::chrono::duration<double>(t1 - t0).count();
    if (wall < best) {
      best = wall;
      result.fetch_wait_seconds = 0.0;
      result.compute_busy_seconds = 0.0;
      for (const StageTelemetry& t : run.report.telemetry) {
        result.fetch_wait_seconds += t.pipeline.fetch_wait_seconds;
        result.compute_busy_seconds += t.pipeline.compute_busy_seconds;
      }
      result.run = std::move(run);
    }
  }
  result.wall_seconds = best;
  return result;
}

void RunCell(const Cell& cell, double pace) {
  NmfPattern q = BuildNmfPattern(
      cell.n, cell.n, cell.k,
      static_cast<std::int64_t>(static_cast<double>(cell.n) *
                                static_cast<double>(cell.n) * cell.density));
  FusionPlanSet full;
  full.plans.emplace_back(
      &q.dag, std::vector<NodeId>{q.vT, q.mm, q.add, q.log, q.mul}, q.mul);
  std::map<NodeId, BlockedMatrix> inputs;
  inputs[q.X] = BlockedMatrix::FromSparse(
      RandomSparse(cell.n, cell.n, cell.density, 1, 1.0, 2.0), cell.bs);
  inputs[q.U] = BlockedMatrix::FromDense(
      RandomDense(cell.n, cell.k, 2, 0.5, 1.5), cell.bs);
  inputs[q.V] = BlockedMatrix::FromDense(
      RandomDense(cell.n, cell.k, 3, 0.5, 1.5), cell.bs);

  ModeResult serial = RunMode(cell, q, full, inputs, /*prefetch_depth=*/0,
                              pace);
  ModeResult prefetch = RunMode(cell, q, full, inputs, /*prefetch_depth=*/2,
                                pace);

  // Overlap must be invisible to results and accounting.
  const DenseMatrix a = serial.run.outputs.at(q.mul).blocks().ToDense();
  const DenseMatrix b = prefetch.run.outputs.at(q.mul).blocks().ToDense();
  if (DenseMatrix::MaxAbsDiff(a, b) != 0.0) {
    std::fprintf(stderr, "FAIL: %s: prefetch changed the outputs\n",
                 cell.label.c_str());
    std::exit(1);
  }
  const ExecutionReport& sr = serial.run.report;
  const ExecutionReport& pr = prefetch.run.report;
  if (sr.consolidation_bytes != pr.consolidation_bytes ||
      sr.aggregation_bytes != pr.aggregation_bytes || sr.flops != pr.flops ||
      sr.max_task_memory != pr.max_task_memory) {
    std::fprintf(stderr, "FAIL: %s: prefetch changed StageStats\n",
                 cell.label.c_str());
    std::exit(1);
  }

  const double speedup = serial.wall_seconds / prefetch.wall_seconds;
  std::printf(
      "%-14s depth 0: %.3fs (fetch-wait %.3fs)   depth 2: %.3fs "
      "(fetch-wait %.3fs)   speedup %.2fx\n",
      cell.label.c_str(), serial.wall_seconds, serial.fetch_wait_seconds,
      prefetch.wall_seconds, prefetch.fetch_wait_seconds, speedup);

  auto record = [&](const char* name, const ModeResult& mode, int depth) {
    char wait[32], busy[32];
    std::snprintf(wait, sizeof(wait), "%.6f", mode.fetch_wait_seconds);
    std::snprintf(busy, sizeof(busy), "%.6f", mode.compute_busy_seconds);
    BenchRecord r = RecordFor(
        name, mode.run.report,
        {{"cell", cell.label},
         {"n", std::to_string(cell.n)},
         {"k", std::to_string(cell.k)},
         {"block_size", std::to_string(cell.bs)},
         {"prefetch_depth", std::to_string(depth)},
         {"local_threads", "2"},
         {"fetch_wait_seconds", wait},
         {"compute_busy_seconds", busy}});
    r.elapsed_seconds = mode.wall_seconds;  // wall clock, not modeled
    return r;
  };
  BenchRecord rec_serial = record("overlap_serial", serial, 0);
  BenchRecord rec_prefetch = record("overlap_prefetch", prefetch, 2);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", speedup);
  rec_prefetch.config.emplace_back("speedup", buf);
  g_records.push_back(std::move(rec_serial));
  g_records.push_back(std::move(rec_prefetch));
}

}  // namespace

int main() {
  std::int64_t n = 768;
  if (const char* env = std::getenv("FUSEME_BENCH_OVERLAP_N")) {
    n = std::max<std::int64_t>(128, std::atoll(env));
  }
  // ~6 MB/s emulated shuffle: slow enough that block consolidation
  // dominates the fetch-heavy cells, the regime Fig. 12 bars live in.
  double pace = 1.6e-7;
  if (const char* env = std::getenv("FUSEME_BENCH_OVERLAP_PACE")) {
    pace = std::atof(env);
  }
  // Fixed pool size so results do not depend on the host's core count; the
  // copies need spare workers beyond the 2 work-item threads.
  SetGlobalThreadPoolThreads(8);

  std::printf(
      "=== Async shuffle overlap: prefetch_depth 0 vs 2, real-mode CFO, "
      "emulated shuffle %.1e s/B ===\n\n",
      pace);
  // Two fig-12-style cells: a sparse fetch-dominated square NMF and a
  // denser, wider-k variant with more transfer per output block.
  RunCell({"nmf_sparse", n, /*k=*/64, /*bs=*/64, /*density=*/0.02}, pace);
  RunCell({"nmf_wide_k", (n * 3) / 4, /*k=*/128, /*bs=*/64,
           /*density=*/0.05},
          pace);

  if (!WriteBenchJson("overlap", g_records, g_metrics.Snapshot().ToJson())) {
    return 1;
  }
  WriteTraceJson("overlap", g_tracer);
  return 0;
}
