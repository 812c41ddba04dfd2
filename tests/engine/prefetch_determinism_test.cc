// Asynchronous block prefetching must be invisible (DESIGN.md section 14):
// for every prefetch_depth — 0 (synchronous legacy), 1, 2 (double
// buffering), 8 (deep) — real-mode runs produce bitwise-identical outputs,
// StageStats, and recovery counters at any thread count, including under
// injected task-failure schedules that kill attempts with prefetches still
// in flight.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/thread_pool.h"
#include "engine/compiled_plan.h"
#include "engine/engine.h"
#include "matrix/generators.h"
#include "workloads/queries.h"

namespace fuseme {
namespace {

constexpr std::int64_t kBs = 8;

EngineOptions Options(int local_threads, int prefetch_depth) {
  EngineOptions options;
  options.cluster.num_nodes = 2;
  options.cluster.tasks_per_node = 3;
  options.cluster.block_size = kBs;
  options.cluster.task_memory_budget = 1LL << 40;
  options.cluster.local_threads = local_threads;
  options.cluster.prefetch_depth = prefetch_depth;
  return options;
}

void ExpectIdenticalRuns(const Engine::RunResult& base,
                         const Engine::RunResult& other) {
  ASSERT_TRUE(base.report.ok()) << base.report.status;
  ASSERT_TRUE(other.report.ok()) << other.report.status;

  ASSERT_EQ(base.outputs.size(), other.outputs.size());
  for (const auto& [id, dm] : base.outputs) {
    auto it = other.outputs.find(id);
    ASSERT_NE(it, other.outputs.end());
    EXPECT_EQ(DenseMatrix::MaxAbsDiff(dm.blocks().ToDense(),
                                      it->second.blocks().ToDense()),
              0.0)
        << "output v" << id;
  }

  const ExecutionReport& a = base.report;
  const ExecutionReport& b = other.report;
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (std::size_t s = 0; s < a.stages.size(); ++s) {
    SCOPED_TRACE("stage " + a.stages[s].label);
    EXPECT_EQ(a.stages[s].label, b.stages[s].label);
    EXPECT_EQ(a.stages[s].num_tasks, b.stages[s].num_tasks);
    EXPECT_EQ(a.stages[s].consolidation_bytes,
              b.stages[s].consolidation_bytes);
    EXPECT_EQ(a.stages[s].aggregation_bytes, b.stages[s].aggregation_bytes);
    EXPECT_EQ(a.stages[s].flops, b.stages[s].flops);
    EXPECT_EQ(a.stages[s].max_task_memory, b.stages[s].max_task_memory);
    // The modeled cluster time must not depend on host-side prefetching.
    EXPECT_EQ(a.stages[s].elapsed_seconds, b.stages[s].elapsed_seconds);
  }
  EXPECT_EQ(a.consolidation_bytes, b.consolidation_bytes);
  EXPECT_EQ(a.aggregation_bytes, b.aggregation_bytes);
  EXPECT_EQ(a.flops, b.flops);
  EXPECT_EQ(a.max_task_memory, b.max_task_memory);
  EXPECT_EQ(a.elapsed_seconds, b.elapsed_seconds);

  // Recovery: the injector's schedule is a pure function of
  // (seed, stage, item, attempt), so prefetching cannot change it.
  ASSERT_EQ(a.telemetry.size(), b.telemetry.size());
  for (std::size_t s = 0; s < a.telemetry.size(); ++s) {
    SCOPED_TRACE("telemetry " + a.telemetry[s].label);
    EXPECT_EQ(a.telemetry[s].recovery.attempts, b.telemetry[s].recovery.attempts);
    EXPECT_EQ(a.telemetry[s].recovery.retries, b.telemetry[s].recovery.retries);
    EXPECT_EQ(a.telemetry[s].recovery.injected_failures,
              b.telemetry[s].recovery.injected_failures);
    EXPECT_EQ(a.telemetry[s].recovery.exhausted_items,
              b.telemetry[s].recovery.exhausted_items);
  }
}

class PrefetchDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    previous_ = GlobalParallelism();
    SetGlobalThreadPoolThreads(8);
  }
  void TearDown() override { SetGlobalThreadPoolThreads(previous_); }

 private:
  int previous_ = 1;
};

struct GnmfFixture {
  GnmfQuery q;
  std::map<NodeId, BlockedMatrix> inputs;

  GnmfFixture() : q(BuildGnmf(26, 20, 6, /*x_nnz=*/104)) {
    SparseMatrix x = RandomSparse(26, 20, 0.2, /*seed=*/51, 1.0, 5.0);
    DenseMatrix v = RandomDense(26, 6, /*seed=*/52, 0.5, 1.5);
    DenseMatrix u = RandomDense(6, 20, /*seed=*/53, 0.5, 1.5);
    inputs[q.X] = BlockedMatrix::FromSparse(x, kBs);
    inputs[q.V] = BlockedMatrix::FromDense(v, kBs);
    inputs[q.U] = BlockedMatrix::FromDense(u, kBs);
  }
};

TEST_F(PrefetchDeterminismTest, GnmfSweepOverDepthsAndThreads) {
  GnmfFixture f;
  Engine baseline(Options(/*local_threads=*/1, /*prefetch_depth=*/0));
  Result<CompiledPlan> base_compiled = baseline.Compile(f.q.dag);
  ASSERT_TRUE(base_compiled.ok()) << base_compiled.status();
  const Engine::RunResult base = baseline.Execute(*base_compiled, f.inputs);
  for (int depth : {1, 2, 8}) {
    for (int threads : {1, 4, 8}) {
      SCOPED_TRACE("depth " + std::to_string(depth) + " threads " +
                   std::to_string(threads));
      Engine engine(Options(threads, depth));
      Result<CompiledPlan> compiled = engine.Compile(f.q.dag);
      ASSERT_TRUE(compiled.ok()) << compiled.status();
      ExpectIdenticalRuns(base, engine.Execute(*compiled, f.inputs));
    }
  }
}

TEST_F(PrefetchDeterminismTest, ForcedOperatorsSweepOverDepths) {
  // The fused NMF plan forced through each physical operator; kCpmm's
  // R>1 two-phase path exercises prefetch across the k-split and the
  // injected-partial second phase.
  NmfPattern q = BuildNmfPattern(40, 36, 24, /*x_nnz=*/288);
  std::map<NodeId, BlockedMatrix> inputs;
  inputs[q.X] = BlockedMatrix::FromSparse(
      RandomSparse(40, 36, 0.2, /*seed=*/61, 1.0, 5.0), kBs);
  inputs[q.U] =
      BlockedMatrix::FromDense(RandomDense(40, 24, /*seed=*/62, 0.5, 1.5), kBs);
  inputs[q.V] =
      BlockedMatrix::FromDense(RandomDense(36, 24, /*seed=*/63, 0.5, 1.5), kBs);
  FusionPlanSet full;
  full.plans.emplace_back(
      &q.dag, std::vector<NodeId>{q.vT, q.mm, q.add, q.log, q.mul}, q.mul);
  for (OperatorKind kind : {OperatorKind::kCfo, OperatorKind::kBfo,
                            OperatorKind::kRfo, OperatorKind::kCpmm}) {
    SCOPED_TRACE("operator " + std::to_string(static_cast<int>(kind)));
    Engine baseline(Options(/*local_threads=*/1, /*prefetch_depth=*/0));
    // One artifact for every depth: prefetch_depth is result-invariant,
    // so CheckCompatible accepts it on engines with different depths and
    // the replayed plan must stay bitwise identical.
    auto compiled = baseline.CompileWithPlans(q.dag, full, kind);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    const Engine::RunResult base = baseline.Execute(*compiled, inputs);
    for (int depth : {2, 8}) {
      SCOPED_TRACE("depth " + std::to_string(depth));
      Engine engine(Options(/*local_threads=*/8, depth));
      ExpectIdenticalRuns(base, engine.Execute(*compiled, inputs));
    }
  }
}

TEST_F(PrefetchDeterminismTest, FaultScheduleReplaysInFlightPrefetches) {
  // An injected task failure kills a work-item attempt while its
  // prefetches are still staged; the retry must replay from scratch with
  // identical results and an identical recovery trace at every depth.
  GnmfFixture f;
  for (const auto& [seed, probability] :
       std::vector<std::pair<std::uint64_t, double>>{{7, 0.3}, {11, 0.6}}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    EngineOptions base_opts = Options(/*local_threads=*/1, 0);
    base_opts.faults.seed = seed;
    base_opts.faults.task_failure_probability = probability;
    base_opts.recovery.retry.max_attempts = 5;
    base_opts.recovery.retry.backoff_base_seconds = 0.0;
    Engine baseline(base_opts);
    Result<CompiledPlan> base_compiled = baseline.Compile(f.q.dag);
    ASSERT_TRUE(base_compiled.ok()) << base_compiled.status();
    const Engine::RunResult base = baseline.Execute(*base_compiled, f.inputs);
    ASSERT_TRUE(base.report.ok()) << base.report.status;
    for (int depth : {1, 2, 8}) {
      for (int threads : {1, 8}) {
        SCOPED_TRACE("depth " + std::to_string(depth) + " threads " +
                     std::to_string(threads));
        EngineOptions opts = Options(threads, depth);
        opts.faults = base_opts.faults;
        opts.recovery = base_opts.recovery;
        Engine engine(opts);
        Result<CompiledPlan> compiled = engine.Compile(f.q.dag);
        ASSERT_TRUE(compiled.ok()) << compiled.status();
        ExpectIdenticalRuns(base, engine.Execute(*compiled, f.inputs));
      }
    }
  }
}

TEST_F(PrefetchDeterminismTest, ElapsedSecondsSetOnBothExecutionPaths) {
  // StageStats.elapsed_seconds is the *modeled* cluster time, and the
  // engine fills it on the real path exactly as on the analytic path.
  GnmfFixture f;
  EngineOptions real_opts = Options(/*local_threads=*/4, 2);
  EngineOptions analytic_opts = real_opts;
  analytic_opts.analytic = true;
  Engine real_engine(real_opts);
  Engine analytic_engine(analytic_opts);
  Result<CompiledPlan> real_compiled = real_engine.Compile(f.q.dag);
  ASSERT_TRUE(real_compiled.ok()) << real_compiled.status();
  const Engine::RunResult real = real_engine.Execute(*real_compiled, f.inputs);
  Result<CompiledPlan> analytic_compiled = analytic_engine.Compile(f.q.dag);
  ASSERT_TRUE(analytic_compiled.ok()) << analytic_compiled.status();
  const Engine::RunResult analytic =
      analytic_engine.Execute(*analytic_compiled, f.inputs);
  ASSERT_TRUE(real.report.ok()) << real.report.status;
  ASSERT_TRUE(analytic.report.ok()) << analytic.report.status;
  for (const Engine::RunResult* run : {&real, &analytic}) {
    for (const StageStats& s : run->report.stages) {
      if (s.num_tasks > 0) {
        EXPECT_GT(s.elapsed_seconds, 0.0) << s.label;
      }
    }
  }
}

TEST_F(PrefetchDeterminismTest, PipelineTelemetryRecordsPrefetchActivity) {
  // With prefetching on, real-mode stages report staged-copy consumption
  // in StageTelemetry.pipeline — wall-clock observability only, never
  // folded into StageStats.
  GnmfFixture f;
  Engine engine(Options(/*local_threads=*/4, /*prefetch_depth=*/2));
  Result<CompiledPlan> compiled = engine.Compile(f.q.dag);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  const Engine::RunResult run = engine.Execute(*compiled, f.inputs);
  ASSERT_TRUE(run.report.ok()) << run.report.status;
  std::int64_t consumed = 0;
  for (const StageTelemetry& t : run.report.telemetry) {
    consumed += t.pipeline.prefetch_ready + t.pipeline.prefetch_waited +
                t.pipeline.prefetch_stolen;
    EXPECT_GE(t.pipeline.compute_busy_seconds, 0.0);
    EXPECT_GE(t.pipeline.fetch_wait_seconds, 0.0);
    const double eff = t.pipeline.OverlapEfficiency();
    EXPECT_GE(eff, 0.0);
    EXPECT_LE(eff, 1.0);
  }
  EXPECT_GT(consumed, 0) << "no staged block was ever consumed";
}

}  // namespace
}  // namespace fuseme
