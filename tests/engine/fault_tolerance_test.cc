// Fault-tolerant execution (DESIGN.md section 13): under any seeded
// failure schedule the engine must produce bitwise-identical numeric
// results and stage statistics, report exact retry/degradation counters
// (replayable from the injector hash), recover formerly-O.O.M. workloads
// via the degradation ladder, model straggler speculation in cluster
// time, and trip the run deadline deterministically.

#include <gtest/gtest.h>

#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

#include "engine/compiled_plan.h"
#include "engine/engine.h"
#include "engine/reference.h"
#include "matrix/generators.h"
#include "telemetry/event_journal.h"
#include "telemetry/metric_names.h"
#include "telemetry/metrics.h"
#include "telemetry/tracer.h"
#include "workloads/queries.h"

namespace fuseme {
namespace {

constexpr std::int64_t kBs = 8;

EngineOptions Options(SystemMode mode) {
  EngineOptions options;
  options.system = mode;
  options.cluster.num_nodes = 2;
  options.cluster.tasks_per_node = 3;
  options.cluster.block_size = kBs;
  options.cluster.task_memory_budget = 1LL << 40;
  options.cluster.net_bandwidth = 1e6;
  options.cluster.compute_bandwidth = 1e8;
  return options;
}

struct GnmfFixture {
  GnmfQuery q;
  std::map<NodeId, BlockedMatrix> inputs;

  GnmfFixture() : q(BuildGnmf(26, 20, 6, /*x_nnz=*/104)) {
    SparseMatrix x = RandomSparse(26, 20, 0.2, /*seed=*/51, 1.0, 5.0);
    inputs[q.X] = BlockedMatrix::FromSparse(x, kBs);
    inputs[q.V] = BlockedMatrix::FromDense(RandomDense(26, 6, 52), kBs);
    inputs[q.U] = BlockedMatrix::FromDense(RandomDense(6, 20, 53), kBs);
  }
};

/// The NMF pattern query and inputs of the single forced-operator stage
/// the ladder tests run: the whole query as one plan.
struct NmfStageFixture {
  NmfPattern q = BuildNmfPattern(26, 22, 10, /*x_nnz=*/57);
  std::map<NodeId, BlockedMatrix> inputs;
  FusionPlanSet full;

  NmfStageFixture() {
    SparseMatrix x = RandomSparse(26, 22, 0.1, /*seed=*/71, 1.0, 2.0);
    inputs[q.X] = BlockedMatrix::FromSparse(x, kBs);
    inputs[q.U] =
        BlockedMatrix::FromDense(RandomDense(26, 10, 72, 0.5, 1.5), kBs);
    inputs[q.V] =
        BlockedMatrix::FromDense(RandomDense(22, 10, 73, 0.5, 1.5), kBs);
    full.plans.emplace_back(
        &q.dag, std::vector<NodeId>{q.vT, q.mm, q.add, q.log, q.mul}, q.mul);
  }
};

/// Replays the injector schedule for one stage: how many retries its
/// `items` work items need, asserting no item exhausts `max_attempts`.
std::int64_t ExpectedRetries(const FaultInjector& injector, int stage,
                             std::int64_t items, int max_attempts) {
  std::int64_t retries = 0;
  for (std::int64_t item = 0; item < items; ++item) {
    int attempt = 0;
    while (attempt + 1 < max_attempts &&
           injector.TaskFault(stage, item, attempt) != InjectedFault::kNone) {
      ++attempt;
    }
    EXPECT_EQ(injector.TaskFault(stage, item, attempt), InjectedFault::kNone)
        << "schedule exhausts item " << item << " of stage " << stage
        << "; pick a different seed or raise max_attempts";
    retries += attempt;
  }
  return retries;
}

TEST(FaultToleranceTest, CleanRunsReportNoRecovery) {
  GnmfFixture f;
  Engine engine(Options(SystemMode::kFuseMe));
  Result<CompiledPlan> compiled = engine.Compile(f.q.dag);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  auto run = engine.Execute(*compiled, f.inputs);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_GT(run.report.attempts, 0);  // first tries are counted
  EXPECT_EQ(run.report.total_retries(), 0);
  EXPECT_TRUE(run.report.degradations.empty());
  EXPECT_EQ(run.report.speculative_tasks, 0);
  EXPECT_EQ(run.Summary().find("retr"), std::string::npos);
}

TEST(FaultToleranceTest, FailureScheduleSweepIsBitwiseIdentical) {
  GnmfFixture f;
  Engine clean_engine(Options(SystemMode::kFuseMe));
  Result<CompiledPlan> clean_compiled = clean_engine.Compile(f.q.dag);
  ASSERT_TRUE(clean_compiled.ok()) << clean_compiled.status();
  auto clean = clean_engine.Execute(*clean_compiled, f.inputs);
  ASSERT_TRUE(clean.ok()) << clean.status();

  constexpr int kMaxAttempts = 8;
  for (std::uint64_t seed : {1u, 7u, 23u}) {
    for (double p : {0.05, 0.2}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " p=" + std::to_string(p));
      EngineOptions options = Options(SystemMode::kFuseMe);
      options.faults.seed = seed;
      options.faults.task_failure_probability = p;
      options.recovery.retry.max_attempts = kMaxAttempts;
      Result<Engine> engine = Engine::Create(options);
      ASSERT_TRUE(engine.ok()) << engine.status();
      Result<CompiledPlan> faulted_compiled = engine->Compile(f.q.dag);
      ASSERT_TRUE(faulted_compiled.ok()) << faulted_compiled.status();
      auto faulted = engine->Execute(*faulted_compiled, f.inputs);
      ASSERT_TRUE(faulted.ok()) << faulted.status();

      // Numeric results are bitwise identical to the clean run's.
      ASSERT_EQ(faulted.outputs.size(), clean.outputs.size());
      for (const auto& [id, matrix] : clean.outputs) {
        EXPECT_EQ(DenseMatrix::MaxAbsDiff(
                      faulted.outputs.at(id).blocks().ToDense(),
                      matrix.blocks().ToDense()),
                  0.0);
      }

      // Stage statistics match except modeled elapsed time (which grows
      // by backoff and re-launch overhead).
      ASSERT_EQ(faulted.report.stages.size(), clean.report.stages.size());
      for (std::size_t i = 0; i < clean.report.stages.size(); ++i) {
        const StageStats& a = clean.report.stages[i];
        const StageStats& b = faulted.report.stages[i];
        EXPECT_EQ(a.num_tasks, b.num_tasks);
        EXPECT_EQ(a.consolidation_bytes, b.consolidation_bytes);
        EXPECT_EQ(a.aggregation_bytes, b.aggregation_bytes);
        EXPECT_EQ(a.flops, b.flops);
        EXPECT_EQ(a.max_task_memory, b.max_task_memory);
        EXPECT_GE(b.elapsed_seconds, a.elapsed_seconds);
      }

      // Retry accounting is exact: replay the schedule over the per-stage
      // work-item counts the clean run established.
      const FaultInjector injector(options.faults);
      std::int64_t expected_retries = 0;
      ASSERT_EQ(faulted.report.telemetry.size(),
                clean.report.telemetry.size());
      for (std::size_t i = 0; i < clean.report.telemetry.size(); ++i) {
        const std::int64_t items =
            clean.report.telemetry[i].recovery.attempts;
        const std::int64_t stage_retries = ExpectedRetries(
            injector, static_cast<int>(i), items, kMaxAttempts);
        EXPECT_EQ(faulted.report.telemetry[i].recovery.retries,
                  stage_retries);
        EXPECT_EQ(faulted.report.telemetry[i].recovery.injected_failures,
                  stage_retries);
        expected_retries += stage_retries;
      }
      EXPECT_EQ(faulted.report.total_retries(), expected_retries);
      EXPECT_EQ(faulted.report.attempts,
                clean.report.attempts + expected_retries);
      if (expected_retries > 0) {
        EXPECT_GT(faulted.report.elapsed_seconds,
                  clean.report.elapsed_seconds);
        EXPECT_NE(faulted.Summary().find("retr"), std::string::npos);
      }
    }
  }
}

TEST(FaultToleranceTest, ExhaustedAttemptBudgetFailsTheRun) {
  GnmfFixture f;
  EngineOptions options = Options(SystemMode::kFuseMe);
  options.faults.seed = 3;
  options.faults.task_failure_probability = 1.0;  // every attempt dies
  options.recovery.retry.max_attempts = 2;
  Engine engine(options);
  Result<CompiledPlan> compiled = engine.Compile(f.q.dag);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  auto run = engine.Execute(*compiled, f.inputs);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInternal);
  EXPECT_NE(run.status().message().find("attempt budget"),
            std::string::npos);
  ASSERT_FALSE(run.report.telemetry.empty());
  EXPECT_GT(run.report.telemetry.front().recovery.exhausted_items, 0);
  EXPECT_TRUE(run.outputs.empty());
}

TEST(FaultToleranceTest, OomDegradationCompletesRealWorkload) {
  // Fig. 12 methodology: one full-query plan forced onto each operator.
  NmfPattern q = BuildNmfPattern(26, 22, 10, /*x_nnz=*/57);
  SparseMatrix x = RandomSparse(26, 22, 0.1, /*seed=*/71, 1.0, 2.0);
  DenseMatrix u = RandomDense(26, 10, /*seed=*/72, 0.5, 1.5);
  DenseMatrix v = RandomDense(22, 10, /*seed=*/73, 0.5, 1.5);
  std::map<NodeId, BlockedMatrix> inputs;
  inputs[q.X] = BlockedMatrix::FromSparse(x, kBs);
  inputs[q.U] = BlockedMatrix::FromDense(u, kBs);
  inputs[q.V] = BlockedMatrix::FromDense(v, kBs);
  auto expected = ReferenceEval(q.dag, q.mul,
                                {{q.X, x.ToDense()}, {q.U, u}, {q.V, v}});
  ASSERT_TRUE(expected.ok());
  FusionPlanSet full;
  full.plans.emplace_back(
      &q.dag, std::vector<NodeId>{q.vT, q.mm, q.add, q.log, q.mul}, q.mul);

  // Find a budget the broadcast operator exceeds but the cuboid operator
  // (measured peak and modeled MemEst alike) fits with room to spare.
  Engine roomy(Options(SystemMode::kFuseMe));
  Result<CompiledPlan> bfo_probe_compiled =
      roomy.CompileWithPlans(q.dag, full, OperatorKind::kBfo);
  ASSERT_TRUE(bfo_probe_compiled.ok()) << bfo_probe_compiled.status();
  auto bfo_probe = roomy.Execute(*bfo_probe_compiled, inputs);
  Result<CompiledPlan> cfo_probe_compiled =
      roomy.CompileWithPlans(q.dag, full, OperatorKind::kCfo);
  ASSERT_TRUE(cfo_probe_compiled.ok()) << cfo_probe_compiled.status();
  auto cfo_probe = roomy.Execute(*cfo_probe_compiled, inputs);
  ASSERT_TRUE(bfo_probe.ok()) << bfo_probe.status();
  ASSERT_TRUE(cfo_probe.ok()) << cfo_probe.status();
  auto cfo_pred = roomy.PredictStage(full.plans.front(), OperatorKind::kCfo);
  ASSERT_TRUE(cfo_pred.ok());
  const std::int64_t cfo_needs =
      std::max(cfo_probe.report.max_task_memory,
               static_cast<std::int64_t>(cfo_pred->mem_per_task));
  ASSERT_LT(cfo_needs, bfo_probe.report.max_task_memory)
      << "workload geometry no longer separates BFO from CFO footprints";
  const std::int64_t budget =
      (cfo_needs + bfo_probe.report.max_task_memory) / 2;

  // Without recovery the squeezed budget is a terminal O.O.M. cell.
  EngineOptions squeezed = Options(SystemMode::kFuseMe);
  squeezed.cluster.task_memory_budget = budget;
  Engine strict(squeezed);
  Result<CompiledPlan> failed_compiled =
      strict.CompileWithPlans(q.dag, full, OperatorKind::kBfo);
  ASSERT_TRUE(failed_compiled.ok()) << failed_compiled.status();
  auto failed = strict.Execute(*failed_compiled, inputs);
  ASSERT_TRUE(failed.status().IsOutOfMemory()) << failed.status();

  // With the ladder enabled the same forced-BFO cell completes — and the
  // numbers still match the single-node reference.
  squeezed.recovery.degrade_on_oom = true;
  Engine degrading(squeezed);
  Result<CompiledPlan> recovered_compiled =
      degrading.CompileWithPlans(q.dag, full, OperatorKind::kBfo);
  ASSERT_TRUE(recovered_compiled.ok()) << recovered_compiled.status();
  auto recovered = degrading.Execute(*recovered_compiled, inputs);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ASSERT_FALSE(recovered.report.degradations.empty());
  EXPECT_NE(recovered.report.degradations.front().from.find("BFO"),
            std::string::npos);
  EXPECT_LE(DenseMatrix::MaxAbsDiff(
                recovered.outputs.at(q.mul).blocks().ToDense(), *expected),
            1e-9);
  EXPECT_NE(recovered.Summary().find("degradation"), std::string::npos);
}

TEST(FaultToleranceTest, OomDegradationCompletesPaperScaleBfo) {
  // engine_analytic_test's BfoOomsWhenSidesLarge cell: broadcasting ~24 GB
  // of sides exceeds the 10 GB task budget.  The ladder re-partitions and
  // the formerly-O.O.M. cell completes.
  NmfPattern q =
      BuildNmfPattern(750000, 750000, 2000, /*x_nnz=*/562500000);
  FusionPlanSet full;
  full.plans.emplace_back(
      &q.dag, std::vector<NodeId>{q.vT, q.mm, q.add, q.log, q.mul}, q.mul);
  EngineOptions options;
  options.analytic = true;
  Engine strict(options);
  Result<CompiledPlan> failed_compiled =
      strict.CompileWithPlans(q.dag, full, OperatorKind::kBfo);
  ASSERT_TRUE(failed_compiled.ok()) << failed_compiled.status();
  auto failed = strict.Execute(*failed_compiled, {});
  ASSERT_TRUE(failed.status().IsOutOfMemory()) << failed.status();

  options.recovery.degrade_on_oom = true;
  Engine degrading(options);
  Result<CompiledPlan> recovered_compiled =
      degrading.CompileWithPlans(q.dag, full, OperatorKind::kBfo);
  ASSERT_TRUE(recovered_compiled.ok()) << recovered_compiled.status();
  auto recovered = degrading.Execute(*recovered_compiled, {});
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ASSERT_FALSE(recovered.report.degradations.empty());
  EXPECT_NE(recovered.report.degradations.front().from.find("BFO"),
            std::string::npos);
}

TEST(FaultToleranceTest, InjectedOomConsumedOnceAndDegraded) {
  // Force the whole query onto a broadcast operator so the targeted stage
  // always has a degradation rung (BFO -> CFO), then inject an OOM there.
  NmfStageFixture f;

  EngineOptions options = Options(SystemMode::kFuseMe);
  options.faults.seed = 5;
  options.faults.oom_stages = {0};

  // Without the ladder, the injected OOM is terminal — the paper's cell.
  Engine strict(options);
  Result<CompiledPlan> failed_compiled =
      strict.CompileWithPlans(f.q.dag, f.full, OperatorKind::kBfo);
  ASSERT_TRUE(failed_compiled.ok()) << failed_compiled.status();
  auto failed = strict.Execute(*failed_compiled, f.inputs);
  ASSERT_TRUE(failed.status().IsOutOfMemory()) << failed.status();
  EXPECT_NE(failed.status().message().find("injected"), std::string::npos);

  // With it, the stage re-runs degraded and the run completes; the
  // injection fires only on the stage's first attempt.
  options.recovery.degrade_on_oom = true;
  Engine degrading(options);
  Result<CompiledPlan> recovered_compiled =
      degrading.CompileWithPlans(f.q.dag, f.full, OperatorKind::kBfo);
  ASSERT_TRUE(recovered_compiled.ok()) << recovered_compiled.status();
  auto recovered = degrading.Execute(*recovered_compiled, f.inputs);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ASSERT_FALSE(recovered.report.telemetry.empty());
  EXPECT_EQ(recovered.report.telemetry.front().recovery.injected_oom, 1);
  ASSERT_FALSE(recovered.report.degradations.empty());
  EXPECT_NE(recovered.report.degradations.front().from.find("BFO"),
            std::string::npos);
  EXPECT_NE(recovered.report.degradations.front().cause.find("injected"),
            std::string::npos);
}

TEST(FaultToleranceTest, DegradationRungSearchesOnce) {
  // The BFO -> CFO rung runs the cuboid search that picks its cuboid once;
  // the degraded attempt executes that prediction instead of searching
  // again (fuseme_optimizer_searches_total is one per optimized operator).
  NmfStageFixture f;
  MetricsRegistry metrics;
  EngineOptions options = Options(SystemMode::kFuseMe);
  options.faults.seed = 5;
  options.faults.oom_stages = {0};
  options.recovery.degrade_on_oom = true;
  options.metrics = &metrics;
  Engine engine(options);
  Result<CompiledPlan> compiled =
      engine.CompileWithPlans(f.q.dag, f.full, OperatorKind::kBfo);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  Counter* searches = metrics.GetCounter(metric_names::kOptimizerSearches);
  const std::int64_t before = searches->value();
  auto run = engine.Execute(*compiled, f.inputs);
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_EQ(run.report.degradations.size(), 1u);
  EXPECT_EQ(searches->value() - before, 1);
}

/// GNMF run with the schedule's OOM on stage `oom_stage` and the ladder on.
EngineOptions GnmfOomOptions(int oom_stage, MetricsRegistry* metrics) {
  EngineOptions options = Options(SystemMode::kFuseMe);
  options.faults.seed = 5;
  options.faults.oom_stages = {oom_stage};
  options.recovery.degrade_on_oom = true;
  options.metrics = metrics;
  return options;
}

TEST(FaultToleranceTest, CfoRungSearchesOnceUnderFailedMemEst) {
  // Stages 1 and 4 of GNMF are matmul CFO stages with room to split
  // further: the rung re-runs the cuboid search once, capped just below
  // the failed attempt's MemEst, so the degraded cuboid needs strictly
  // less memory per task.
  GnmfFixture f;
  std::map<NodeId, DenseMatrix> dense;
  for (const auto& [id, m] : f.inputs) dense.emplace(id, m.ToDense());
  for (int oom_stage : {1, 4}) {
    SCOPED_TRACE("oom_stage=" + std::to_string(oom_stage));
    MetricsRegistry metrics;
    Engine engine(GnmfOomOptions(oom_stage, &metrics));
    Result<CompiledPlan> compiled = engine.Compile(f.q.dag);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    ASSERT_GT(compiled->stages().size(), static_cast<std::size_t>(oom_stage));
    const CompiledStage& stage = compiled->stages()[oom_stage];
    ASSERT_EQ(stage.kind, OperatorKind::kCfo);
    ASSERT_TRUE(stage.prediction_status.ok());

    Counter* searches = metrics.GetCounter(metric_names::kOptimizerSearches);
    const std::int64_t before = searches->value();
    auto run = engine.Execute(*compiled, f.inputs);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_EQ(searches->value() - before, 1);

    ASSERT_EQ(run.report.degradations.size(), 1u);
    EXPECT_EQ(run.report.degradations.front().to.rfind("CFO ", 0), 0u)
        << run.report.degradations.front().to;
    const StageTelemetry& t = run.report.telemetry.at(oom_stage);
    EXPECT_EQ(t.recovery.injected_oom, 1);
    EXPECT_EQ(t.recovery.degradations, 1);
    ASSERT_TRUE(t.predicted.present);
    EXPECT_LT(t.predicted.mem_per_task, stage.prediction.mem_per_task);

    for (NodeId output : f.q.dag.outputs()) {
      auto expected = ReferenceEval(f.q.dag, output, dense);
      ASSERT_TRUE(expected.ok()) << expected.status();
      EXPECT_LE(DenseMatrix::MaxAbsDiff(
                    run.outputs.at(output).blocks().ToDense(), *expected),
                1e-9);
    }
  }
}

TEST(FaultToleranceTest, InjectedOomWithoutRungRerunsStageOnce) {
  // Stages 0 and 2 of GNMF (the transposes) and 3 (U × Uᵀ over a 1×1×3
  // grid) already run at their grid's finest cuboid: no cuboid, cpmm's
  // included, needs less memory, so the ladder has no rung and runs no
  // search.  The injected OOM models a transient kill, so the stage runs
  // once more as compiled and the outputs are a fault-free run's.
  GnmfFixture f;
  Engine clean_engine(Options(SystemMode::kFuseMe));
  for (int oom_stage : {0, 2, 3}) {
    SCOPED_TRACE("oom_stage=" + std::to_string(oom_stage));
    MetricsRegistry metrics;
    EngineOptions options = GnmfOomOptions(oom_stage, &metrics);
    Engine engine(options);
    Result<CompiledPlan> compiled = engine.Compile(f.q.dag);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    const auto clean = clean_engine.Execute(*compiled, f.inputs);
    ASSERT_TRUE(clean.ok()) << clean.status();

    Counter* searches = metrics.GetCounter(metric_names::kOptimizerSearches);
    const std::int64_t before = searches->value();
    auto run = engine.Execute(*compiled, f.inputs);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_EQ(searches->value(), before);
    EXPECT_TRUE(run.report.degradations.empty());
    EXPECT_EQ(run.report.telemetry.at(oom_stage).recovery.injected_oom, 1);
    ASSERT_EQ(run.outputs.size(), clean.outputs.size());
    for (const auto& [id, matrix] : clean.outputs) {
      const DenseMatrix a = matrix.blocks().ToDense();
      const DenseMatrix b = run.outputs.at(id).blocks().ToDense();
      ASSERT_EQ(a.size(), b.size());
      EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)),
                0)
          << "output v" << id;
    }

    // Without the ladder the injected OOM stays terminal.
    options.recovery.degrade_on_oom = false;
    options.metrics = nullptr;
    Engine strict(options);
    auto failed = strict.Execute(*compiled, f.inputs);
    ASSERT_TRUE(failed.status().IsOutOfMemory()) << failed.status();
    EXPECT_NE(failed.status().message().find("injected"), std::string::npos);
  }
}

std::string RenderPairs(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  std::string out;
  for (const auto& [key, value] : pairs) {
    out += " " + key + "=" + value;
  }
  return out;
}

bool HasPrefix(const std::string& s, std::initializer_list<const char*> ps) {
  for (const char* p : ps) {
    if (s.rfind(p, 0) == 0) return true;
  }
  return false;
}

TEST(FaultToleranceTest, StageTelemetryIsPinned) {
  // One fault-scheduled real run through every stage-level recovery path:
  // the forced-BFO stage's first attempt dies of an injected OOM, the
  // ladder degrades it to CFO, that attempt retries killed work items,
  // and the schedule's stragglers draw speculative copies.  Pins what the
  // stage reaches each sink with: journal events (ids, severities and
  // payloads; no seq/t_us), stage spans (names and args; no timestamps or
  // tid) and the stage, fault, solver and engine counter families.
  NmfStageFixture f;
  Tracer tracer;
  MetricsRegistry metrics;
  EventJournal journal(1 << 12);
  EngineOptions options = Options(SystemMode::kFuseMe);
  options.cluster.task_launch_overhead = 0.0;  // speculation always wins
  options.faults.seed = 6;
  options.faults.oom_stages = {0};
  options.faults.task_failure_probability = 0.5;
  options.faults.straggler_probability = 0.5;
  options.faults.straggler_slowdown = 100.0;
  options.recovery.retry.max_attempts = 8;
  options.recovery.degrade_on_oom = true;
  options.tracer = &tracer;
  options.metrics = &metrics;
  options.journal = &journal;
  Result<Engine> engine = Engine::Create(options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  Result<CompiledPlan> compiled =
      engine->CompileWithPlans(f.q.dag, f.full, OperatorKind::kBfo);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  auto run = engine->Execute(*compiled, f.inputs);
  ASSERT_TRUE(run.ok()) << run.status();

  std::vector<std::string> events;
  for (const JournalEvent& e : journal.Snapshot()) {
    if (!HasPrefix(e.id, {"fuseme.engine.", "fuseme.stage.", "fuseme.fault.",
                          "fuseme.verifier."})) {
      continue;
    }
    events.push_back(std::string(LogLevelLabel(e.severity)) + " " + e.id +
                     RenderPairs(e.payload));
  }
  std::vector<std::string> spans;
  for (const TraceSpan& s : tracer.spans()) {
    if (s.category == "stage") spans.push_back(s.name + RenderPairs(s.args));
  }
  std::vector<std::string> counters;
  for (const MetricSample& m : metrics.Snapshot().samples) {
    if (m.kind != MetricKind::kCounter ||
        !HasPrefix(m.name, {"fuseme_stage", "fuseme_fault", "fuseme_task_",
                            "fuseme_work_item_attempts",
                            "fuseme_speculative", "fuseme_solver",
                            "fuseme_engine"})) {
      continue;
    }
    counters.push_back(m.name + RenderPairs(m.labels) + " " +
                       std::to_string(m.counter_value));
  }

  const std::string stage = "{v3,v4,v6,v7,v8} root=v8";
  const std::vector<std::string> expected_events = {
      "info fuseme.engine.run_start system=FuseME mode=real plans=1",
      "warning fuseme.fault.injected_oom stage=" + stage +
          " [BFO] ordinal=0",
      "warning fuseme.fault.degradation stage=" + stage +
          " [BFO] from=BFO (1,1,1) to=CFO (3,1,2) cause=injected "
          "OutOfMemory on stage 0 (" + stage + " [BFO])",
      "warning fuseme.fault.task_retry stage=" + stage +
          " [CFO] attempts=5 injected_failures=2 exhausted=0",
      "info fuseme.fault.speculation stage=" + stage + " [CFO] copies=4",
      "info fuseme.stage.commit stage=" + stage +
          " [CFO] ordinal=0 operator=CFO tasks=6 elapsed_seconds=2.018600",
      "info fuseme.engine.run_finish status=ok elapsed_seconds=2.018600 "
      "stages=1",
  };
  const std::vector<std::string> expected_spans = {
      stage + " [CFO] operator=CFO status=ok cuboid=(3,1,2) "
              "predicted_net_bytes=9144 predicted_flops=1919 "
              "actual_net_bytes=6012 actual_agg_bytes=1428 actual_flops=1541 "
              "num_tasks=6 retries=2 degradations=1 injected_oom=1 "
              "stragglers=4 speculative_tasks=4",
  };
  const std::vector<std::string> expected_counters = {
      "fuseme_engine_runs_total status=ok 1",
      "fuseme_fault_injected_total kind=lost_at_launch 1",
      "fuseme_fault_injected_total kind=lost_before_commit 1",
      "fuseme_fault_injected_total kind=oom 1",
      "fuseme_fault_injected_total kind=straggler 4",
      "fuseme_solver_executions_total solver=solver.cfo.spmm 1",
      "fuseme_solver_rejections_total solver=solver.cfo.sddmm 1",
      "fuseme_solver_resolutions_total solver=solver.bfo 1",
      "fuseme_solver_resolutions_total solver=solver.cfo.spmm 1",
      "fuseme_speculative_tasks_total 4",
      "fuseme_stage_degradations_total action=shrink_cuboid 1",
      "fuseme_stage_flops_total 1541",
      "fuseme_stage_memory_overrun_total 1",
      "fuseme_stage_shuffle_bytes_total cause=aggregation 1428",
      "fuseme_stage_shuffle_bytes_total cause=consolidation 6012",
      "fuseme_stage_tasks_total 6",
      "fuseme_stages_total 1",
      "fuseme_task_retries_total cause=injected_failure 2",
      "fuseme_work_item_attempts_total 5",
  };
  EXPECT_EQ(events, expected_events);
  EXPECT_EQ(spans, expected_spans);
  EXPECT_EQ(counters, expected_counters);
}

TEST(FaultToleranceTest, StragglersExtendElapsedAndSpeculationCuts) {
  GnmfFixture f;
  EngineOptions base = Options(SystemMode::kFuseMe);
  // Zero launch overhead makes the speculative copy strictly cheaper than
  // riding out a 100x straggler, so speculation must win every time.
  base.cluster.task_launch_overhead = 0.0;
  Engine clean_engine(base);
  Result<CompiledPlan> compiled = clean_engine.Compile(f.q.dag);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  auto clean = clean_engine.Execute(*compiled, f.inputs);
  ASSERT_TRUE(clean.ok()) << clean.status();

  EngineOptions straggling = base;
  straggling.faults.seed = 13;
  straggling.faults.straggler_probability = 0.5;
  straggling.faults.straggler_slowdown = 100.0;

  EngineOptions no_speculation = straggling;
  no_speculation.recovery.speculative_execution = false;

  Engine speculating(straggling);
  Result<CompiledPlan> speculated_compiled = speculating.Compile(f.q.dag);
  ASSERT_TRUE(speculated_compiled.ok()) << speculated_compiled.status();
  auto speculated = speculating.Execute(*speculated_compiled, f.inputs);
  Engine riding_out(no_speculation);
  Result<CompiledPlan> rode_out_compiled = riding_out.Compile(f.q.dag);
  ASSERT_TRUE(rode_out_compiled.ok()) << rode_out_compiled.status();
  auto rode_out = riding_out.Execute(*rode_out_compiled, f.inputs);
  ASSERT_TRUE(speculated.ok()) << speculated.status();
  ASSERT_TRUE(rode_out.ok()) << rode_out.status();

  EXPECT_GT(speculated.report.speculative_tasks, 0);
  EXPECT_EQ(rode_out.report.speculative_tasks, 0);
  EXPECT_GT(speculated.report.elapsed_seconds,
            clean.report.elapsed_seconds);
  EXPECT_GT(rode_out.report.elapsed_seconds,
            speculated.report.elapsed_seconds);

  // Stragglers slow the modeled clock, never the numbers.
  for (const auto& [id, matrix] : clean.outputs) {
    EXPECT_EQ(DenseMatrix::MaxAbsDiff(
                  speculated.outputs.at(id).blocks().ToDense(),
                  matrix.blocks().ToDense()),
              0.0);
  }
}

TEST(FaultToleranceTest, BackoffTripsTheRunDeadlineDeterministically) {
  GnmfFixture f;
  EngineOptions options = Options(SystemMode::kFuseMe);
  options.faults.seed = 1;
  options.faults.task_failure_probability = 0.5;
  options.recovery.retry.max_attempts = 8;
  // Each retry backs off for hours of modeled time; the 12-hour default
  // horizon would survive, a tight one cannot.
  options.recovery.retry.backoff_base_seconds = 3600.0;
  options.recovery.retry.backoff_max_seconds = 3600.0;
  options.cluster.timeout_seconds = 1800.0;
  Engine engine(options);
  Result<CompiledPlan> first_compiled = engine.Compile(f.q.dag);
  ASSERT_TRUE(first_compiled.ok()) << first_compiled.status();
  auto first = engine.Execute(*first_compiled, f.inputs);
  ASSERT_TRUE(first.status().IsTimedOut()) << first.status();
  EXPECT_NE(first.Summary().find("T.O."), std::string::npos);
  // Deterministic: the same schedule trips at the same point every run.
  Result<CompiledPlan> second_compiled = engine.Compile(f.q.dag);
  ASSERT_TRUE(second_compiled.ok()) << second_compiled.status();
  auto second = engine.Execute(*second_compiled, f.inputs);
  EXPECT_TRUE(second.status().IsTimedOut());
  EXPECT_EQ(first.report.elapsed_seconds, second.report.elapsed_seconds);
  EXPECT_EQ(first.report.total_retries(), second.report.total_retries());
}

TEST(FaultToleranceTest, TracerRecordsFaultSpans) {
  GnmfFixture f;
  Tracer tracer;
  EngineOptions options = Options(SystemMode::kFuseMe);
  options.faults.seed = 7;
  options.faults.task_failure_probability = 0.2;
  options.recovery.retry.max_attempts = 8;
  options.tracer = &tracer;
  Engine engine(options);
  Result<CompiledPlan> compiled = engine.Compile(f.q.dag);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  auto run = engine.Execute(*compiled, f.inputs);
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_GT(run.report.total_retries(), 0);

  std::int64_t fault_spans = 0;
  for (const TraceSpan& span : tracer.spans()) {
    if (span.category == "fault") ++fault_spans;
  }
  EXPECT_EQ(fault_spans, run.report.total_retries());
}

TEST(FaultToleranceTest, MetricsCountRecovery) {
  GnmfFixture f;
  MetricsRegistry metrics;
  EngineOptions options = Options(SystemMode::kFuseMe);
  options.faults.seed = 7;
  options.faults.task_failure_probability = 0.2;
  options.recovery.retry.max_attempts = 8;
  options.metrics = &metrics;
  Engine engine(options);
  Result<CompiledPlan> compiled = engine.Compile(f.q.dag);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  auto run = engine.Execute(*compiled, f.inputs);
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_GT(run.report.total_retries(), 0);

  EXPECT_EQ(metrics.GetCounter(metric_names::kWorkItemAttempts)->value(),
            run.report.attempts);
  EXPECT_EQ(metrics
                .GetCounter(metric_names::kTaskRetries,
                            {{"cause", "injected_failure"}})
                ->value(),
            run.report.total_retries());
  const std::int64_t injected =
      metrics
          .GetCounter(metric_names::kFaultInjected,
                      {{"kind", "lost_at_launch"}})
          ->value() +
      metrics
          .GetCounter(metric_names::kFaultInjected,
                      {{"kind", "lost_before_commit"}})
          ->value();
  EXPECT_EQ(injected, run.report.total_retries());
}

}  // namespace
}  // namespace fuseme
