// CompiledPlan (DESIGN.md section 18): replays must be bitwise identical
// to an independent compile-and-execute (a fresh engine's Compile, or a
// FromJson(ToJson()) artifact) across dense, sparse, and fault-injected
// schedules, and to a serial Execute when threads share one artifact; the
// JSON artifact round-trips; and CheckCompatible — the one gate on what
// Execute accepts — rejects mismatched shapes, sparsity classes, block
// sizes, descriptors, non-leaf bindings, and clusters with precise
// messages before any stage runs.

#include "engine/compiled_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "engine/solver_names.h"
#include "engine/solver_registry.h"
#include "fusion/partial_plan.h"
#include "matrix/generators.h"
#include "telemetry/metric_names.h"
#include "telemetry/metrics.h"
#include "verify/plan_verifier.h"
#include "workloads/queries.h"

namespace fuseme {
namespace {

constexpr std::int64_t kBs = 8;

EngineOptions Options(SystemMode mode = SystemMode::kFuseMe) {
  EngineOptions options;
  options.system = mode;
  options.cluster.num_nodes = 2;
  options.cluster.tasks_per_node = 3;
  options.cluster.block_size = kBs;
  options.cluster.task_memory_budget = 1LL << 40;
  return options;
}

/// Bitwise comparison: outputs, per-stage accounting, and the recovery
/// trace — the same bar the determinism suites hold parallel and
/// prefetched runs to.
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
    EXPECT_EQ(a.stages[s].elapsed_seconds, b.stages[s].elapsed_seconds);
  }
  EXPECT_EQ(a.consolidation_bytes, b.consolidation_bytes);
  EXPECT_EQ(a.aggregation_bytes, b.aggregation_bytes);
  EXPECT_EQ(a.flops, b.flops);
  EXPECT_EQ(a.max_task_memory, b.max_task_memory);
  EXPECT_EQ(a.elapsed_seconds, b.elapsed_seconds);

  ASSERT_EQ(a.telemetry.size(), b.telemetry.size());
  for (std::size_t s = 0; s < a.telemetry.size(); ++s) {
    SCOPED_TRACE("telemetry " + a.telemetry[s].label);
    EXPECT_EQ(a.telemetry[s].recovery.attempts,
              b.telemetry[s].recovery.attempts);
    EXPECT_EQ(a.telemetry[s].recovery.retries,
              b.telemetry[s].recovery.retries);
    EXPECT_EQ(a.telemetry[s].recovery.injected_failures,
              b.telemetry[s].recovery.injected_failures);
    EXPECT_EQ(a.telemetry[s].recovery.exhausted_items,
              b.telemetry[s].recovery.exhausted_items);
  }
}

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

/// Dense workload: a fully dense mask makes Compile record the base CFO
/// solver instead of the sparse refinements.
struct DenseNmfFixture {
  NmfPattern q;
  std::map<NodeId, BlockedMatrix> inputs;

  DenseNmfFixture() : q(BuildNmfPattern(40, 36, 24, /*x_nnz=*/40 * 36)) {
    inputs[q.X] =
        BlockedMatrix::FromDense(RandomDense(40, 36, /*seed=*/71, 1.0, 5.0),
                                 kBs);
    inputs[q.U] =
        BlockedMatrix::FromDense(RandomDense(40, 24, /*seed=*/72, 0.5, 1.5),
                                 kBs);
    inputs[q.V] =
        BlockedMatrix::FromDense(RandomDense(36, 24, /*seed=*/73, 0.5, 1.5),
                                 kBs);
  }
};

TEST(CompiledPlanTest, CompileRecordsSolverTable) {
  GnmfFixture f;
  Engine engine(Options());
  Result<CompiledPlan> compiled = engine.Compile(f.q.dag);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  EXPECT_EQ(compiled->system(), SystemMode::kFuseMe);
  EXPECT_EQ(compiled->forced(), OperatorKind::kAuto);
  EXPECT_FALSE(compiled->analytic());
  EXPECT_EQ(compiled->verify(), VerifyLevel::kPlanner);
  EXPECT_TRUE(compiled->verified());
  EXPECT_TRUE(compiled->diagnostics().empty());
  ASSERT_FALSE(compiled->stages().empty());
  ASSERT_EQ(compiled->stages().size(), compiled->plans().plans.size());
  for (const CompiledStage& stage : compiled->stages()) {
    EXPECT_NE(stage.kind, OperatorKind::kAuto);
    EXPECT_NE(SolverRegistry::Global().Find(stage.solver_id), nullptr)
        << stage.solver_id;
    ASSERT_TRUE(stage.prediction_status.ok()) << stage.prediction_status;
    EXPECT_TRUE(stage.prediction.present);
    EXPECT_GT(stage.prediction.num_tasks, 0);
  }
}

TEST(CompiledPlanTest, ExecuteMatchesRunOnSparseWorkloadAllSystems) {
  GnmfFixture f;
  for (SystemMode mode :
       {SystemMode::kFuseMe, SystemMode::kSystemDs, SystemMode::kMatFast,
        SystemMode::kDistMe}) {
    SCOPED_TRACE(std::string(SystemModeName(mode)));
    Engine reference(Options(mode));
    Result<CompiledPlan> reference_compiled = reference.Compile(f.q.dag);
    ASSERT_TRUE(reference_compiled.ok()) << reference_compiled.status();
    const Engine::RunResult base =
        reference.Execute(*reference_compiled, f.inputs);
    Engine engine(Options(mode));
    Result<CompiledPlan> compiled = engine.Compile(f.q.dag);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    ExpectIdenticalRuns(base, engine.Execute(*compiled, f.inputs));
  }
}

TEST(CompiledPlanTest, ExecuteMatchesRunOnDenseWorkload) {
  DenseNmfFixture f;
  Engine engine(Options());
  Result<CompiledPlan> compiled = engine.Compile(f.q.dag);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  Result<CompiledPlan> reference = CompiledPlan::FromJson(compiled->ToJson());
  ASSERT_TRUE(reference.ok()) << reference.status();
  const Engine::RunResult base = engine.Execute(*reference, f.inputs);
  ExpectIdenticalRuns(base, engine.Execute(*compiled, f.inputs));
}

TEST(CompiledPlanTest, ExecuteMatchesRunUnderFaultSchedules) {
  // The injector's schedule is a pure function of (seed, stage, item,
  // attempt): replaying a compiled artifact must reproduce the same
  // failures, retries, and recovered outputs as an independent compile.
  GnmfFixture f;
  for (const auto& [seed, probability] :
       std::vector<std::pair<std::uint64_t, double>>{{7, 0.3}, {11, 0.6}}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    EngineOptions options = Options();
    options.faults.seed = seed;
    options.faults.task_failure_probability = probability;
    options.recovery.retry.max_attempts = 5;
    options.recovery.retry.backoff_base_seconds = 0.0;
    Engine reference(options);
    Result<CompiledPlan> reference_compiled = reference.Compile(f.q.dag);
    ASSERT_TRUE(reference_compiled.ok()) << reference_compiled.status();
    const Engine::RunResult base =
        reference.Execute(*reference_compiled, f.inputs);
    ASSERT_TRUE(base.report.ok()) << base.report.status;
    Engine engine(options);
    Result<CompiledPlan> compiled = engine.Compile(f.q.dag);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    ExpectIdenticalRuns(base, engine.Execute(*compiled, f.inputs));
  }
}

TEST(CompiledPlanTest, RepeatedExecutesAreIdenticalWithoutReResolution) {
  // Compile exactly once: the solver-resolution counters move during
  // Compile and must stay flat across any number of Executes.
  GnmfFixture f;
  MetricsRegistry metrics;
  EngineOptions options = Options();
  options.metrics = &metrics;
  Engine engine(options);
  Result<CompiledPlan> compiled = engine.Compile(f.q.dag);
  ASSERT_TRUE(compiled.ok()) << compiled.status();

  auto resolutions = [&] {
    std::map<std::string, std::int64_t> counts;
    for (const char* id :
         {solver_names::kCfo, solver_names::kCfoSpmm, solver_names::kCfoSddmm,
          solver_names::kBfo, solver_names::kRfo, solver_names::kCpmm}) {
      counts[id] = metrics
                       .GetCounter(metric_names::kSolverResolutions,
                                   {{"solver", id}})
                       ->value();
    }
    return counts;
  };
  const auto after_compile = resolutions();
  std::int64_t total = 0;
  for (const auto& [id, count] : after_compile) total += count;
  EXPECT_GT(total, 0) << "Compile records its solver choices";

  const Engine::RunResult first = engine.Execute(*compiled, f.inputs);
  const Engine::RunResult second = engine.Execute(*compiled, f.inputs);
  ExpectIdenticalRuns(first, second);
  EXPECT_EQ(resolutions(), after_compile)
      << "Execute must replay the recorded solvers, not re-resolve";
}

TEST(CompiledPlanTest, JsonRoundTripExecutesIdentically) {
  GnmfFixture f;
  Engine engine(Options());
  Result<CompiledPlan> compiled = engine.Compile(f.q.dag);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  const Engine::RunResult base = engine.Execute(*compiled, f.inputs);

  const std::string json = compiled->ToJson();
  Result<CompiledPlan> restored = CompiledPlan::FromJson(json);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->ToJson(), json) << "re-serialization must be stable";
  ASSERT_EQ(restored->stages().size(), compiled->stages().size());
  for (std::size_t i = 0; i < restored->stages().size(); ++i) {
    EXPECT_EQ(restored->stages()[i].solver_id,
              compiled->stages()[i].solver_id);
    EXPECT_EQ(restored->stages()[i].kind, compiled->stages()[i].kind);
  }
  ExpectIdenticalRuns(base, engine.Execute(*restored, f.inputs));

  // Older artifacts carry a per-stage "refine_cell" flag; FromJson skips
  // it, so they load and re-serialize to today's form.
  std::string legacy = json;
  for (std::size_t at = legacy.find("\"solver\":"); at != std::string::npos;
       at = legacy.find("\"solver\":", at + 1)) {
    at = legacy.find(',', at);
    ASSERT_NE(at, std::string::npos);
    legacy.insert(at, ",\"refine_cell\":true");
  }
  ASSERT_NE(legacy, json);
  Result<CompiledPlan> from_legacy = CompiledPlan::FromJson(legacy);
  ASSERT_TRUE(from_legacy.ok()) << from_legacy.status();
  EXPECT_EQ(from_legacy->ToJson(), json);
  ExpectIdenticalRuns(base, engine.Execute(*from_legacy, f.inputs));
}

TEST(CompiledPlanTest, CheckCompatibleRejectsShapeMismatch) {
  GnmfFixture f;
  Engine engine(Options());
  Result<CompiledPlan> compiled = engine.Compile(f.q.dag);
  ASSERT_TRUE(compiled.ok()) << compiled.status();

  std::map<NodeId, BlockedMatrix> wrong = f.inputs;
  wrong[f.q.U] =
      BlockedMatrix::FromDense(RandomDense(10, 10, /*seed=*/91), kBs);
  const Engine::RunResult run = engine.Execute(*compiled, wrong);
  EXPECT_TRUE(run.report.status.IsInvalidArgument()) << run.report.status;
  EXPECT_NE(run.report.status.message().find("of shape"), std::string::npos)
      << run.report.status;
  EXPECT_TRUE(run.outputs.empty());
  EXPECT_TRUE(run.report.stages.empty())
      << "compatibility is checked before any stage runs";
}

TEST(CompiledPlanTest, CheckCompatibleRejectsSparsityClassDrift) {
  // Compiled against a density-0.2 mask; binding a fully dense matrix of
  // the same shape jumps more than one density bucket.
  GnmfFixture f;
  Engine engine(Options());
  Result<CompiledPlan> compiled = engine.Compile(f.q.dag);
  ASSERT_TRUE(compiled.ok()) << compiled.status();

  std::map<NodeId, BlockedMatrix> dense_mask = f.inputs;
  dense_mask[f.q.X] =
      BlockedMatrix::FromDense(RandomDense(26, 20, /*seed=*/92, 1.0, 5.0),
                               kBs);
  const Engine::RunResult run = engine.Execute(*compiled, dense_mask);
  EXPECT_TRUE(run.report.status.IsInvalidArgument()) << run.report.status;
  EXPECT_NE(run.report.status.message().find(
                "re-compile for this sparsity class"),
            std::string::npos)
      << run.report.status;
}

TEST(CompiledPlanTest, CheckCompatibleRejectsForeignClusterAndSystem) {
  GnmfFixture f;
  Engine compiler(Options());
  Result<CompiledPlan> compiled = compiler.Compile(f.q.dag);
  ASSERT_TRUE(compiled.ok()) << compiled.status();

  EngineOptions bigger_blocks = Options();
  bigger_blocks.cluster.block_size = 16;
  const Engine::RunResult cluster_run =
      Engine(bigger_blocks).Execute(*compiled, f.inputs);
  EXPECT_TRUE(cluster_run.report.status.IsInvalidArgument())
      << cluster_run.report.status;
  EXPECT_NE(
      cluster_run.report.status.message().find("cluster mismatch: block_size"),
      std::string::npos)
      << cluster_run.report.status;

  const Engine::RunResult system_run =
      Engine(Options(SystemMode::kSystemDs)).Execute(*compiled, f.inputs);
  EXPECT_TRUE(system_run.report.status.IsInvalidArgument())
      << system_run.report.status;
  EXPECT_NE(system_run.report.status.message().find("compiled for system"),
            std::string::npos)
      << system_run.report.status;
}

TEST(CompiledPlanTest, CheckCompatibleRejectsBlockSizeMismatch) {
  // The artifact and engine agree on the cluster; one input is blocked
  // differently.  Execute must refuse it by name instead of aborting.
  GnmfFixture f;
  Engine engine(Options());
  Result<CompiledPlan> compiled = engine.Compile(f.q.dag);
  ASSERT_TRUE(compiled.ok()) << compiled.status();

  std::map<NodeId, BlockedMatrix> reblocked = f.inputs;
  reblocked[f.q.V] = BlockedMatrix::FromDense(
      RandomDense(26, 6, /*seed=*/52, 0.5, 1.5), 2 * kBs);
  const Engine::RunResult run = engine.Execute(*compiled, reblocked);
  EXPECT_TRUE(run.report.status.IsInvalidArgument()) << run.report.status;
  EXPECT_NE(run.report.status.message().find(
                "input v" + std::to_string(f.q.V) + " (V) blocked at 8"),
            std::string::npos)
      << run.report.status;
  EXPECT_TRUE(run.report.stages.empty());
}

TEST(CompiledPlanTest, CheckCompatibleRejectsDescriptorsInRealMode) {
  // A metadata descriptor carries no block data: real-mode Execute must
  // refuse it rather than run the kernels on invented values.
  GnmfFixture f;
  Engine engine(Options());
  Result<CompiledPlan> compiled = engine.Compile(f.q.dag);
  ASSERT_TRUE(compiled.ok()) << compiled.status();

  std::map<NodeId, BlockedMatrix> described = f.inputs;
  described[f.q.X] = BlockedMatrix::MakeMeta(26, 20, /*nnz=*/104, kBs);
  const Engine::RunResult run = engine.Execute(*compiled, described);
  EXPECT_TRUE(run.report.status.IsInvalidArgument()) << run.report.status;
  EXPECT_NE(run.report.status.message().find("metadata descriptor"),
            std::string::npos)
      << run.report.status;
  EXPECT_TRUE(run.report.stages.empty());
  EXPECT_EQ(run.report.flops, 0);
}

TEST(CompiledPlanTest, CheckCompatibleRejectsBindingsToNonLeafIds) {
  // A binding to an operator node would replace the value its stage
  // computes; an id outside the DAG binds nothing.  Both are refused.
  NmfPattern q = BuildNmfPattern(64, 64, 16, /*x_nnz=*/400);
  std::map<NodeId, BlockedMatrix> inputs;
  inputs[q.X] = BlockedMatrix::FromSparse(
      RandomSparse(64, 64, 400.0 / (64 * 64), /*seed=*/81, 1.0, 2.0), kBs);
  inputs[q.U] =
      BlockedMatrix::FromDense(RandomDense(64, 16, /*seed=*/82, 0.5, 1.5), kBs);
  inputs[q.V] =
      BlockedMatrix::FromDense(RandomDense(64, 16, /*seed=*/83, 0.5, 1.5), kBs);
  Engine engine(Options());
  Result<CompiledPlan> compiled = engine.Compile(q.dag);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  ASSERT_TRUE(engine.Execute(*compiled, inputs).ok());

  const BlockedMatrix dense =
      BlockedMatrix::FromDense(RandomDense(64, 64, /*seed=*/84), kBs);
  for (const NodeId id : {q.mul, static_cast<NodeId>(q.dag.num_nodes())}) {
    SCOPED_TRACE("binding v" + std::to_string(id));
    std::map<NodeId, BlockedMatrix> extra = inputs;
    extra.emplace(id, dense);
    const Engine::RunResult run = engine.Execute(*compiled, extra);
    EXPECT_TRUE(run.report.status.IsInvalidArgument()) << run.report.status;
    EXPECT_NE(run.report.status.message().find(
                  "v" + std::to_string(id) + " is not one"),
              std::string::npos)
        << run.report.status;
    EXPECT_TRUE(run.outputs.empty());
    EXPECT_TRUE(run.report.stages.empty());
  }
}

TEST(CompiledPlanTest, ParanoidReportsEachDiagnosticOnce) {
  // One node in two plans: exactly one planset-overlap finding.  kParanoid
  // re-verifies on Execute, and the fresh pass must replace the cached
  // compile-time one, not stack on top of it.
  NmfPattern q = BuildNmfPattern(40, 36, 24, /*x_nnz=*/288);
  FusionPlanSet overlapping;
  overlapping.plans.emplace_back(&q.dag, std::vector<NodeId>{q.vT}, q.vT);
  overlapping.plans.emplace_back(
      &q.dag, std::vector<NodeId>{q.vT, q.mm, q.add, q.log, q.mul}, q.mul);
  std::map<VerifyLevel, std::vector<VerifierDiagnostic>> reported;
  for (const VerifyLevel level :
       {VerifyLevel::kPlanner, VerifyLevel::kParanoid}) {
    SCOPED_TRACE(std::string(VerifyLevelName(level)));
    EngineOptions options = Options();
    options.analytic = true;
    options.verify = level;
    Engine engine(options);
    Result<CompiledPlan> compiled =
        engine.CompileWithPlans(q.dag, overlapping);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    const Engine::RunResult run = engine.Execute(*compiled, {});
    EXPECT_EQ(run.report.status.code(), StatusCode::kInternal);
    EXPECT_EQ(std::count_if(run.report.verifier_diagnostics.begin(),
                            run.report.verifier_diagnostics.end(),
                            [](const VerifierDiagnostic& d) {
                              return d.rule == rules::kPlanSetOverlap;
                            }),
              1)
        << FormatDiagnostics(run.report.verifier_diagnostics);
    reported[level] = run.report.verifier_diagnostics;
  }
  EXPECT_EQ(FormatDiagnostics(reported[VerifyLevel::kParanoid]),
            FormatDiagnostics(reported[VerifyLevel::kPlanner]));
}

TEST(CompiledPlanTest, FailedVerificationRoundTripsThroughJson) {
  // An artifact rejected at compile time carries its diagnostics and no
  // stages; persisted and restored, it must report the same diagnostics.
  NmfPattern q = BuildNmfPattern(40, 36, 24, /*x_nnz=*/288);
  FusionPlanSet overlapping;
  overlapping.plans.emplace_back(&q.dag, std::vector<NodeId>{q.vT}, q.vT);
  overlapping.plans.emplace_back(
      &q.dag, std::vector<NodeId>{q.vT, q.mm, q.add, q.log, q.mul}, q.mul);
  EngineOptions options = Options();
  options.analytic = true;
  Engine engine(options);
  Result<CompiledPlan> compiled = engine.CompileWithPlans(q.dag, overlapping);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  ASSERT_TRUE(compiled->stages().empty());
  ASSERT_FALSE(compiled->diagnostics().empty());

  const std::string json = compiled->ToJson();
  Result<CompiledPlan> restored = CompiledPlan::FromJson(json);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_TRUE(restored->stages().empty());
  EXPECT_EQ(FormatDiagnostics(restored->diagnostics()),
            FormatDiagnostics(compiled->diagnostics()));
  EXPECT_EQ(restored->ToJson(), json);

  const Engine::RunResult original = engine.Execute(*compiled, {});
  const Engine::RunResult replayed = engine.Execute(*restored, {});
  EXPECT_EQ(replayed.report.status.code(), StatusCode::kInternal);
  EXPECT_EQ(replayed.report.status.message(),
            original.report.status.message());
  EXPECT_EQ(FormatDiagnostics(replayed.report.verifier_diagnostics),
            FormatDiagnostics(original.report.verifier_diagnostics));
  EXPECT_TRUE(replayed.report.stages.empty());
}

TEST(CompiledPlanTest, FailedRunsCountInRunsTotal) {
  // Both early exits of Execute are failed runs and reach
  // fuseme_engine_runs_total{status="error"}: plan verification failing at
  // kPlanner, and an engine at kOff replaying the stage-less artifact.
  NmfPattern q = BuildNmfPattern(40, 36, 24, /*x_nnz=*/288);
  FusionPlanSet overlapping;
  overlapping.plans.emplace_back(&q.dag, std::vector<NodeId>{q.vT}, q.vT);
  overlapping.plans.emplace_back(
      &q.dag, std::vector<NodeId>{q.vT, q.mm, q.add, q.log, q.mul}, q.mul);
  EngineOptions options = Options();
  options.analytic = true;
  Engine verifying(options);
  Result<CompiledPlan> compiled =
      verifying.CompileWithPlans(q.dag, overlapping);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  ASSERT_TRUE(compiled->stages().empty());

  for (const VerifyLevel level : {VerifyLevel::kPlanner, VerifyLevel::kOff}) {
    SCOPED_TRACE(std::string(VerifyLevelName(level)));
    MetricsRegistry metrics;
    EngineOptions run_options = options;
    run_options.verify = level;
    run_options.metrics = &metrics;
    Engine engine(run_options);
    const Engine::RunResult run = engine.Execute(*compiled, {});
    EXPECT_EQ(run.report.status.code(), StatusCode::kInternal);
    EXPECT_NE(run.report.status.message().find(
                  level == VerifyLevel::kOff ? "0 stage(s) for 2 plan(s)"
                                             : "plan verification failed"),
              std::string::npos)
        << run.report.status;
    const MetricsSnapshot snap = metrics.Snapshot();
    EXPECT_EQ(snap.CounterTotal(metric_names::kEngineRuns), 1);
    const MetricSample* errors =
        snap.Find(metric_names::kEngineRuns, {{"status", "error"}});
    ASSERT_NE(errors, nullptr);
    EXPECT_EQ(errors->counter_value, 1);
  }
}

TEST(CompiledPlanTest, ConcurrentExecuteMatchesSerialBitwise) {
  // Four threads replay one artifact on one engine (whose stages fan out
  // over the shared pool too); every replay must equal a serial Execute.
  constexpr int kThreads = 4;
  constexpr int kExecutesPerThread = 8;
  GnmfFixture f;
  EngineOptions options = Options();
  options.cluster.local_threads = 2;
  Engine engine(options);
  Result<CompiledPlan> compiled = engine.Compile(f.q.dag);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  const Engine::RunResult serial = engine.Execute(*compiled, f.inputs);

  std::vector<std::vector<Engine::RunResult>> runs(
      kThreads, std::vector<Engine::RunResult>(kExecutesPerThread));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (Engine::RunResult& run : runs[t]) {
        run = engine.Execute(*compiled, f.inputs);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kExecutesPerThread; ++i) {
      SCOPED_TRACE("thread " + std::to_string(t) + " execute " +
                   std::to_string(i));
      ExpectIdenticalRuns(serial, runs[t][i]);
    }
  }
}

TEST(CompiledPlanTest, TamperedSolverIdFailsFromJson) {
  // Swap the recorded CFO-family solver for the BFO one: the registry
  // check (verifier rule compiled-solver) must refuse the artifact.
  NmfPattern q = BuildNmfPattern(40, 36, 24, /*x_nnz=*/288);
  FusionPlanSet full;
  full.plans.emplace_back(
      &q.dag, std::vector<NodeId>{q.vT, q.mm, q.add, q.log, q.mul}, q.mul);
  Engine engine(Options());
  Result<CompiledPlan> compiled =
      engine.CompileWithPlans(q.dag, full, OperatorKind::kCfo);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  ASSERT_EQ(compiled->stages().size(), 1u);
  EXPECT_EQ(compiled->stages()[0].solver_id, solver_names::kCfoSpmm);

  std::string json = compiled->ToJson();
  const std::string original =
      std::string("\"solver\":\"") + solver_names::kCfoSpmm + "\"";
  const std::size_t at = json.find(original);
  ASSERT_NE(at, std::string::npos);
  json.replace(at, original.size(),
               std::string("\"solver\":\"") + solver_names::kBfo + "\"");
  Result<CompiledPlan> tampered = CompiledPlan::FromJson(json);
  ASSERT_FALSE(tampered.ok());
  EXPECT_NE(tampered.status().message().find("compiled-solver"),
            std::string::npos)
      << tampered.status();
}

TEST(CompiledPlanTest, FromJsonRejectsGarbage) {
  EXPECT_FALSE(CompiledPlan::FromJson("").ok());
  EXPECT_FALSE(CompiledPlan::FromJson("not json at all").ok());
  EXPECT_FALSE(CompiledPlan::FromJson("{\"version\":1}").ok());
}

TEST(CompiledPlanTest, CompileWithPlansRejectsMalformedPlan) {
  NmfPattern q = BuildNmfPattern(40, 36, 24, /*x_nnz=*/288);
  FusionPlanSet bad;
  // Root outside the member set — the checked PartialPlan constructor
  // would refuse this, so CompileWithPlans must too.
  bad.plans.push_back(
      PartialPlan::UncheckedForTest(&q.dag, {q.vT, q.mm}, q.mul));
  Engine engine(Options());
  Result<CompiledPlan> compiled = engine.CompileWithPlans(q.dag, bad);
  ASSERT_FALSE(compiled.ok());
  EXPECT_TRUE(compiled.status().IsInvalidArgument()) << compiled.status();
  EXPECT_NE(compiled.status().message().find("plan #0"), std::string::npos)
      << compiled.status();
}

}  // namespace
}  // namespace fuseme
