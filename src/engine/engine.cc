#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/logging.h"
#include "common/string_util.h"
#include "engine/compiled_plan.h"
#include "engine/solver_names.h"
#include "engine/solver_registry.h"
#include "fusion/sparsity_analysis.h"
#include "matrix/block.h"
#include "ops/fused_operator.h"
#include "telemetry/event_names.h"
#include "telemetry/metric_names.h"
#include "telemetry/metrics.h"
#include "telemetry/tracer.h"
#include "verify/plan_verifier.h"

namespace fuseme {

namespace {

/// Straggler enumeration bound per stage: analytic paper-scale stages can
/// model millions of tasks, and scanning the whole schedule would swamp
/// the run for no modeling benefit.  The scan is deterministic either way.
constexpr std::int64_t kStragglerScanCap = 65536;

const char* RunStatusLabel(const Status& status) {
  if (status.ok()) return "ok";
  if (status.IsOutOfMemory()) return "out_of_memory";
  if (status.IsTimedOut()) return "timed_out";
  return "error";
}

/// The stage's matrix inputs, bound from `materialized`.  CheckCompatible
/// saw every real-mode leaf bound; analytic mode synthesizes unbound
/// leaves as grid-partitioned descriptors (added to `materialized`).
FusedInputs BindStageInputs(const PartialPlan& plan,
                            const ClusterConfig& cluster,
                            std::map<NodeId, DistributedMatrix>* materialized) {
  const Dag& dag = plan.dag();
  FusedInputs fin;
  for (NodeId ext : plan.ExternalInputs()) {
    const Node& n = dag.node(ext);
    if (!n.is_matrix()) continue;
    auto it = materialized->find(ext);
    if (it == materialized->end()) {
      BlockedMatrix meta =
          BlockedMatrix::MakeMeta(n.rows, n.cols, n.nnz, cluster.block_size);
      it = materialized
               ->emplace(ext, DistributedMatrix::Create(
                                  std::move(meta), PartitionScheme::kGrid,
                                  cluster.total_tasks()))
               .first;
    }
    fin[ext] = &it->second;
  }
  return fin;
}

/// Counts the schedule's stragglers among the stage's first
/// kStragglerScanCap tasks into `recovery`.
void ScanStragglers(const FaultInjector& injector, int ordinal,
                    std::int64_t num_tasks, StageRecovery* recovery) {
  if (injector.spec().straggler_probability <= 0.0) return;
  const std::int64_t scan = std::min(num_tasks, kStragglerScanCap);
  for (std::int64_t t = 0; t < scan; ++t) {
    const double factor = injector.StragglerFactor(ordinal, t);
    if (factor > 1.0) {
      ++recovery->stragglers;
      recovery->max_straggler_factor =
          std::max(recovery->max_straggler_factor, factor);
    }
  }
}

}  // namespace

std::string_view OperatorKindName(OperatorKind kind) {
  switch (kind) {
    case OperatorKind::kCfo:
      return "CFO";
    case OperatorKind::kBfo:
      return "BFO";
    case OperatorKind::kRfo:
      return "RFO";
    case OperatorKind::kCpmm:
      return "cpmm";
    case OperatorKind::kAuto:
      break;
  }
  return "?";
}

std::string_view SystemModeName(SystemMode mode) {
  switch (mode) {
    case SystemMode::kFuseMe:
      return "FuseME";
    case SystemMode::kSystemDs:
      return "SystemDS";
    case SystemMode::kMatFast:
      return "MatFast";
    case SystemMode::kDistMe:
      return "DistME";
    case SystemMode::kTensorFlow:
      return "TensorFlow";
  }
  return "?";
}

std::string ExecutionReport::Summary() const {
  if (status.IsOutOfMemory()) return "O.O.M. (" + status.message() + ")";
  if (status.IsTimedOut()) return "T.O. (" + status.message() + ")";
  if (!status.ok()) return status.ToString();
  std::string out = HumanSeconds(elapsed_seconds) + ", " +
                    HumanBytes(static_cast<double>(total_bytes())) +
                    " shuffled, " + std::to_string(stages.size()) + " stages";
  const std::int64_t retries = total_retries();
  if (retries > 0) {
    out += ", " + std::to_string(retries) + " retr" +
           (retries == 1 ? "y" : "ies");
  }
  if (!degradations.empty()) {
    out += ", " + std::to_string(degradations.size()) + " degradation" +
           (degradations.size() == 1 ? "" : "s");
  }
  return out;
}

Engine::Engine(ValidatedTag, EngineOptions options)
    : options_(std::move(options)), model_(options_.cluster) {
  if (options_.faults.enabled()) injector_.emplace(options_.faults);
}

Engine::Engine(EngineOptions options)
    : Engine(ValidatedTag{}, std::move(options)) {
  const Status valid = options_.Validate();
  FUSEME_CHECK(valid.ok()) << valid.message();
  const Status started = StartObservability();
  FUSEME_CHECK(started.ok()) << started.message();
}

Result<Engine> Engine::Create(EngineOptions options) {
  FUSEME_RETURN_IF_ERROR(options.Validate());
  Engine engine(ValidatedTag{}, std::move(options));
  FUSEME_RETURN_IF_ERROR(engine.StartObservability());
  return engine;
}

Status Engine::StartObservability() {
  // One steady-clock epoch for every sink: the tracer's when tracing is
  // on, so /flightz and /seriesz timestamps correlate with TRACE_*.json
  // spans by subtraction.
  const std::chrono::steady_clock::time_point epoch =
      options_.tracer != nullptr ? options_.tracer->epoch()
                                 : std::chrono::steady_clock::now();
  if (options_.observability.any_enabled()) {
    FUSEME_ASSIGN_OR_RETURN(
        plane_, ObservabilityPlane::Start(options_.observability,
                                          options_.metrics, epoch));
  }
  journal_ = options_.journal != nullptr
                 ? options_.journal
                 : (plane_ != nullptr ? plane_->journal() : nullptr);
  return Status::OK();
}

SolverEnv Engine::MakeSolverEnv(bool silent) const {
  SolverEnv env;
  env.model = &model_;
  env.pruned_search = options_.pruned_search;
  env.balance_sparsity = options_.balance_sparsity;
  env.metrics = silent ? nullptr : options_.metrics;
  env.journal = silent ? nullptr : journal_;
  return env;
}

FusionPlanSet Engine::MakePlans(const Dag& dag) const {
  const bool verify = options_.verify != VerifyLevel::kOff;
  PlanVerifier verifier(&model_);
  verifier.set_metrics(options_.metrics);
  const auto plan_begin = std::chrono::steady_clock::now();

  FusionPlanSet set;
  switch (options_.system) {
    case SystemMode::kFuseMe: {
      CfgPlanner planner(&model_);
      planner.set_metrics(options_.metrics);
      if (!verify) {
        set = planner.Plan(dag);
        break;
      }
      // Verified path: check every PartialPlan the exploration and
      // exploitation phases emit, not just the finalized set.  CFG
      // candidates grow from matmul seeds, so require_matmul holds for
      // them (final sets legitimately add matmul-free singletons).
      auto check = [&](const std::vector<PartialPlan>& candidates) {
        for (const PartialPlan& p : candidates) {
          std::vector<VerifierDiagnostic> d =
              verifier.VerifyPlan(dag, p, /*require_matmul=*/true);
          set.diagnostics.insert(set.diagnostics.end(), d.begin(), d.end());
        }
      };
      std::vector<PartialPlan> candidates = planner.ExplorationPhase(dag);
      check(candidates);
      std::vector<PartialPlan> refined =
          planner.ExploitationPhase(dag, std::move(candidates));
      check(refined);
      FusionPlanSet finalized = FinalizePlanSet(dag, std::move(refined),
                                                "CFG(explore+exploit)");
      set.plans = std::move(finalized.plans);
      set.description = std::move(finalized.description);
      break;
    }
    case SystemMode::kSystemDs:
      set = GenPlanner().Plan(dag);
      break;
    case SystemMode::kMatFast:
    case SystemMode::kTensorFlow:
      set = FoldedPlanner().Plan(dag);
      break;
    case SystemMode::kDistMe:
      set = NoFusionPlanner().Plan(dag);
      break;
  }
  if (verify) {
    // Planner-generated sets must cover every operator node exactly once;
    // structural per-plan and stage-graph rules run again in CompileStages
    // (which also accepts caller-supplied, possibly partial, sets).
    std::vector<VerifierDiagnostic> d =
        verifier.VerifyPlanSet(dag, set, /*require_coverage=*/true);
    set.diagnostics.insert(set.diagnostics.end(), d.begin(), d.end());
  }
  if (options_.metrics != nullptr) {
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      plan_begin)
            .count();
    options_.metrics
        ->GetHistogram(metric_names::kPlannerWallSeconds,
                       DefaultTimeBoundaries())
        ->Observe(wall);
    options_.metrics->GetCounter(metric_names::kPlannerPlans)
        ->Add(static_cast<std::int64_t>(set.plans.size()));
  }
  if (journal_ != nullptr) {
    journal_->Emit(LogLevel::kInfo, event_names::kPlannerPlans,
                   {{"planner", set.description},
                    {"plans", std::to_string(set.plans.size())}});
  }
  return set;
}

OperatorKind Engine::PickOperator(
    const PartialPlan& plan,
    const std::vector<NodeId>& bound_matrices) const {
  const bool has_matmul = !plan.MatMuls().empty();
  switch (options_.system) {
    case SystemMode::kFuseMe:
    case SystemMode::kDistMe:
      return OperatorKind::kCfo;
    case SystemMode::kMatFast:
    case SystemMode::kTensorFlow:
      // MatFast (and XLA's data-parallel execution) broadcast the smaller
      // matmul operand; folded element-wise chains co-partition inputs.
      return has_matmul ? OperatorKind::kBfo : OperatorKind::kCfo;
    case SystemMode::kSystemDs: {
      if (!has_matmul) return OperatorKind::kCfo;
      // §6.2 selection rule: BFO when the main matrix is repartitioned
      // into fewer Spark partitions than its block-grid dimensions.
      const Dag& dag = plan.dag();
      NodeId main_input = kInvalidNode;
      std::int64_t main_cells = -1;
      for (const NodeId id : bound_matrices) {
        const Node& n = dag.node(id);
        const std::int64_t cells = n.rows * n.cols;
        if (cells > main_cells) {
          main_cells = cells;
          main_input = id;
        }
      }
      if (main_input == kInvalidNode) return OperatorKind::kBfo;
      const Node& main = dag.node(main_input);
      const std::int64_t main_bytes = SizeOf(dag, main_input);
      const std::int64_t bs = options_.cluster.block_size;
      const std::int64_t gi = (main.rows + bs - 1) / bs;
      const std::int64_t gj = (main.cols + bs - 1) / bs;
      const std::int64_t parts =
          EstimateSparkPartitions(main_bytes, gi * gj);
      if (parts >= gi && parts >= gj) return OperatorKind::kRfo;
      // SystemDS only picks the broadcast operator when the side matrices
      // actually fit in a task (mapmm); otherwise it falls back to the
      // replication-based shuffle operator (cpmm/rmm).
      std::int64_t side_bytes = 0;
      for (const NodeId id : bound_matrices) {
        if (id != main_input) side_bytes += SizeOf(dag, id);
      }
      const bool sides_fit =
          side_bytes + main_bytes / options_.cluster.total_tasks() <=
          options_.cluster.task_memory_budget;
      return sides_fit ? OperatorKind::kBfo : OperatorKind::kCpmm;
    }
  }
  return OperatorKind::kCfo;
}

Result<StagePrediction> Engine::PredictStage(
    const PartialPlan& plan, OperatorKind kind,
    const FusedInputs* inputs) const {
  // Resolve silently: NextDegradation probes the ladder through here and
  // repeated probes must not inflate the resolution metrics.
  const SolverEnv silent = MakeSolverEnv(/*silent=*/true);
  const StageSolver* solver =
      SolverRegistry::Global().Resolve(silent, kind, plan);
  if (solver == nullptr) return Status::Internal("unresolved operator kind");
  return solver->Predict(MakeSolverEnv(), plan, inputs);
}

Result<Engine::DegradationStep> Engine::NextDegradation(
    const PartialPlan& plan, OperatorKind kind, const StagePrediction& failed,
    const FusedInputs* inputs) const {
  // cpmm is the ladder's last rung; there is nothing below it.
  if (kind == OperatorKind::kCpmm) {
    return Status::OutOfMemory(
        "degradation ladder exhausted (already at cpmm) for " +
        plan.ToString());
  }
  if (kind == OperatorKind::kBfo || kind == OperatorKind::kRfo) {
    // Broadcast/replication operators carry no cuboid to shrink: degrade
    // to the optimizer-chosen CFO, which partitions what BFO/RFO broadcast
    // or replicate wholesale.
    Result<StagePrediction> pred =
        PredictStage(plan, OperatorKind::kCfo, inputs);
    if (pred.ok()) {
      return DegradationStep{OperatorKind::kCfo, *std::move(pred),
                             "shrink_cuboid"};
    }
  } else if (failed.present) {
    // CFO: the paper's cuboid rule once more, with θt lowered to just
    // below the failed attempt's MemEst — the cheapest strictly smaller
    // cuboid.  MemEst only shrinks as P, Q or R grow, so the finest
    // cuboid bounds every candidate, cpmm's (1,1,R) included, from below:
    // when it does not fit the cap, no search can succeed and no rung
    // exists.
    ClusterConfig capped = options_.cluster;
    capped.task_memory_budget = static_cast<std::int64_t>(std::min(
        static_cast<double>(capped.task_memory_budget),
        std::ceil(failed.mem_per_task) - 1.0));
    const CostModel capped_model(capped);
    const GridDims g = capped_model.Grid(plan);
    const Cuboid finest{g.I, g.J, CuboidSupportsKSplit(plan) ? g.K : 1};
    if (capped_model.MemEst(finest, plan) >
        static_cast<double>(capped.task_memory_budget)) {
      return Status::OutOfMemory("degradation ladder exhausted for " +
                                 plan.ToString());
    }
    // The CFO refinements share the base solver's prediction.
    const StageSolver* cfo = SolverRegistry::Global().Find(solver_names::kCfo);
    SolverEnv env = MakeSolverEnv();
    env.model = &capped_model;
    FUSEME_ASSIGN_OR_RETURN(StagePrediction pred,
                            cfo->Predict(env, plan, inputs));
    return DegradationStep{OperatorKind::kCfo, std::move(pred),
                           "shrink_cuboid"};
  }
  // Final rung: the (1,1,R) shuffle matmul at the configured budget,
  // feasible only for plans whose output merges coordinate-wise.
  if (!plan.MatMuls().empty() && CuboidSupportsKSplit(plan)) {
    Result<StagePrediction> pred =
        PredictStage(plan, OperatorKind::kCpmm, inputs);
    if (pred.ok()) {
      return DegradationStep{OperatorKind::kCpmm, *std::move(pred), "cpmm"};
    }
  }
  return Status::OutOfMemory("degradation ladder exhausted for " +
                             plan.ToString());
}

Result<DistributedMatrix> Engine::RunPlanAnalytic(const PartialPlan& plan,
                                                  OperatorKind kind,
                                                  const StagePrediction& pred,
                                                  StageStats* stats) const {
  const Dag& dag = plan.dag();
  const ClusterConfig& cluster = options_.cluster;
  const Node& root = dag.node(plan.root());

  // A matmul-bearing stage shuffle-writes its output for downstream
  // stages (wide dependency); element-wise stages hand their output over
  // as a narrow dependency.
  const std::int64_t output_write =
      plan.MatMuls().empty() ? 0 : SizeOf(dag, plan.root());

  stats->num_tasks = pred.num_tasks;
  stats->consolidation_bytes = static_cast<std::int64_t>(pred.net_bytes);
  stats->aggregation_bytes =
      static_cast<std::int64_t>(pred.agg_bytes) + output_write;
  stats->flops = static_cast<std::int64_t>(pred.flops);
  stats->max_task_memory = static_cast<std::int64_t>(pred.mem_per_task);

  // CFO and cpmm predictions already fit the budget (the cuboid search
  // only returns feasible cuboids); the broadcast and replication
  // operators ship their sides whole and can exceed it.
  if ((kind == OperatorKind::kBfo || kind == OperatorKind::kRfo) &&
      pred.mem_per_task > static_cast<double>(cluster.task_memory_budget)) {
    return Status::OutOfMemory(
        std::string(OperatorKindName(kind)) + " broadcast of " +
        HumanBytes(static_cast<double>(SplitPlanInputs(plan).side_bytes)) +
        " side matrices exceeds the per-task budget on " + plan.ToString());
  }
  // Mirror the real executor's output partitioning so downstream analytic
  // predictions see the partition counts real mode would.
  return DistributedMatrix::Create(
      BlockedMatrix::MakeMeta(root.rows, root.cols, root.nnz,
                              cluster.block_size),
      PartitionScheme::kGrid, std::max(pred.num_tasks, 1));
}

struct Engine::StageOutcome {
  /// The last attempt's prediction and accounting plus the stage's
  /// recovery totals; becomes one ExecutionReport::telemetry entry.
  StageTelemetry telemetry;
  int ordinal = 0;
  OperatorKind kind = OperatorKind::kAuto;  // what the last attempt ran as
  /// The last attempt's failure, else the simulator's verdict.
  Status status;
  /// Degradation rungs taken, each with its ladder action.
  std::vector<std::pair<DegradationEvent, std::string>> rungs;
  /// The attempt the fault schedule killed with an OOM ("" when none).
  std::string injected_oom_label;
  std::vector<std::string_view> solvers;  // one per dispatched attempt
  std::vector<VerifierDiagnostic> diagnostics;  // kParanoid cuboid check
  std::int64_t span_begin_us = 0;
};

Engine::RunResult Engine::ExecuteCompiled(
    const CompiledPlan& compiled,
    const std::map<NodeId, BlockedMatrix>& inputs) const {
  const Dag& dag = compiled.dag();
  const FusionPlanSet& plans = compiled.plans();
  RunResult out;
  ExecutionReport& report = out.report;
  report.plan_description = compiled.description();
  if (options_.tracer != nullptr) options_.tracer->NameCurrentThread("driver");
  if (journal_ != nullptr) {
    journal_->Emit(
        LogLevel::kInfo, event_names::kRunStart,
        {{"system", std::string(SystemModeName(options_.system))},
         {"mode", options_.analytic ? "analytic" : "real"},
         {"plans", std::to_string(plans.plans.size())}});
  }
  Simulator sim(options_.cluster);

  PlanVerifier verifier(&model_);
  verifier.set_metrics(options_.metrics);
  if (options_.verify != VerifyLevel::kOff) {
    // CompileStages already ran the structural verification and cached the
    // diagnostics in the artifact; replay them instead of re-verifying on
    // every execute.  An artifact compiled without the verifier, and every
    // kParanoid execute, get a fresh pass instead, which replaces the
    // cached one: only the plan set's carried diagnostics are kept.
    std::vector<VerifierDiagnostic> diags = compiled.diagnostics();
    if (!compiled.verified() || options_.verify == VerifyLevel::kParanoid) {
      diags = plans.diagnostics;
      std::vector<VerifierDiagnostic> fresh =
          verifier.Verify(dag, plans, options_.verify);
      diags.insert(diags.end(), fresh.begin(), fresh.end());
    }
    if (!diags.empty()) {
      report.status = Status::Internal(
          "plan verification failed (" + std::to_string(diags.size()) +
          " diagnostic" + (diags.size() == 1 ? "" : "s") +
          "): " + diags.front().ToString());
      report.verifier_diagnostics = std::move(diags);
      FinishRun(sim, &report);
      return out;
    }
  }

  // An artifact that failed compile-time verification carries no stages
  // (the verify block above surfaces its diagnostics); any other count
  // mismatch means the stages and plan set drifted apart.
  const std::vector<CompiledStage>& stages = compiled.stages();
  if (stages.size() != plans.plans.size()) {
    report.status = Status::Internal(
        "compiled plan has " + std::to_string(stages.size()) +
        " stage(s) for " + std::to_string(plans.plans.size()) + " plan(s)");
    FinishRun(sim, &report);
    return out;
  }

  // CheckCompatible admitted only matrix input leaves, so no binding can
  // collide with a stage root materialized below.
  std::map<NodeId, DistributedMatrix> materialized;
  for (const auto& [id, m] : inputs) {
    materialized.emplace(
        id, DistributedMatrix::Create(m, PartitionScheme::kGrid,
                                      options_.cluster.total_tasks()));
  }
  for (std::size_t i = 0; i < stages.size(); ++i) {
    StageOutcome outcome = RunStage(stages[i], plans.plans[i],
                                    static_cast<int>(i), verifier,
                                    &materialized, &sim);
    RecordStage(outcome);
    report.verifier_diagnostics.insert(report.verifier_diagnostics.end(),
                                       outcome.diagnostics.begin(),
                                       outcome.diagnostics.end());
    for (auto& [event, action] : outcome.rungs) {
      report.degradations.push_back(std::move(event));
    }
    report.status = std::move(outcome.status);
    report.telemetry.push_back(std::move(outcome.telemetry));
    if (!report.status.ok()) break;
  }
  if (report.status.ok()) {
    for (NodeId output : dag.outputs()) {
      auto it = materialized.find(output);
      if (it != materialized.end()) {
        out.outputs.emplace(output, std::move(it->second));
      }
    }
  }
  FinishRun(sim, &report);
  return out;
}

Engine::StageOutcome Engine::RunStage(
    const CompiledStage& stage, const PartialPlan& plan, int ordinal,
    const PlanVerifier& verifier,
    std::map<NodeId, DistributedMatrix>* materialized, Simulator* sim) const {
  const FusedInputs fin = BindStageInputs(plan, options_.cluster, materialized);
  StageOutcome out;
  out.ordinal = ordinal;
  out.span_begin_us =
      options_.tracer != nullptr ? options_.tracer->NowMicros() : 0;
  const auto host_begin = std::chrono::steady_clock::now();
  const FaultInjector* injector =
      injector_.has_value() ? &*injector_ : nullptr;
  const SolverEnv solver_env = MakeSolverEnv();
  const StageSolver* solver = SolverRegistry::Global().Find(stage.solver_id);
  FUSEME_CHECK(solver != nullptr)
      << "compiled stage references unknown solver " << stage.solver_id;

  // The first attempt replays the compile-time base prediction and folds
  // in only what the live-bound inputs change — no cuboid search
  // (PredictBase + RefinePrediction == Predict).  Every later attempt runs
  // the prediction its degradation rung chose.
  Result<StagePrediction> pred =
      stage.prediction_status.ok()
          ? Result<StagePrediction>(stage.prediction)
          : Result<StagePrediction>(stage.prediction_status);
  if (pred.ok()) solver->RefinePrediction(solver_env, plan, &fin, &*pred);

  // Degradation ladder (DESIGN.md section 13): a stage that fails with
  // OutOfMemory — genuine or injected — retries under a degraded
  // configuration when recovery allows, instead of failing the run.
  StageRecovery& recovery = out.telemetry.recovery;
  bool oom_pending = injector != nullptr && injector->InjectOom(ordinal);
  OperatorKind kind = stage.kind;
  Result<DistributedMatrix> result = Status::Internal("unset");
  StageStats stats;
  for (;;) {
    bool injected = false;  // this attempt died of the scheduled OOM
    const std::string label =
        plan.ToString() + " [" + std::string(OperatorKindName(kind)) + "]";
    out.telemetry.label = label;
    out.telemetry.predicted = pred.ok() ? *pred : StagePrediction{};
    stats = StageStats{};
    stats.label = label;
    // kParanoid re-checks the chosen cuboid against the grid bounds,
    // k-split restriction and MemEst the optimizer selected under; a
    // violation means the search or the estimate drifted from execution.
    std::vector<VerifierDiagnostic> cuboid_diags;
    if (pred.ok() && options_.verify == VerifyLevel::kParanoid &&
        (kind == OperatorKind::kCfo || kind == OperatorKind::kCpmm)) {
      cuboid_diags = verifier.VerifyCuboid(plan, pred->cuboid);
    }
    if (!pred.ok()) {
      result = pred.status();
    } else if (!cuboid_diags.empty()) {
      result = Status::Internal("stage cuboid verification failed: " +
                                cuboid_diags.front().ToString());
      out.diagnostics.insert(out.diagnostics.end(), cuboid_diags.begin(),
                             cuboid_diags.end());
    } else if (oom_pending) {
      // Synthetic memory pressure: the schedule kills this stage's first
      // execution attempt before it runs.
      oom_pending = false;
      injected = true;
      ++recovery.injected_oom;
      out.injected_oom_label = label;
      result = Status::OutOfMemory("injected OutOfMemory on stage " +
                                   std::to_string(ordinal) + " (" + label +
                                   ")");
    } else if (options_.analytic) {
      out.solvers.push_back(solver->id());
      result = RunPlanAnalytic(plan, kind, *pred, &stats);
      out.telemetry.threads = 1;
    } else {
      out.solvers.push_back(solver->id());
      StageContext ctx(label, options_.cluster);
      ctx.set_tracer(options_.tracer);
      ctx.set_metrics(options_.metrics);
      ctx.set_journal(journal_);
      if (injector != nullptr) {
        ctx.ConfigureRecovery(injector, ordinal, options_.recovery.retry);
      }
      result = solver->Execute(solver_env, plan, *pred, fin, &ctx);
      stats = ctx.Finalize();
      stats.label = label;
      out.telemetry.threads = ctx.Parallelism();
      out.telemetry.pipeline = ctx.pipeline();
      const StageRecovery items = ctx.recovery();
      recovery.attempts += items.attempts;
      recovery.retries += items.retries;
      recovery.injected_failures += items.injected_failures;
      recovery.exhausted_items += items.exhausted_items;
      recovery.backoff_seconds += items.backoff_seconds;
    }
    if (result.ok() || !result.status().IsOutOfMemory() ||
        !options_.recovery.degrade_on_oom ||
        static_cast<int>(out.rungs.size()) >=
            options_.recovery.max_degradations_per_stage) {
      break;
    }
    Result<DegradationStep> next =
        NextDegradation(plan, kind, out.telemetry.predicted, &fin);
    if (!next.ok()) {
      // The injection models a transient kill of the first attempt: with
      // no rung to take, run the same configuration once more.  A genuine
      // OOM would only repeat, so the ladder surfaces it unchanged.
      if (injected) continue;
      break;
    }
    const std::string from =
        std::string(OperatorKindName(kind)) +
        (out.telemetry.predicted.present
             ? " " + out.telemetry.predicted.cuboid.ToString()
             : "");
    const std::string to = std::string(OperatorKindName(next->kind)) + " " +
                           next->pred.cuboid.ToString();
    out.rungs.push_back(
        {{label, from, to, result.status().message()}, next->action});
    kind = next->kind;
    pred = std::move(next->pred);
    // The ladder switched configurations: re-resolve the solver for the
    // new kind (recorded as a fresh resolution, like compile time).
    solver = SolverRegistry::Global().Resolve(solver_env, kind, plan);
    FUSEME_CHECK(solver != nullptr);
  }
  out.telemetry.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    host_begin)
          .count();
  out.kind = kind;
  recovery.degradations = static_cast<std::int64_t>(out.rungs.size());

  if (result.ok()) {
    if (injector != nullptr) {
      ScanStragglers(*injector, ordinal, stats.num_tasks, &recovery);
    }
    out.status = sim->CompleteStage(
        stats, &recovery, options_.recovery.speculative_execution,
        options_.recovery.speculation_launch_factor);
    if (out.status.ok()) {
      stats.elapsed_seconds = sim->stages().back().elapsed_seconds;
    }
    materialized->emplace(plan.root(), *std::move(result));
  } else {
    out.status = result.status();
  }
  out.telemetry.actual = std::move(stats);
  return out;
}

void Engine::RecordStage(const StageOutcome& outcome) const {
  const StageTelemetry& t = outcome.telemetry;
  const StageStats& stats = t.actual;
  const StageRecovery& recovery = t.recovery;
  const std::string_view kind = OperatorKindName(outcome.kind);

  if (MetricsRegistry* metrics = options_.metrics; metrics != nullptr) {
    metrics->GetCounter(metric_names::kStages)->Increment();
    metrics->GetCounter(metric_names::kStageTasks)
        ->Add(std::max<std::int64_t>(stats.num_tasks, 0));
    metrics
        ->GetCounter(metric_names::kStageShuffleBytes,
                     {{"cause", "consolidation"}})
        ->Add(std::max<std::int64_t>(stats.consolidation_bytes, 0));
    metrics
        ->GetCounter(metric_names::kStageShuffleBytes,
                     {{"cause", "aggregation"}})
        ->Add(std::max<std::int64_t>(stats.aggregation_bytes, 0));
    metrics->GetCounter(metric_names::kStageFlops)
        ->Add(std::max<std::int64_t>(stats.flops, 0));
    metrics->GetHistogram(metric_names::kStageSeconds, DefaultTimeBoundaries())
        ->Observe(t.wall_seconds);
    metrics->GetGauge(metric_names::kTaskMemoryBytes)
        ->Set(static_cast<double>(stats.max_task_memory));
    // An actual per-task high-water above the MemEst the stage was
    // admitted under is a memory overrun.
    if (t.predicted.present &&
        static_cast<double>(stats.max_task_memory) > t.predicted.mem_per_task) {
      metrics->GetCounter(metric_names::kStageMemoryOverruns)->Increment();
    }
    if (t.pipeline.fetch_wait_seconds > 0.0 ||
        t.pipeline.compute_busy_seconds > 0.0) {
      // Overlap telemetry (DESIGN.md section 14): host wall-clock split of
      // work-item time into transfer stalls and kernel compute, plus the
      // per-stage overlap efficiency the prefetcher achieved.
      metrics->GetGauge(metric_names::kFetchWaitSeconds)
          ->Add(t.pipeline.fetch_wait_seconds);
      metrics->GetGauge(metric_names::kComputeBusySeconds)
          ->Add(t.pipeline.compute_busy_seconds);
      metrics->GetGauge(metric_names::kStageOverlapEfficiency)
          ->Set(t.pipeline.OverlapEfficiency());
    }
    if (recovery.injected_oom > 0) {
      metrics->GetCounter(metric_names::kFaultInjected, {{"kind", "oom"}})
          ->Add(recovery.injected_oom);
    }
    if (recovery.stragglers > 0) {
      metrics->GetCounter(metric_names::kFaultInjected, {{"kind", "straggler"}})
          ->Add(recovery.stragglers);
    }
    for (const auto& [event, action] : outcome.rungs) {
      metrics->GetCounter(metric_names::kStageDegradations, {{"action", action}})
          ->Increment();
    }
    if (recovery.speculative_tasks > 0) {
      metrics->GetCounter(metric_names::kSpeculativeTasks)
          ->Add(recovery.speculative_tasks);
    }
    for (const std::string_view solver : outcome.solvers) {
      metrics
          ->GetCounter(metric_names::kSolverExecutions,
                       {{"solver", std::string(solver)}})
          ->Increment();
    }
  }

  // Stage-level events on the driver thread, after the stage finished —
  // never per item, keeping emission off the work-item hot path.
  if (journal_ != nullptr) {
    const std::string ordinal = std::to_string(outcome.ordinal);
    if (!outcome.injected_oom_label.empty()) {
      journal_->Emit(LogLevel::kWarning, event_names::kFaultInjectedOom,
                     {{"stage", outcome.injected_oom_label},
                      {"ordinal", ordinal}});
    }
    for (const auto& [event, action] : outcome.rungs) {
      journal_->Emit(LogLevel::kWarning, event_names::kStageDegraded,
                     {{"stage", event.stage_label},
                      {"from", event.from},
                      {"to", event.to},
                      {"cause", event.cause}});
    }
    if (recovery.retries > 0) {
      journal_->Emit(
          LogLevel::kWarning, event_names::kTaskRetry,
          {{"stage", t.label},
           {"attempts", std::to_string(recovery.attempts)},
           {"injected_failures", std::to_string(recovery.injected_failures)},
           {"exhausted", std::to_string(recovery.exhausted_items)}});
    }
    if (recovery.speculative_tasks > 0) {
      journal_->Emit(
          LogLevel::kInfo, event_names::kSpeculation,
          {{"stage", t.label},
           {"copies", std::to_string(recovery.speculative_tasks)}});
    }
    if (outcome.status.ok()) {
      journal_->Emit(
          LogLevel::kInfo, event_names::kStageCommit,
          {{"stage", t.label},
           {"ordinal", ordinal},
           {"operator", std::string(kind)},
           {"tasks", std::to_string(stats.num_tasks)},
           {"elapsed_seconds", std::to_string(stats.elapsed_seconds)}});
    }
  }

  if (options_.tracer != nullptr) {
    TraceSpan span;
    span.name = t.label;
    span.category = "stage";
    span.begin_us = outcome.span_begin_us;
    span.end_us = options_.tracer->NowMicros();
    span.tid = options_.tracer->CurrentThreadId();
    span.args.emplace_back("operator", kind);
    span.args.emplace_back(
        "status", outcome.status.ok() ? "ok" : outcome.status.ToString());
    if (t.predicted.present) {
      span.args.emplace_back("cuboid", t.predicted.cuboid.ToString());
      span.args.emplace_back(
          "predicted_net_bytes",
          std::to_string(static_cast<std::int64_t>(t.predicted.net_bytes)));
      span.args.emplace_back(
          "predicted_flops",
          std::to_string(static_cast<std::int64_t>(t.predicted.flops)));
    }
    span.args.emplace_back("actual_net_bytes",
                           std::to_string(stats.consolidation_bytes));
    span.args.emplace_back("actual_agg_bytes",
                           std::to_string(stats.aggregation_bytes));
    span.args.emplace_back("actual_flops", std::to_string(stats.flops));
    span.args.emplace_back("num_tasks", std::to_string(stats.num_tasks));
    if (recovery.any()) {
      span.args.emplace_back("retries", std::to_string(recovery.retries));
      span.args.emplace_back("degradations",
                             std::to_string(recovery.degradations));
      span.args.emplace_back("injected_oom",
                             std::to_string(recovery.injected_oom));
      span.args.emplace_back("stragglers",
                             std::to_string(recovery.stragglers));
      span.args.emplace_back("speculative_tasks",
                             std::to_string(recovery.speculative_tasks));
    }
    options_.tracer->Record(std::move(span));
  }
}

void Engine::FinishRun(const Simulator& sim, ExecutionReport* report) const {
  report->elapsed_seconds = sim.elapsed_seconds();
  report->stages = sim.stages();
  for (const StageStats& s : report->stages) {
    report->consolidation_bytes += s.consolidation_bytes;
    report->aggregation_bytes += s.aggregation_bytes;
    report->flops += s.flops;
    report->max_task_memory = std::max(report->max_task_memory,
                                       s.max_task_memory);
  }
  for (const StageTelemetry& t : report->telemetry) {
    report->attempts += t.recovery.attempts;
    if (t.recovery.retries > 0) {
      report->retries_by_cause["injected_failure"] += t.recovery.retries;
    }
    report->speculative_tasks += t.recovery.speculative_tasks;
  }

  const char* status = RunStatusLabel(report->status);
  if (options_.metrics != nullptr) {
    options_.metrics->GetCounter(metric_names::kEngineRuns,
                                 {{"status", status}})
        ->Increment();
  }
  if (journal_ != nullptr) {
    for (const VerifierDiagnostic& d : report->verifier_diagnostics) {
      journal_->Emit(LogLevel::kError, event_names::kVerifierDiagnostic,
                     {{"rule", d.rule}, {"detail", d.ToString()}});
    }
    journal_->Emit(report->status.ok() ? LogLevel::kInfo : LogLevel::kError,
                   event_names::kRunFinish,
                   {{"status", status},
                    {"elapsed_seconds",
                     std::to_string(report->elapsed_seconds)},
                    {"stages", std::to_string(report->stages.size())}});
  }
}

namespace {

/// The plan's matrix-valued external input ids, ascending — the id set a
/// successful run binds, in the order the historical std::map-keyed
/// PickOperator iterated them.
std::vector<NodeId> BoundMatrixIds(const Dag& dag, const PartialPlan& plan) {
  std::vector<NodeId> bound;
  for (NodeId ext : plan.ExternalInputs()) {
    if (dag.node(ext).is_matrix()) bound.push_back(ext);
  }
  std::sort(bound.begin(), bound.end());
  return bound;
}

}  // namespace

void Engine::CompileStages(OperatorKind forced, CompiledPlan* compiled) const {
  const Dag& dag = *compiled->dag_;
  const FusionPlanSet& plans = compiled->plans_;
  compiled->system_ = options_.system;
  compiled->forced_ = forced;
  compiled->analytic_ = options_.analytic;
  compiled->verify_ = options_.verify;
  compiled->cluster_ = options_.cluster;
  // Both entry points populate the description: MakePlans-produced sets
  // carry the planner's own, caller-assembled sets get a synthesized one.
  compiled->description_ =
      !plans.description.empty()
          ? plans.description
          : "caller-supplied (" + std::to_string(plans.plans.size()) +
                " plan" + (plans.plans.size() == 1 ? "" : "s") + ")";
  compiled->diagnostics_ = plans.diagnostics;
  if (options_.verify != VerifyLevel::kOff) {
    // Structural verification of everything Execute will replay: DAG
    // consistency, per-plan region legality + subspace soundness, and the
    // lowered stage graph.  Cached after the plan set's carried
    // diagnostics so Execute can replay it.
    PlanVerifier verifier(&model_);
    verifier.set_metrics(options_.metrics);
    std::vector<VerifierDiagnostic> more =
        verifier.Verify(dag, plans, options_.verify);
    compiled->diagnostics_.insert(compiled->diagnostics_.end(), more.begin(),
                                  more.end());
    compiled->verified_ = true;
    if (!compiled->diagnostics_.empty()) {
      // Execute fails on these diagnostics before touching any stage;
      // resolving solvers for a rejected plan set would only mint
      // misleading fuseme.solver.chosen events on corrupt plans.
      return;
    }
  }

  const SolverEnv env = MakeSolverEnv();
  compiled->stages_.reserve(plans.plans.size());
  for (const PartialPlan& plan : plans.plans) {
    CompiledStage stage;
    stage.kind = forced == OperatorKind::kAuto
                     ? PickOperator(plan, BoundMatrixIds(dag, plan))
                     : forced;
    const StageSolver* solver =
        SolverRegistry::Global().Resolve(env, stage.kind, plan);
    FUSEME_CHECK(solver != nullptr);
    stage.solver_id = std::string(solver->id());
    Result<StagePrediction> base = solver->PredictBase(env, plan);
    if (base.ok()) {
      stage.prediction = *std::move(base);
    } else {
      stage.prediction_status = base.status();
    }
    if (journal_ != nullptr) {
      std::vector<std::pair<std::string, std::string>> fields = {
          {"stage", plan.ToString()},
          {"solver", stage.solver_id},
          {"operator", std::string(OperatorKindName(stage.kind))}};
      if (stage.prediction_status.ok()) {
        fields.emplace_back("cost_seconds",
                            std::to_string(stage.prediction.cost_seconds));
      }
      journal_->Emit(LogLevel::kInfo, event_names::kSolverChosen,
                     std::move(fields));
    }
    compiled->stages_.push_back(std::move(stage));
  }
}

Result<CompiledPlan> Engine::Compile(const Dag& dag) const {
  CompiledPlan compiled;
  compiled.dag_ = std::make_unique<Dag>(dag);
  compiled.plans_ = MakePlans(*compiled.dag_);
  CompileStages(OperatorKind::kAuto, &compiled);
  return compiled;
}

Result<CompiledPlan> Engine::CompileWithPlans(const Dag& dag,
                                              const FusionPlanSet& plans,
                                              OperatorKind forced) const {
  CompiledPlan compiled;
  compiled.dag_ = std::make_unique<Dag>(dag);
  // Rebuild the caller's plans over the artifact's own DAG copy so the
  // artifact stays self-contained.  The PartialPlan constructor aborts on
  // malformed plans; pre-validate so callers get a Status instead.
  compiled.plans_.description = plans.description;
  compiled.plans_.diagnostics = plans.diagnostics;
  int index = -1;
  for (const PartialPlan& plan : plans.plans) {
    ++index;
    const auto malformed = [&](const std::string& why) {
      return Status::InvalidArgument("plan #" + std::to_string(index) + " " +
                                     why);
    };
    if (plan.members().empty()) return malformed("has no members");
    for (NodeId member : plan.members()) {
      if (member < 0 || member >= dag.num_nodes()) {
        return malformed("member v" + std::to_string(member) +
                         " is out of range");
      }
      const Node& n = dag.node(member);
      if (n.kind == OpKind::kInput || n.kind == OpKind::kScalar) {
        return malformed("member v" + std::to_string(member) +
                         " is a leaf, not an operator");
      }
    }
    if (!plan.Contains(plan.root())) {
      return malformed("root v" + std::to_string(plan.root()) +
                       " is not a member");
    }
    compiled.plans_.plans.emplace_back(compiled.dag_.get(), plan.members(),
                                       plan.root());
  }
  CompileStages(forced, &compiled);
  return compiled;
}

Engine::RunResult Engine::Execute(
    const CompiledPlan& plan,
    const std::map<NodeId, BlockedMatrix>& inputs) const {
  const Status compat = plan.CheckCompatible(options_, inputs);
  if (!compat.ok()) {
    RunResult out;
    out.report.plan_description = plan.description();
    out.report.status = compat;
    return out;
  }
  return ExecuteCompiled(plan, inputs);
}

PlanDescription Engine::Describe(const Dag& dag) const {
  const FusionPlanSet plans = MakePlans(dag);
  // Silent env: describing must not inflate the fuseme_solver_* /
  // optimizer accounting a later Compile of the same DAG would record.
  const SolverEnv env = MakeSolverEnv(/*silent=*/true);
  const SolverRegistry& registry = SolverRegistry::Global();
  PlanDescription desc;
  desc.planner = plans.description;
  desc.stages.reserve(plans.plans.size());
  for (const PartialPlan& plan : plans.plans) {
    StageDescription stage;
    stage.label = plan.ToString();
    stage.kind = PickOperator(plan, BoundMatrixIds(dag, plan));
    const StageSolver* chosen = registry.Resolve(env, stage.kind, plan);
    for (const StageSolver* s : registry.solvers()) {
      SolverCandidate c;
      c.solver_id = std::string(s->id());
      c.applicability = s->IsApplicable(env, plan);
      if (c.applicability.ok()) {
        const Result<StagePrediction> pred =
            s->Predict(env, plan, /*inputs=*/nullptr);
        c.cost_seconds = pred.ok() ? pred->cost_seconds
                                   : std::numeric_limits<double>::infinity();
        c.feasible = std::isfinite(c.cost_seconds);
      }
      c.chosen = s == chosen;
      stage.candidates.push_back(std::move(c));
    }
    desc.stages.push_back(std::move(stage));
  }
  return desc;
}

}  // namespace fuseme
