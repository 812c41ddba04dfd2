// Fusion plan generators.
//
// A planner turns a query DAG into an ordered list of PartialPlans that
// covers every operator node (nodes that fuse with nothing become
// singleton plans).  Four policies are provided:
//
//  * CfgPlanner    — the paper's CFG: exploration (Alg. 2) grows candidate
//                    plans outward from matmul seeds, stopping at
//                    termination operators; exploitation (Alg. 3) splits a
//                    candidate at its most distant secondary matmul when
//                    two smaller plans are cheaper under the cost model.
//  * GenPlanner    — SystemDS's GEN templates (approximated): Outer fusion
//                    (a single matmul + the element-wise chain feeding a
//                    mask multiply + an optional aggregation top) and Cell
//                    fusion (maximal element-wise trees).  GEN never fuses
//                    more than one matmul into a plan.
//  * FoldedPlanner — MatFast: only consecutive element-wise operators fold.
//  * NoFusionPlanner — DistME: every operator is its own stage.

#ifndef FUSEME_FUSION_PLANNERS_H_
#define FUSEME_FUSION_PLANNERS_H_

#include <memory>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "fusion/partial_plan.h"
#include "verify/diagnostic.h"

namespace fuseme {

class MetricsRegistry;  // telemetry/metrics.h

struct FusionPlanSet {
  /// Plans in a valid execution order (a plan appears after every plan
  /// whose root it consumes).  Together they cover all operator nodes.
  std::vector<PartialPlan> plans;
  std::string description;
  /// Invariant violations found while the set was generated (Engine::
  /// Compile verifies intermediate CFG candidates and final coverage when
  /// EngineOptions::verify is enabled).  Execution refuses to start while
  /// this is non-empty.
  std::vector<VerifierDiagnostic> diagnostics;
};

class Planner {
 public:
  virtual ~Planner() = default;
  virtual FusionPlanSet Plan(const Dag& dag) const = 0;
  virtual std::string_view name() const = 0;
};

/// Termination operators (paper §4.1): multi-consumer nodes
/// (materialization points) and shuffle-requiring unary aggregations.
bool IsTerminationOperator(const Dag& dag, NodeId id);

class CfgPlanner : public Planner {
 public:
  /// `model` drives the exploitation phase; must outlive the planner.
  explicit CfgPlanner(const CostModel* model) : model_(model) {}

  FusionPlanSet Plan(const Dag& dag) const override;
  std::string_view name() const override { return "CFG"; }

  /// Optional instrumentation: exploration candidates, exploitation split
  /// attempts/splits, and the exploitation optimizer searches all land in
  /// fuseme_planner_* / fuseme_optimizer_* (see telemetry/metric_names.h).
  /// Not owned; null disables.
  void set_metrics(MetricsRegistry* metrics) { metrics_ = metrics; }

  /// The exploration phase alone (paper Alg. 2), exposed for tests.
  std::vector<PartialPlan> ExplorationPhase(const Dag& dag) const;
  /// The exploitation phase alone (paper Alg. 3), exposed for tests.
  std::vector<PartialPlan> ExploitationPhase(
      const Dag& dag, std::vector<PartialPlan> candidates) const;

 private:
  const CostModel* model_;
  MetricsRegistry* metrics_ = nullptr;
};

class GenPlanner : public Planner {
 public:
  FusionPlanSet Plan(const Dag& dag) const override;
  std::string_view name() const override { return "GEN"; }
};

class FoldedPlanner : public Planner {
 public:
  FusionPlanSet Plan(const Dag& dag) const override;
  std::string_view name() const override { return "Folded"; }
};

class NoFusionPlanner : public Planner {
 public:
  FusionPlanSet Plan(const Dag& dag) const override;
  std::string_view name() const override { return "NoFusion"; }
};

/// Completes `plans` into full coverage (singleton plans for uncovered
/// operators) and orders them topologically.  Used by every planner.
FusionPlanSet FinalizePlanSet(const Dag& dag, std::vector<PartialPlan> plans,
                              std::string description);

}  // namespace fuseme

#endif  // FUSEME_FUSION_PLANNERS_H_
