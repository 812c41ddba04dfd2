// Cost model for cuboid-based fused operators (paper §3.3).
//
// Implements MemEst (Alg. 1), NetEst (Eq. 4), ComEst (Eq. 5) and Cost
// (Eq. 2).  All three walk the partial-plan tree recursively: the main
// matrix multiplication v_mm induces L/R/O subspaces; a nested matmul
// inside a subspace spawns its own model space with the collapsed
// parameters (P,1,R) / (1,Q,R) / (P,Q,1), and replication factors compound
// multiplicatively down the recursion (a block consumed two spaces deep is
// replicated by the product of the per-level factors — this is what makes
// *distant* matmuls expensive and drives the exploitation phase, §4.2).

#ifndef FUSEME_COST_COST_MODEL_H_
#define FUSEME_COST_COST_MODEL_H_

#include <algorithm>
#include <cstdint>
#include <string>

#include "fusion/partial_plan.h"
#include "runtime/cluster_config.h"

namespace fuseme {

/// (P,Q,R)-cuboid partitioning parameters, plus the k-slice grouping
/// factor W (slices per mask-replica group).  The R k-slices are processed
/// as ceil(R/W) *groups*; each group is one leader task that evaluates its
/// W slices sequentially, sharing one fetched copy of the sparse mask and
/// merging its partials locally before the cross-task aggregation.  W
/// trades task parallelism on the R axis against mask-replication and
/// aggregation traffic — the replication knob of distributed SpMM/SDDMM
/// partitioning.  W = 1 (the default) reproduces the plain (P,Q,R) cuboid
/// exactly; W only matters when R > 1 and a sparse driver exists, so the
/// optimizer searches it only then.
struct Cuboid {
  std::int64_t P = 1;
  std::int64_t Q = 1;
  std::int64_t R = 1;
  std::int64_t W = 1;

  std::int64_t volume() const { return P * Q * R; }
  /// Number of k-slice groups (= leader tasks per (p,q) pair).
  std::int64_t groups() const { return W <= 1 ? R : (R + W - 1) / W; }
  /// Number of schedulable tasks: P·Q·groups().
  std::int64_t effective_volume() const { return P * Q * groups(); }
  bool operator==(const Cuboid&) const = default;
  std::string ToString() const;
};

/// Block-grid dimensions of a plan's main matmul: I×J output blocks with K
/// common-dimension blocks.  For a plan with no matmul, I×J is the root's
/// block grid and K = 1.
struct GridDims {
  std::int64_t I = 1;
  std::int64_t J = 1;
  std::int64_t K = 1;
};

/// Estimated FLOPs to compute operator node `id` once at full scale
/// (numOp(v) in Eq. 5).
std::int64_t NumOp(const Dag& dag, NodeId id);

/// Serialized size of node `id`'s value in bytes (size(v) in Eqs. 3-4).
std::int64_t SizeOf(const Dag& dag, NodeId id);

class CostModel {
 public:
  explicit CostModel(const ClusterConfig& config) : config_(config) {}

  const ClusterConfig& config() const { return config_; }

  /// Grid dims of `plan`'s main matmul under the configured block size.
  GridDims Grid(const PartialPlan& plan) const;

  /// Estimated memory per task in bytes (Alg. 1 + Eq. 3): partitioned
  /// slices of every materialized input plus the output partition.
  double MemEst(const Cuboid& c, const PartialPlan& plan) const;

  /// Estimated total network traffic in bytes (Eq. 4): every external
  /// input is shipped `div`-partitioned but replicated by the compound
  /// replication factor of its space.
  double NetEst(const Cuboid& c, const PartialPlan& plan) const;

  /// Estimated total FLOPs across the cluster (Eq. 5): operator work is
  /// repeated by the compound replication factor of its space; the main
  /// matmul of each space level is computed once per replica of that level.
  double ComEst(const Cuboid& c, const PartialPlan& plan) const;

  /// Eq. 2: max(NetEst/(N·B̂n), ComEst/(N·B̂c)), in seconds.
  double Cost(const Cuboid& c, const PartialPlan& plan) const;

  /// Matrix-aggregation shuffle bytes for R > 1: each output block has R
  /// partial results and (R-1)/R of them travel to the r=0 tasks.  When a
  /// sparse driver masks the matmul, partials are sparse and this term is
  /// small — one reason fusing the mask with the matmul makes the R axis
  /// cheap.  (An extension of Eq. 4, which counts consolidation only; the
  /// engine charges this traffic, so the optimizer must see it too.)
  double AggBytes(const Cuboid& c, const PartialPlan& plan) const;

  /// All estimates in one pass (cheaper when the caller needs them
  /// together, as the optimizer does).
  struct Estimates {
    double mem_per_task = 0;
    double net_bytes = 0;   // consolidation traffic (Eq. 4)
    double agg_bytes = 0;   // aggregation traffic (see AggBytes)
    double flops = 0;
  };
  Estimates Estimate(const Cuboid& c, const PartialPlan& plan) const;

 private:
  struct Accum {
    double mem = 0;
    double net = 0;
    double com = 0;
  };

  /// Recursive walk described in the header comment.  `subset` is the
  /// member set of the current space, `out_root` its output node, `c` the
  /// (possibly collapsed) cuboid parameters for the space, `rep` the
  /// compound replication factor, and `div` the partition count applied to
  /// materialized values living in this space.
  void Walk(const PartialPlan& plan, const struct SparseDriver& driver,
            const std::vector<NodeId>& subset, NodeId out_root,
            const Cuboid& c, double rep, double div, Accum* acc) const;

  void ChargeExternal(const Dag& dag, NodeId input, double rep, double div,
                      Accum* acc) const;

  ClusterConfig config_;
};

}  // namespace fuseme

#endif  // FUSEME_COST_COST_MODEL_H_
