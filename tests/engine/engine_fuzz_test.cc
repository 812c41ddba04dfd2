// Differential fuzzing: random query DAGs executed under every system
// policy (different planners + different physical operators) must all
// agree with the single-node oracle bit-for-bit (up to float accumulation
// order).  This is the broadest correctness net in the suite: it covers
// plan generation, space classification, cuboid/broadcast execution,
// sparsity exploitation, aggregation roots, and multi-output queries at
// once.

#include <random>

#include <gtest/gtest.h>

#include "engine/compiled_plan.h"
#include "engine/engine.h"
#include "engine/reference.h"
#include "matrix/generators.h"

namespace fuseme {
namespace {

constexpr std::int64_t kBs = 8;

struct RandomQuery {
  Dag dag;
  std::map<NodeId, DenseMatrix> dense;
  std::map<NodeId, BlockedMatrix> blocked;
};

/// Builds a random valid DAG with bounded-magnitude values (operations
/// are restricted to a numerically tame set: no division, no log).
RandomQuery MakeRandomQuery(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  RandomQuery q;
  struct Entry {
    NodeId id;
    std::int64_t rows, cols;
  };
  std::vector<Entry> pool;

  // 2-4 leaf matrices with dimensions that are not block-aligned on
  // purpose (ragged tiles must work everywhere).
  const int num_leaves = static_cast<int>(pick(2, 4));
  std::vector<std::int64_t> dims = {10, 12, 17, 24, 9};
  for (int i = 0; i < num_leaves; ++i) {
    const std::int64_t rows = dims[pick(0, 4)];
    const std::int64_t cols = dims[pick(0, 4)];
    const bool sparse = pick(0, 2) == 0;
    DenseMatrix value =
        sparse ? RandomSparse(rows, cols, 0.12, seed * 31 + i, 0.3, 1.2)
                     .ToDense()
               : RandomDense(rows, cols, seed * 31 + i, 0.3, 1.2);
    BlockedMatrix blocked = sparse ? BlockedMatrix::FromSparse(
                                         SparseMatrix::FromDense(value), kBs)
                                   : BlockedMatrix::FromDense(value, kBs);
    // Sparse leaves declare the nnz of the matrix bound to them: Execute
    // admits only inputs of the sparsity class the plan was compiled for.
    NodeId id = *q.dag.AddInput("L" + std::to_string(i), rows, cols,
                                sparse ? blocked.nnz() : -1);
    q.dense[id] = std::move(value);
    q.blocked[id] = std::move(blocked);
    pool.push_back({id, rows, cols});
  }

  // 6-14 random operators.
  const int num_ops = static_cast<int>(pick(6, 14));
  for (int i = 0; i < num_ops; ++i) {
    const int kind = static_cast<int>(pick(0, 5));
    const Entry a = pool[pick(0, static_cast<std::int64_t>(pool.size()) - 1)];
    Result<NodeId> made = Status::Internal("skip");
    switch (kind) {
      case 0: {  // unary (value-bounded choices only)
        const UnaryFn fns[] = {UnaryFn::kSquare, UnaryFn::kAbs,
                               UnaryFn::kSigmoid, UnaryFn::kRelu,
                               UnaryFn::kNotZero};
        made = q.dag.AddUnary(fns[pick(0, 4)], a.id);
        break;
      }
      case 1: {  // binary with a shape-compatible partner
        std::vector<Entry> compatible;
        for (const Entry& e : pool) {
          if (e.rows == a.rows && e.cols == a.cols) compatible.push_back(e);
        }
        if (compatible.empty()) continue;
        const Entry b =
            compatible[pick(0, static_cast<std::int64_t>(
                                   compatible.size()) - 1)];
        const BinaryFn fns[] = {BinaryFn::kAdd, BinaryFn::kSub,
                                BinaryFn::kMul, BinaryFn::kMin,
                                BinaryFn::kMax};
        made = q.dag.AddBinary(fns[pick(0, 4)], a.id, b.id);
        break;
      }
      case 2: {  // binary with scalar
        NodeId s = *q.dag.AddScalar(0.25 + 0.5 * pick(0, 3));
        made = q.dag.AddBinary(pick(0, 1) == 0 ? BinaryFn::kMul
                                               : BinaryFn::kAdd,
                               a.id, s);
        break;
      }
      case 3: {  // matmul with an inner-compatible partner
        std::vector<Entry> compatible;
        for (const Entry& e : pool) {
          if (e.rows == a.cols) compatible.push_back(e);
        }
        if (compatible.empty()) continue;
        const Entry b =
            compatible[pick(0, static_cast<std::int64_t>(
                                   compatible.size()) - 1)];
        made = q.dag.AddMatMul(a.id, b.id);
        break;
      }
      case 4:  // transpose
        made = q.dag.AddTranspose(a.id);
        break;
      case 5: {  // aggregation
        const AggAxis axes[] = {AggAxis::kAll, AggAxis::kRow, AggAxis::kCol};
        made = q.dag.AddUnaryAgg(AggFn::kSum, axes[pick(0, 2)], a.id);
        break;
      }
    }
    if (!made.ok()) continue;
    const Node& n = q.dag.node(*made);
    pool.push_back({*made, n.rows, n.cols});
  }

  // Outputs: every sink operator (no consumers) that is not a leaf.
  for (const Entry& e : pool) {
    const Node& n = q.dag.node(e.id);
    if (n.kind == OpKind::kInput) continue;
    if (q.dag.Consumers(e.id).empty()) q.dag.MarkOutput(e.id);
  }
  return q;
}

class EngineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineFuzz, AllSystemsMatchOracle) {
  RandomQuery q = MakeRandomQuery(GetParam());
  if (q.dag.outputs().empty()) GTEST_SKIP() << "degenerate query";

  // Oracle values for every output.
  std::map<NodeId, DenseMatrix> expected;
  for (NodeId out : q.dag.outputs()) {
    auto ref = ReferenceEval(q.dag, out, q.dense);
    ASSERT_TRUE(ref.ok()) << ref.status();
    expected[out] = *ref;
  }

  EngineOptions options;
  options.cluster.num_nodes = 2;
  options.cluster.tasks_per_node = 3;
  options.cluster.block_size = kBs;
  for (SystemMode mode :
       {SystemMode::kFuseMe, SystemMode::kSystemDs, SystemMode::kMatFast,
        SystemMode::kDistMe, SystemMode::kTensorFlow}) {
    options.system = mode;
    Engine engine(options);
    Result<CompiledPlan> compiled = engine.Compile(q.dag);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    auto run = engine.Execute(*compiled, q.blocked);
    ASSERT_TRUE(run.report.ok())
        << SystemModeName(mode) << " seed " << GetParam() << ": "
        << run.report.status;
    for (NodeId out : q.dag.outputs()) {
      ASSERT_TRUE(run.outputs.contains(out))
          << SystemModeName(mode) << " missing output v" << out;
      EXPECT_LE(DenseMatrix::MaxAbsDiff(
                    run.outputs.at(out).blocks().ToDense(), expected[out]),
                1e-7)
          << SystemModeName(mode) << " seed " << GetParam() << " output v"
          << out;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzz,
                         ::testing::Range<std::uint64_t>(1, 33));

}  // namespace
}  // namespace fuseme
