#include "ops/evaluator.h"

#include <gtest/gtest.h>

#include <cmath>
#include "engine/reference.h"
#include "matrix/generators.h"
#include "workloads/queries.h"

namespace fuseme {
namespace {

constexpr std::int64_t kBs = 8;  // block size for all evaluator tests

/// Fetcher serving blocks out of in-memory BlockedMatrix bindings.
BlockFetcher MapFetcher(const std::map<NodeId, BlockedMatrix>* data) {
  return [data](NodeId id, std::int64_t bi,
                std::int64_t bj) -> Result<Block> {
    auto it = data->find(id);
    if (it == data->end()) {
      return Status::InvalidArgument("no binding for v" + std::to_string(id));
    }
    return it->second.block(bi, bj);
  };
}

DenseMatrix TileOf(const DenseMatrix& full, std::int64_t bi, std::int64_t bj,
                   std::int64_t bs) {
  const std::int64_t r0 = bi * bs, c0 = bj * bs;
  const std::int64_t rows = std::min(bs, full.rows() - r0);
  const std::int64_t cols = std::min(bs, full.cols() - c0);
  DenseMatrix out(rows, cols);
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < cols; ++j) {
      out(i, j) = full(r0 + i, c0 + j);
    }
  }
  return out;
}

struct NmfFixture {
  NmfPattern q;
  std::map<NodeId, BlockedMatrix> blocked;
  std::map<NodeId, DenseMatrix> dense;
  DenseMatrix expected;

  explicit NmfFixture(std::int64_t i = 20, std::int64_t j = 18,
                      std::int64_t k = 6, double x_density = 0.1)
      : q(BuildNmfPattern(i, j, k,
                          static_cast<std::int64_t>(i * j * x_density))) {
    SparseMatrix x = RandomSparse(i, j, x_density, /*seed=*/1, 1.0, 2.0);
    DenseMatrix u = RandomDense(i, k, /*seed=*/2, 0.5, 1.5);
    DenseMatrix v = RandomDense(j, k, /*seed=*/3, 0.5, 1.5);
    dense[q.X] = x.ToDense();
    dense[q.U] = u;
    dense[q.V] = v;
    blocked[q.X] = BlockedMatrix::FromSparse(x, kBs);
    blocked[q.U] = BlockedMatrix::FromDense(u, kBs);
    blocked[q.V] = BlockedMatrix::FromDense(v, kBs);
    auto ref = ReferenceEval(q.dag, q.mul, dense);
    FUSEME_CHECK(ref.ok());
    expected = *ref;
  }

  PartialPlan Plan() const {
    return PartialPlan(&q.dag, {q.vT, q.mm, q.add, q.log, q.mul}, q.mul);
  }
};

TEST(KernelEvaluatorTest, RootBlocksMatchReference) {
  NmfFixture f;
  PartialPlan plan = f.Plan();
  KernelEvaluator eval(&plan, kBs, MapFetcher(&f.blocked));
  const NodeGrid grid = eval.Grid(f.q.mul);
  for (std::int64_t bi = 0; bi < grid.grid_rows(); ++bi) {
    for (std::int64_t bj = 0; bj < grid.grid_cols(); ++bj) {
      auto block = eval.Eval(f.q.mul, bi, bj);
      ASSERT_TRUE(block.ok()) << block.status();
      DenseMatrix expected = TileOf(f.expected, bi, bj, kBs);
      EXPECT_LE(DenseMatrix::MaxAbsDiff(block->ToDense(), expected), 1e-9)
          << "block " << bi << "," << bj;
    }
  }
  EXPECT_GT(eval.flops(), 0);
}

TEST(KernelEvaluatorTest, SparseDriverPathMatchesBlockPath) {
  NmfFixture f(24, 16, 5, /*x_density=*/0.05);
  PartialPlan plan = f.Plan();
  SparseDriver driver = FindSparseDriver(plan, f.q.mm);
  ASSERT_TRUE(driver.found());

  KernelEvaluator with_driver(&plan, kBs, MapFetcher(&f.blocked));
  with_driver.SetSparseDriver(driver);
  KernelEvaluator without(&plan, kBs, MapFetcher(&f.blocked));

  const NodeGrid grid = with_driver.Grid(f.q.mul);
  for (std::int64_t bi = 0; bi < grid.grid_rows(); ++bi) {
    for (std::int64_t bj = 0; bj < grid.grid_cols(); ++bj) {
      auto a = with_driver.Eval(f.q.mul, bi, bj);
      auto b = without.Eval(f.q.mul, bi, bj);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_LE(DenseMatrix::MaxAbsDiff(a->ToDense(), b->ToDense()), 1e-9);
    }
  }
  // The masked path does far less work than the dense evaluation.
  EXPECT_LT(with_driver.flops(), without.flops() / 2);
}

TEST(KernelEvaluatorTest, TransposedSparseLhsFeedsSpmmDirectly) {
  // t(X) %*% U with sparse X: the matmul reads X's untransposed blocks
  // straight into the transpose-SpMM kernel instead of materializing the
  // transpose, so its GEMM work scales with nnz(X), not with X's cells.
  const std::int64_t i = 20, j = 18, k = 6;
  const SparseMatrix x = RandomSparse(i, j, 0.1, /*seed=*/11, 1.0, 2.0);
  const DenseMatrix u = RandomDense(i, k, /*seed=*/12, 0.5, 1.5);
  Dag dag;
  const NodeId xid = *dag.AddInput("X", i, j, x.nnz());
  const NodeId uid = *dag.AddInput("U", i, k);
  const NodeId t = *dag.AddTranspose(xid);
  const NodeId mm = *dag.AddMatMul(t, uid);
  dag.MarkOutput(mm);
  auto ref = ReferenceEval(dag, mm, {{xid, x.ToDense()}, {uid, u}});
  ASSERT_TRUE(ref.ok()) << ref.status();
  PartialPlan plan(&dag, {t, mm}, mm);

  std::map<NodeId, BlockedMatrix> sparse_x = {
      {xid, BlockedMatrix::FromSparse(x, kBs)},
      {uid, BlockedMatrix::FromDense(u, kBs)}};
  std::map<NodeId, BlockedMatrix> dense_x = {
      {xid, BlockedMatrix::FromDense(x.ToDense(), kBs)},
      {uid, BlockedMatrix::FromDense(u, kBs)}};
  KernelEvaluator fused(&plan, kBs, MapFetcher(&sparse_x));
  KernelEvaluator dense(&plan, kBs, MapFetcher(&dense_x));
  const NodeGrid grid = fused.Grid(mm);
  for (std::int64_t bi = 0; bi < grid.grid_rows(); ++bi) {
    for (std::int64_t bj = 0; bj < grid.grid_cols(); ++bj) {
      auto a = fused.Eval(mm, bi, bj);
      auto b = dense.Eval(mm, bi, bj);
      ASSERT_TRUE(a.ok()) << a.status();
      ASSERT_TRUE(b.ok()) << b.status();
      const DenseMatrix expected = TileOf(*ref, bi, bj, kBs);
      EXPECT_LE(DenseMatrix::MaxAbsDiff(a->ToDense(), expected), 1e-9)
          << "block " << bi << "," << bj;
      EXPECT_LE(DenseMatrix::MaxAbsDiff(b->ToDense(), expected), 1e-9)
          << "block " << bi << "," << bj;
    }
  }
  EXPECT_GT(fused.gemm_flops(), 0);
  EXPECT_LT(fused.gemm_flops(), dense.gemm_flops() / 2);
}

TEST(KernelEvaluatorTest, KRestrictedPartialsSumToFull) {
  NmfFixture f(16, 16, 20, /*x_density=*/1.0);  // K spans 3 blocks
  PartialPlan plan = f.Plan();

  KernelEvaluator full(&plan, kBs, MapFetcher(&f.blocked));
  auto full_mm = full.Eval(f.q.mm, 0, 0);
  ASSERT_TRUE(full_mm.ok());

  // Partial evaluations over k-slices [0,1), [1,2), [2,3).
  DenseMatrix sum(full_mm->rows(), full_mm->cols());
  for (std::int64_t r = 0; r < 3; ++r) {
    KernelEvaluator partial(&plan, kBs, MapFetcher(&f.blocked));
    partial.RestrictK(f.q.mm, r, r + 1);
    auto block = partial.Eval(f.q.mm, 0, 0);
    ASSERT_TRUE(block.ok());
    DenseMatrix d = block->ToDense();
    for (std::int64_t i = 0; i < sum.size(); ++i) {
      sum.data()[i] += d.data()[i];
    }
  }
  EXPECT_LE(DenseMatrix::MaxAbsDiff(sum, full_mm->ToDense()), 1e-9);
}

TEST(KernelEvaluatorTest, InjectedValueShortCircuits) {
  NmfFixture f;
  PartialPlan plan = f.Plan();
  KernelEvaluator eval(&plan, kBs, MapFetcher(&f.blocked));
  // Inject zeros for the matmul: log(0 + eps) * X should result.
  const NodeGrid grid = eval.Grid(f.q.mm);
  for (std::int64_t bi = 0; bi < grid.grid_rows(); ++bi) {
    for (std::int64_t bj = 0; bj < grid.grid_cols(); ++bj) {
      eval.Inject(f.q.mm, bi, bj,
                  Block::Zero(grid.TileRows(bi), grid.TileCols(bj)));
    }
  }
  auto block = eval.Eval(f.q.mul, 0, 0);
  ASSERT_TRUE(block.ok());
  // Expected: X * log(eps) at X's non-zeros within the tile.
  DenseMatrix x_tile = TileOf(f.dense[f.q.X], 0, 0, kBs);
  for (std::int64_t i = 0; i < x_tile.rows(); ++i) {
    for (std::int64_t j = 0; j < x_tile.cols(); ++j) {
      EXPECT_NEAR(block->ToDense()(i, j), x_tile(i, j) * std::log(1e-8),
                  1e-9);
    }
  }
}

TEST(KernelEvaluatorTest, EvalMaskedNodeRestrictedPartials) {
  NmfFixture f(16, 16, 20, /*x_density=*/0.08);
  PartialPlan plan = f.Plan();
  SparseDriver driver = FindSparseDriver(plan, f.q.mm);
  ASSERT_TRUE(driver.found());

  // Masked partials over k-slices must sum to the masked full product.
  KernelEvaluator full(&plan, kBs, MapFetcher(&f.blocked));
  auto mm_full = full.Eval(f.q.mm, 0, 1);
  ASSERT_TRUE(mm_full.ok());

  DenseMatrix summed(mm_full->rows(), mm_full->cols());
  for (std::int64_t r = 0; r < 3; ++r) {
    KernelEvaluator partial(&plan, kBs, MapFetcher(&f.blocked));
    partial.RestrictK(f.q.mm, r, r + 1);
    auto masked = partial.EvalMaskedNode(f.q.mm, driver.sparse_input, 0, 1);
    ASSERT_TRUE(masked.ok());
    DenseMatrix d = masked->ToDense();
    for (std::int64_t i = 0; i < summed.size(); ++i) {
      summed.data()[i] += d.data()[i];
    }
  }
  // At mask non-zeros the sum equals the full product.
  const BlockedMatrix& xb = f.blocked[f.q.X];
  const Block& mask = xb.block(0, 1);
  DenseMatrix full_d = mm_full->ToDense();
  for (std::int64_t i = 0; i < mask.rows(); ++i) {
    for (std::int64_t j = 0; j < mask.cols(); ++j) {
      if (mask.At(i, j) != 0.0) {
        EXPECT_NEAR(summed(i, j), full_d(i, j), 1e-9);
      } else {
        EXPECT_EQ(summed(i, j), 0.0);
      }
    }
  }
}

TEST(KernelEvaluatorTest, FetcherErrorsPropagate) {
  NmfFixture f;
  PartialPlan plan = f.Plan();
  KernelEvaluator eval(&plan, kBs, [](NodeId, std::int64_t, std::int64_t)
                           -> Result<Block> {
    return Status::OutOfMemory("fetch failed");
  });
  auto result = eval.Eval(f.q.mul, 0, 0);
  EXPECT_TRUE(result.status().IsOutOfMemory());
}

TEST(KernelEvaluatorTest, PcaRowFusionPattern) {
  // (X×S)ᵀ×X with everything fused: exercises transpose + nested matmul.
  PcaPattern q = BuildPcaPattern(20, 12);
  DenseMatrix x = RandomDense(20, 12, /*seed=*/4, 0.1, 1.0);
  DenseMatrix s = RandomDense(12, 1, /*seed=*/5, 0.1, 1.0);
  std::map<NodeId, DenseMatrix> dense = {{q.X, x}, {q.S, s}};
  std::map<NodeId, BlockedMatrix> blocked;
  blocked[q.X] = BlockedMatrix::FromDense(x, kBs);
  blocked[q.S] = BlockedMatrix::FromDense(s, kBs);
  auto expected = ReferenceEval(q.dag, q.mm2, dense);
  ASSERT_TRUE(expected.ok());

  PartialPlan plan(&q.dag, {q.mm1, q.t, q.mm2}, q.mm2);
  KernelEvaluator eval(&plan, kBs, MapFetcher(&blocked));
  const NodeGrid grid = eval.Grid(q.mm2);
  DenseMatrix got(1, 12);
  for (std::int64_t bj = 0; bj < grid.grid_cols(); ++bj) {
    auto block = eval.Eval(q.mm2, 0, bj);
    ASSERT_TRUE(block.ok());
    DenseMatrix tile = block->ToDense();
    for (std::int64_t j = 0; j < tile.cols(); ++j) {
      got(0, bj * kBs + j) = tile(0, j);
    }
  }
  EXPECT_LE(DenseMatrix::MaxAbsDiff(got, *expected), 1e-9);
}

}  // namespace
}  // namespace fuseme
