// Block-kernel correctness: every kernel is checked against a plain dense
// reference over all representation combinations (zero/dense/sparse), and
// meta blocks are checked for descriptor propagation.

#include "matrix/block_ops.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "matrix/gemm_kernel.h"
#include "matrix/generators.h"

namespace fuseme {
namespace {

// Builds the same logical matrix in a given representation.
enum class Repr { kZero, kDense, kSparse };

Block MakeRepr(const DenseMatrix& value, Repr repr) {
  switch (repr) {
    case Repr::kZero:
      return Block::Zero(value.rows(), value.cols());
    case Repr::kDense:
      return Block::FromDense(value);
    case Repr::kSparse:
      return Block::FromSparse(SparseMatrix::FromDense(value));
  }
  return Block();
}

DenseMatrix ValueFor(Repr repr, std::int64_t rows, std::int64_t cols,
                     std::uint64_t seed, double density = 0.3) {
  if (repr == Repr::kZero) return DenseMatrix(rows, cols);
  if (repr == Repr::kSparse) {
    return RandomSparse(rows, cols, density, seed, 0.5, 2.0).ToDense();
  }
  return RandomDense(rows, cols, seed, 0.5, 2.0);
}

class EwiseBinaryAllReprs
    : public ::testing::TestWithParam<std::tuple<Repr, Repr, BinaryFn>> {};

TEST_P(EwiseBinaryAllReprs, MatchesDenseReference) {
  auto [ra, rb, fn] = GetParam();
  DenseMatrix va = ValueFor(ra, 6, 5, 10);
  DenseMatrix vb = ValueFor(rb, 6, 5, 20);
  Block a = MakeRepr(va, ra);
  Block b = MakeRepr(vb, rb);

  std::int64_t flops = 0;
  auto result = EwiseBinary(fn, a, b, &flops);
  ASSERT_TRUE(result.ok()) << result.status();

  DenseMatrix expected(6, 5);
  bool expect_nan_possible = false;
  for (std::int64_t i = 0; i < 6; ++i) {
    for (std::int64_t j = 0; j < 5; ++j) {
      expected(i, j) = ApplyBinary(fn, va(i, j), vb(i, j));
      if (std::isnan(expected(i, j))) expect_nan_possible = true;
    }
  }
  if (expect_nan_possible) {
    // NaN-aware comparison.
    DenseMatrix got = result->ToDense();
    for (std::int64_t i = 0; i < 6; ++i) {
      for (std::int64_t j = 0; j < 5; ++j) {
        if (std::isnan(expected(i, j))) {
          EXPECT_TRUE(std::isnan(got(i, j)));
        } else {
          EXPECT_DOUBLE_EQ(got(i, j), expected(i, j));
        }
      }
    }
  } else {
    EXPECT_LE(DenseMatrix::MaxAbsDiff(result->ToDense(), expected), 1e-12);
  }
  if (!(a.is_zero() && b.is_zero())) {
    EXPECT_GE(flops, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, EwiseBinaryAllReprs,
    ::testing::Combine(
        ::testing::Values(Repr::kZero, Repr::kDense, Repr::kSparse),
        ::testing::Values(Repr::kZero, Repr::kDense, Repr::kSparse),
        ::testing::Values(BinaryFn::kAdd, BinaryFn::kSub, BinaryFn::kMul,
                          BinaryFn::kDiv, BinaryFn::kMin, BinaryFn::kMax,
                          BinaryFn::kNotEqual)));

TEST(EwiseBinaryTest, ShapeMismatchIsInvalidArgument) {
  Block a = Block::Zero(2, 3);
  Block b = Block::Zero(3, 2);
  auto result = EwiseBinary(BinaryFn::kAdd, a, b);
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(EwiseBinaryTest, SparseMulKeepsSparsity) {
  Block sparse =
      Block::FromSparse(RandomSparse(20, 20, 0.05, 7, 1.0, 2.0));
  Block dense = Block::FromDense(RandomDense(20, 20, 8, 1.0, 2.0));
  auto result = EwiseBinary(BinaryFn::kMul, sparse, dense);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->nnz(), sparse.nnz());
  EXPECT_NE(result->kind(), Block::Kind::kDense);
}

TEST(EwiseBinaryTest, MulFlopsProportionalToSparseNnz) {
  Block sparse = Block::FromSparse(RandomSparse(30, 30, 0.1, 3, 1.0, 2.0));
  Block dense = Block::FromDense(RandomDense(30, 30, 4, 1.0, 2.0));
  std::int64_t flops = 0;
  ASSERT_TRUE(EwiseBinary(BinaryFn::kMul, sparse, dense, &flops).ok());
  EXPECT_EQ(flops, sparse.nnz());  // sparsity exploitation at block level
}

class EwiseScalarTest
    : public ::testing::TestWithParam<std::tuple<Repr, BinaryFn, bool>> {};

TEST_P(EwiseScalarTest, MatchesDenseReference) {
  auto [repr, fn, scalar_left] = GetParam();
  const double scalar = 1.5;
  DenseMatrix v = ValueFor(repr, 5, 4, 9);
  Block a = MakeRepr(v, repr);
  auto result = EwiseScalar(fn, a, scalar, scalar_left);
  ASSERT_TRUE(result.ok());
  DenseMatrix got = result->ToDense();
  for (std::int64_t i = 0; i < 5; ++i) {
    for (std::int64_t j = 0; j < 4; ++j) {
      double expected = scalar_left ? ApplyBinary(fn, scalar, v(i, j))
                                    : ApplyBinary(fn, v(i, j), scalar);
      EXPECT_DOUBLE_EQ(got(i, j), expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, EwiseScalarTest,
    ::testing::Combine(
        ::testing::Values(Repr::kZero, Repr::kDense, Repr::kSparse),
        ::testing::Values(BinaryFn::kAdd, BinaryFn::kMul, BinaryFn::kDiv,
                          BinaryFn::kPow),
        ::testing::Bool()));

class UnaryAllReprs
    : public ::testing::TestWithParam<std::tuple<Repr, UnaryFn>> {};

TEST_P(UnaryAllReprs, MatchesDenseReference) {
  auto [repr, fn] = GetParam();
  DenseMatrix v = ValueFor(repr, 6, 6, 13);
  Block a = MakeRepr(v, repr);
  auto result = Unary(fn, a);
  ASSERT_TRUE(result.ok());
  DenseMatrix got = result->ToDense();
  for (std::int64_t i = 0; i < 6; ++i) {
    for (std::int64_t j = 0; j < 6; ++j) {
      double expected = ApplyUnary(fn, v(i, j));
      if (std::isnan(expected) || std::isinf(expected)) {
        EXPECT_EQ(std::isnan(got(i, j)), std::isnan(expected));
      } else {
        EXPECT_DOUBLE_EQ(got(i, j), expected);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, UnaryAllReprs,
    ::testing::Combine(
        ::testing::Values(Repr::kZero, Repr::kDense, Repr::kSparse),
        ::testing::Values(UnaryFn::kExp, UnaryFn::kSquare, UnaryFn::kAbs,
                          UnaryFn::kNotZero, UnaryFn::kSigmoid,
                          UnaryFn::kRelu, UnaryFn::kNeg)));

TEST(UnaryTest, NonZeroPreservingOnZeroBlockIsConstant) {
  Block z = Block::Zero(3, 3);
  auto result = Unary(UnaryFn::kExp, z);  // exp(0) == 1
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->At(1, 1), 1.0);
  EXPECT_EQ(result->nnz(), 9);
}

class MatMulAllReprs
    : public ::testing::TestWithParam<std::tuple<Repr, Repr>> {};

TEST_P(MatMulAllReprs, MatchesDenseReference) {
  auto [ra, rb] = GetParam();
  DenseMatrix va = ValueFor(ra, 6, 4, 31);
  DenseMatrix vb = ValueFor(rb, 4, 5, 32);
  Block a = MakeRepr(va, ra);
  Block b = MakeRepr(vb, rb);
  std::int64_t flops = 0;
  auto result = MatMul(a, b, &flops);
  ASSERT_TRUE(result.ok());

  DenseMatrix expected(6, 5);
  for (std::int64_t i = 0; i < 6; ++i) {
    for (std::int64_t j = 0; j < 5; ++j) {
      double acc = 0;
      for (std::int64_t k = 0; k < 4; ++k) acc += va(i, k) * vb(k, j);
      expected(i, j) = acc;
    }
  }
  EXPECT_LE(DenseMatrix::MaxAbsDiff(result->ToDense(), expected), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, MatMulAllReprs,
    ::testing::Combine(
        ::testing::Values(Repr::kZero, Repr::kDense, Repr::kSparse),
        ::testing::Values(Repr::kZero, Repr::kDense, Repr::kSparse)));

TEST(MatMulTest, InnerDimMismatchIsInvalidArgument) {
  Block a = Block::Zero(2, 3);
  Block b = Block::Zero(4, 2);
  EXPECT_TRUE(MatMul(a, b).status().IsInvalidArgument());
}

TEST(MatMulTest, DenseFlopsAre2MKN) {
  Block a = Block::FromDense(RandomDense(3, 4, 1, 1.0, 2.0));
  Block b = Block::FromDense(RandomDense(4, 5, 2, 1.0, 2.0));
  std::int64_t flops = 0;
  ASSERT_TRUE(MatMul(a, b, &flops).ok());
  EXPECT_EQ(flops, 2 * 3 * 4 * 5);
}

TEST(MatMulTest, SparseFlopsScaleWithNnz) {
  Block a = Block::FromSparse(RandomSparse(10, 10, 0.1, 5, 1.0, 2.0));
  Block b = Block::FromDense(RandomDense(10, 10, 6, 1.0, 2.0));
  std::int64_t flops = 0;
  ASSERT_TRUE(MatMul(a, b, &flops).ok());
  EXPECT_EQ(flops, 2 * a.nnz() * 10);
}

TEST(MatMulAccTest, AccumulatesAcrossCalls) {
  DenseMatrix acc(3, 3);
  Block a = Block::FromDense(RandomDense(3, 2, 41, 1.0, 2.0));
  Block b = Block::FromDense(RandomDense(2, 3, 42, 1.0, 2.0));
  ASSERT_TRUE(MatMulAcc(&acc, a, b).ok());
  ASSERT_TRUE(MatMulAcc(&acc, a, b).ok());
  auto once = MatMul(a, b);
  ASSERT_TRUE(once.ok());
  DenseMatrix twice = once->ToDense();
  for (std::int64_t i = 0; i < twice.size(); ++i) {
    twice.data()[i] *= 2.0;
  }
  EXPECT_LE(DenseMatrix::MaxAbsDiff(acc, twice), 1e-10);
}

TEST(MatMulAccTest, InnerDimMismatchIsInvalidArgument) {
  DenseMatrix acc(2, 2);
  Block a = Block::FromDense(RandomDense(2, 3, 8, 1.0, 2.0));
  Block b = Block::FromDense(RandomDense(4, 2, 9, 1.0, 2.0));
  Status st = MatMulAcc(&acc, a, b);
  EXPECT_TRUE(st.IsInvalidArgument()) << st;
  EXPECT_NE(st.message().find("2x3"), std::string::npos) << st;
}

// acc += a·b as the plain i/k/j triple loop: the order every GEMM path must
// reproduce bit for bit.
void NaiveGemmAcc(DenseMatrix* acc, const DenseMatrix& a,
                  const DenseMatrix& b) {
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    for (std::int64_t kk = 0; kk < a.cols(); ++kk) {
      const double va = a(i, kk);
      for (std::int64_t j = 0; j < b.cols(); ++j) {
        (*acc)(i, j) += va * b(kk, j);
      }
    }
  }
}

// Compares bit patterns, so -0.0 vs +0.0 and NaN payloads count.
bool BitwiseEqual(const DenseMatrix& x, const DenseMatrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

// Every micro-kernel instantiation the host can run — not only the one
// dispatch picks — must match the naive triple loop bitwise on shapes that
// straddle the 4-row micro-tile, the 2W- and W-column strips, the scalar
// column tail, the 64-row block and the 256-deep k panel.  A has zero
// entries (zero terms are multiplied through) and the accumulator starts
// non-zero.
TEST(MatMulAccTest, TiledGemmMatchesNaiveBitwise) {
  struct Shape {
    std::int64_t m, k, n;
  };
  const Shape shapes[] = {{150, 300, 280}, {1, 1, 1},      {3, 5, 17},
                          {67, 513, 37},   {130, 257, 24}, {5, 260, 9}};
  for (const GemmKernel& kernel : GemmKernels()) {
    if (!kernel.supported) continue;
    for (const Shape& s : shapes) {
      SCOPED_TRACE(std::string(kernel.name) + " " + std::to_string(s.m) +
                   "x" + std::to_string(s.k) + "x" + std::to_string(s.n));
      DenseMatrix da = RandomDense(s.m, s.k, 71, -1.0, 1.0);
      DenseMatrix db = RandomDense(s.k, s.n, 72, -1.0, 1.0);
      for (std::int64_t p = 0; p < da.size(); p += 7) da.data()[p] = 0.0;
      const DenseMatrix init = RandomDense(s.m, s.n, 73, -1.0, 1.0);

      DenseMatrix naive = init;
      NaiveGemmAcc(&naive, da, db);

      DenseMatrix whole = init;
      kernel.fn(&whole, da, db, 0, s.m);
      EXPECT_TRUE(BitwiseEqual(whole, naive));

      // Two row ranges split off-tile must give the same bits.
      DenseMatrix split = init;
      const std::int64_t mid = s.m / 3;
      kernel.fn(&split, da, db, 0, mid);
      kernel.fn(&split, da, db, mid, s.m);
      EXPECT_TRUE(BitwiseEqual(split, naive));
    }
  }
  // And MatMulAcc, through the dispatched kernel.
  const std::int64_t m = 150, k = 300, n = 280;
  DenseMatrix da = RandomDense(m, k, 71, -1.0, 1.0);
  DenseMatrix db = RandomDense(k, n, 72, -1.0, 1.0);
  DenseMatrix naive(m, n);
  NaiveGemmAcc(&naive, da, db);
  DenseMatrix acc(m, n);
  std::int64_t flops = 0;
  ASSERT_TRUE(
      MatMulAcc(&acc, Block::FromDense(da), Block::FromDense(db), &flops)
          .ok());
  EXPECT_TRUE(BitwiseEqual(acc, naive));
  EXPECT_EQ(flops, 2 * m * k * n);
}

// Zero entries of A are multiplied through, never skipped: 0·NaN and 0·Inf
// give NaN, and 0·b added to a -0.0 accumulator flips it to +0.0 when b > 0.
// Dense×dense must agree bitwise with the naive loop and with the
// dense×sparse kernel, which has always multiplied zero terms through.
TEST(MatMulAccTest, ZeroTermsPropagateNonFinite) {
  const std::int64_t m = 6, k = 9, n = 19;
  DenseMatrix da = RandomDense(m, k, 81, -1.0, 1.0);
  DenseMatrix db = RandomDense(k, n, 82, -1.0, 1.0);
  da(0, 2) = 0.0;
  da(1, 2) = -0.0;
  da(2, 4) = 0.0;
  for (std::int64_t kk = 0; kk < k; ++kk) da(5, kk) = kk % 2 ? -0.0 : 0.0;
  // At most one non-finite entry per column of B, so each output element
  // meets a single NaN payload and the result is order-defined.
  db(2, 1) = std::numeric_limits<double>::quiet_NaN();
  db(3, 9) = std::numeric_limits<double>::quiet_NaN();
  db(4, 5) = std::numeric_limits<double>::infinity();
  db(6, 17) = -std::numeric_limits<double>::infinity();
  DenseMatrix init(m, n);
  init.Fill(-0.0);

  DenseMatrix naive = init;
  NaiveGemmAcc(&naive, da, db);
  EXPECT_TRUE(std::isnan(naive(0, 1)));  // [0 ...]·[NaN ...]ᵀ
  EXPECT_TRUE(std::isnan(naive(2, 5)));  // 0·Inf
  EXPECT_TRUE(std::isnan(naive(5, 5)));

  for (const GemmKernel& kernel : GemmKernels()) {
    if (!kernel.supported) continue;
    SCOPED_TRACE(kernel.name);
    DenseMatrix acc = init;
    kernel.fn(&acc, da, db, 0, m);
    EXPECT_TRUE(BitwiseEqual(acc, naive));
  }

  DenseMatrix dense_dense = init;
  ASSERT_TRUE(
      MatMulAcc(&dense_dense, Block::FromDense(da), Block::FromDense(db))
          .ok());
  EXPECT_TRUE(BitwiseEqual(dense_dense, naive));

  // Every entry of B is non-zero, so the CSR form stores all of them and
  // the dense×sparse kernel sees the same terms.
  const SparseMatrix sb = SparseMatrix::FromDense(db);
  ASSERT_EQ(sb.nnz(), k * n);
  DenseMatrix dense_sparse = init;
  ASSERT_TRUE(
      MatMulAcc(&dense_sparse, Block::FromDense(da), Block::FromSparse(sb))
          .ok());
  EXPECT_TRUE(BitwiseEqual(dense_sparse, naive));
}

class TransposeAllReprs : public ::testing::TestWithParam<Repr> {};

TEST_P(TransposeAllReprs, MatchesDenseReference) {
  Repr repr = GetParam();
  DenseMatrix v = ValueFor(repr, 5, 7, 55);
  auto result = Transpose(MakeRepr(v, repr));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ToDense() == v.Transposed());
}

INSTANTIATE_TEST_SUITE_P(AllReprs, TransposeAllReprs,
                         ::testing::Values(Repr::kZero, Repr::kDense,
                                           Repr::kSparse));

TEST(TransposeTest, FlopsCountStoredEntries) {
  // A zero block moves nothing, a dense one every cell, a sparse one only
  // its stored entries.
  const SparseMatrix s = RandomSparse(6, 9, 0.2, 57, 1.0, 2.0);
  std::int64_t flops = 0;
  auto zero = Transpose(Block::Zero(6, 9), &flops);
  ASSERT_TRUE(zero.ok());
  EXPECT_TRUE(zero->is_zero());
  EXPECT_EQ(zero->rows(), 9);
  EXPECT_EQ(zero->cols(), 6);
  EXPECT_EQ(flops, 0);

  auto dense = Transpose(Block::FromDense(s.ToDense()), &flops);
  ASSERT_TRUE(dense.ok());
  EXPECT_EQ(dense->kind(), Block::Kind::kDense);
  EXPECT_EQ(flops, 6 * 9);

  flops = 0;
  auto sparse = Transpose(Block::FromSparse(s), &flops);
  ASSERT_TRUE(sparse.ok());
  EXPECT_EQ(sparse->kind(), Block::Kind::kSparse);
  EXPECT_EQ(sparse->nnz(), s.nnz());
  EXPECT_EQ(flops, s.nnz());
  EXPECT_TRUE(sparse->ToDense() == dense->ToDense());
}

class AggAllReprs
    : public ::testing::TestWithParam<std::tuple<Repr, AggFn>> {};

TEST_P(AggAllReprs, FullRowColMatchReference) {
  auto [repr, fn] = GetParam();
  DenseMatrix v = ValueFor(repr, 4, 6, 77);
  Block a = MakeRepr(v, repr);

  auto fold = [fn](double acc, double x) {
    switch (fn) {
      case AggFn::kSum:
        return acc + x;
      case AggFn::kMin:
        return std::min(acc, x);
      case AggFn::kMax:
        return std::max(acc, x);
    }
    return acc;
  };

  auto full = FullAgg(fn, a);
  ASSERT_TRUE(full.ok());
  double expect_full = v(0, 0);
  for (std::int64_t i = 0; i < 4; ++i) {
    for (std::int64_t j = 0; j < 6; ++j) {
      if (i == 0 && j == 0) {
        expect_full = fn == AggFn::kSum ? v(0, 0) : v(0, 0);
        if (fn == AggFn::kSum) expect_full = v(0, 0);
        continue;
      }
      expect_full = fold(expect_full, v(i, j));
    }
  }
  EXPECT_NEAR(full->At(0, 0), expect_full, 1e-10);

  auto row = RowAgg(fn, a);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->rows(), 4);
  EXPECT_EQ(row->cols(), 1);
  for (std::int64_t i = 0; i < 4; ++i) {
    double expected = v(i, 0);
    for (std::int64_t j = 1; j < 6; ++j) expected = fold(expected, v(i, j));
    EXPECT_NEAR(row->At(i, 0), expected, 1e-10);
  }

  auto col = ColAgg(fn, a);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(col->rows(), 1);
  EXPECT_EQ(col->cols(), 6);
  for (std::int64_t j = 0; j < 6; ++j) {
    double expected = v(0, j);
    for (std::int64_t i = 1; i < 4; ++i) expected = fold(expected, v(i, j));
    EXPECT_NEAR(col->At(0, j), expected, 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, AggAllReprs,
    ::testing::Combine(
        ::testing::Values(Repr::kZero, Repr::kDense, Repr::kSparse),
        ::testing::Values(AggFn::kSum, AggFn::kMin, AggFn::kMax)));

TEST(AggTest, SparseMinObservesImplicitZeros) {
  // All stored values are positive, but implicit zeros exist, so the min
  // must be 0, not the smallest stored value.
  Block sparse = Block::FromSparse(
      SparseMatrix::FromTriplets(3, 3, {{0, 0, 5.0}, {1, 1, 2.0}}));
  auto result = FullAgg(AggFn::kMin, sparse);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->At(0, 0), 0.0);
}

TEST(MergeAggTest, SumMergesPartials) {
  Block a = Block::FromDense(DenseMatrix(2, 2, {1, 2, 3, 4}));
  Block b = Block::FromDense(DenseMatrix(2, 2, {10, 20, 30, 40}));
  auto result = MergeAgg(AggFn::kSum, a, b);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->At(1, 1), 44.0);
}

TEST(MergeAggTest, MaxMergesPartials) {
  Block a = Block::FromDense(DenseMatrix(1, 2, {5, 1}));
  Block b = Block::FromDense(DenseMatrix(1, 2, {2, 9}));
  auto result = MergeAgg(AggFn::kMax, a, b);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->At(0, 0), 5.0);
  EXPECT_EQ(result->At(0, 1), 9.0);
}

}  // namespace
}  // namespace fuseme
