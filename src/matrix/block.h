// Block: the unit of distributed matrix computation (paper §2.2).
//
// A distributed matrix is a grid of fixed-size blocks (paper default
// 1000×1000).  A Block holds one tile in one of four representations:
//
//   kZero   — all-zero tile, no storage (common for very sparse matrices);
//   kDense  — row-major DenseMatrix payload;
//   kSparse — CSR SparseMatrix payload;
//   kMeta   — *descriptor only* ({rows, cols, nnz}): analytic mode's
//             stand-in for inputs and stage outputs at paper scale.  The
//             kernels and physical operators never see one.
//
// Payloads are shared_ptr-held so that replicating a block to many tasks
// (the heart of BFO/RFO/CFO) is cheap in-process; the CommTracker charges
// the modeled network bytes independently of this sharing.

#ifndef FUSEME_MATRIX_BLOCK_H_
#define FUSEME_MATRIX_BLOCK_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/logging.h"
#include "matrix/dense_matrix.h"
#include "matrix/sparse_matrix.h"

namespace fuseme {

/// Density at or above which a block is stored (and estimated) as dense.
/// SystemML uses 0.4 as the dense/sparse storage crossover; we follow it.
inline constexpr double kDenseStorageThreshold = 0.4;

class Block {
 public:
  enum class Kind { kZero, kDense, kSparse, kMeta };

  Block() : Block(Kind::kZero, 0, 0, 0) {}

  static Block Zero(std::int64_t rows, std::int64_t cols) {
    return Block(Kind::kZero, rows, cols, 0);
  }
  static Block FromDense(DenseMatrix dense);
  static Block FromSparse(SparseMatrix sparse);
  /// Descriptor-only block for the analytic simulator.
  static Block Meta(std::int64_t rows, std::int64_t cols, std::int64_t nnz);
  /// Dense block filled with a constant.
  static Block Constant(std::int64_t rows, std::int64_t cols, double value);

  Kind kind() const { return kind_; }
  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  std::int64_t size() const { return rows_ * cols_; }
  std::int64_t nnz() const { return nnz_; }
  double density() const {
    return size() == 0 ? 0.0 : static_cast<double>(nnz_) / size();
  }

  bool is_meta() const { return kind_ == Kind::kMeta; }
  bool is_zero() const { return kind_ == Kind::kZero; }
  /// True when the block carries actual values (zero counts as real).
  bool is_real() const { return kind_ != Kind::kMeta; }

  const DenseMatrix& dense() const {
    FUSEME_CHECK(kind_ == Kind::kDense);
    return *dense_;
  }
  const SparseMatrix& sparse() const {
    FUSEME_CHECK(kind_ == Kind::kSparse);
    return *sparse_;
  }

  /// Element access for any real kind (kZero returns 0).
  double At(std::int64_t i, std::int64_t j) const;

  /// Materializes as a DenseMatrix (CHECKs is_real()).
  DenseMatrix ToDense() const;

  /// In-memory footprint used for memory accounting and the network-byte
  /// model: dense tiles cost 8·rows·cols, sparse tiles 12·nnz + 8·rows
  /// (8-byte value + 4-byte column index per entry — block-local indices
  /// fit 32 bits — plus an 8-byte extent per row), zero tiles a small
  /// header.
  /// Meta blocks report what their materialized form *would* cost, picking
  /// dense vs. sparse by kDenseStorageThreshold.
  std::int64_t SizeBytes() const;

  /// Same accounting applied to a hypothetical tile, without building one.
  static std::int64_t EstimateSizeBytes(std::int64_t rows, std::int64_t cols,
                                        std::int64_t nnz);

  std::string ToString() const;

 private:
  Block(Kind kind, std::int64_t rows, std::int64_t cols, std::int64_t nnz)
      : kind_(kind), rows_(rows), cols_(cols), nnz_(nnz) {}

  Kind kind_;
  std::int64_t rows_;
  std::int64_t cols_;
  std::int64_t nnz_;
  std::shared_ptr<const DenseMatrix> dense_;
  std::shared_ptr<const SparseMatrix> sparse_;
};

}  // namespace fuseme

#endif  // FUSEME_MATRIX_BLOCK_H_
