// Dense GEMM micro-kernel instantiations (DESIGN.md section 9).
//
// Internal to the matrix layer: MatMulAcc calls the dispatched kernel, and
// the tests reach the per-ISA instantiations through this header so every
// one the host supports is checked, not only the one dispatch picks.  Not
// part of fuseme.h.
//
// Every instantiation computes acc[i_begin:i_end) += a[i_begin:i_end) · b
// with each output element accumulating its k terms in ascending order,
// one multiply and one separate add per term, zero terms included.  The
// result is therefore bitwise equal to the naive i/k/j triple loop on every
// instantiation.

#ifndef FUSEME_MATRIX_GEMM_KERNEL_H_
#define FUSEME_MATRIX_GEMM_KERNEL_H_

#include <cstdint>
#include <span>

#include "matrix/dense_matrix.h"

namespace fuseme {

using GemmRowRangeFn = void (*)(DenseMatrix* acc, const DenseMatrix& a,
                                const DenseMatrix& b, std::int64_t i_begin,
                                std::int64_t i_end);

struct GemmKernel {
  const char* name;  // ISA the instantiation targets: avx512f, avx2, sse2
  GemmRowRangeFn fn;
  bool supported;  // the host CPU can run it
};

/// Every instantiation, widest vector first.
std::span<const GemmKernel> GemmKernels();

/// The widest supported instantiation, chosen once per process.
const GemmKernel& DispatchedGemmKernel();

}  // namespace fuseme

#endif  // FUSEME_MATRIX_GEMM_KERNEL_H_
