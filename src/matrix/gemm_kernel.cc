#include "matrix/gemm_kernel.h"

#include <algorithm>
#include <array>

namespace fuseme {

namespace {

// Cache blocking: 64-row blocks of A/C against 256-deep k panels, so the
// active A panel (64×256 doubles, 128 KB) stays L2-resident while the
// micro-kernel sweeps it once per B micro-panel.  Each B micro-panel
// (256 × 2W doubles, at most 32 KB) is first packed contiguously into a
// stack buffer, so it stays L1-resident across that sweep and its loads
// stream instead of striding by n (at n = 2048 every k step would touch a
// new page).  bench_microkernels, 1 thread, AVX-512 host: packing took
// 256³ from 27 to 32 GFLOP/s, 1024³ from 21 to 24, 2048³ from 12 to 29.
constexpr std::int64_t kRowBlock = 64;
constexpr std::int64_t kKPanel = 256;
// Micro-tile: kTileRows rows × 2 vectors of C held in registers across a
// k panel.
constexpr int kTileRows = 4;

template <int W>
struct VecOf {
  typedef double type __attribute__((vector_size(W * sizeof(double))));
};

/// c[0:R)[0:V·W) += a[0:R)[0:kc) · b[0:kc)[0:V·W), the C tile held in
/// registers.  Per element: one multiply and one separate add per k, in
/// ascending k, zero terms included.  Vector values never cross a call
/// boundary (everything here is inlined into the ISA-targeted entry
/// points), so no vector ABI depends on the baseline ISA.
template <int W, int R, int V>
[[gnu::always_inline]] inline void MicroTile(double* c, std::int64_t ldc,
                                             const double* a,
                                             std::int64_t lda,
                                             const double* b,
                                             std::int64_t ldb,
                                             std::int64_t kc) {
  using Vec = typename VecOf<W>::type;
  Vec t[R][V];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      __builtin_memcpy(&t[r][v], c + r * ldc + v * W, sizeof(Vec));
    }
  }
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    Vec bv[V];
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      __builtin_memcpy(&bv[v], b + kk * ldb + v * W, sizeof(Vec));
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const double ar = a[r * lda + kk];
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v) {
        const Vec product = ar * bv[v];
        t[r][v] += product;
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      __builtin_memcpy(c + r * ldc + v * W, &t[r][v], sizeof(Vec));
    }
  }
}

/// Runs one V-vector-wide column strip of C down `rows` rows, a micro-tile
/// at a time.
template <int W, int V>
[[gnu::always_inline]] inline void ColumnStrip(double* c, std::int64_t ldc,
                                               const double* a,
                                               std::int64_t lda,
                                               const double* b,
                                               std::int64_t ldb,
                                               std::int64_t kc,
                                               std::int64_t rows) {
  std::int64_t r = 0;
  for (; r + kTileRows <= rows; r += kTileRows) {
    MicroTile<W, kTileRows, V>(c + r * ldc, ldc, a + r * lda, lda, b, ldb,
                               kc);
  }
  switch (rows - r) {
    case 3:
      MicroTile<W, 3, V>(c + r * ldc, ldc, a + r * lda, lda, b, ldb, kc);
      break;
    case 2:
      MicroTile<W, 2, V>(c + r * ldc, ldc, a + r * lda, lda, b, ldb, kc);
      break;
    case 1:
      MicroTile<W, 1, V>(c + r * ldc, ldc, a + r * lda, lda, b, ldb, kc);
      break;
    default:
      break;
  }
}

/// acc[i_begin:i_end) += a[i_begin:i_end) · b at vector width W.  The loop
/// nest reorders work across elements only; each element still sees its k
/// terms in ascending order (k panels run in order, and a panel's terms
/// run in order inside the tile), so any W, tile or row split gives the
/// naive triple loop's bits.
template <int W>
[[gnu::always_inline]] inline void RowRangeBody(DenseMatrix* acc,
                                                const DenseMatrix& da,
                                                const DenseMatrix& db,
                                                std::int64_t i_begin,
                                                std::int64_t i_end) {
  const std::int64_t k = da.cols(), n = db.cols();
  const std::int64_t ldc = n, lda = k, ldb = n;
  for (std::int64_t i0 = i_begin; i0 < i_end; i0 += kRowBlock) {
    const std::int64_t rows = std::min(i_end, i0 + kRowBlock) - i0;
    double* c_block = acc->row(i0);
    for (std::int64_t k0 = 0; k0 < k; k0 += kKPanel) {
      const std::int64_t kc = std::min(k, k0 + kKPanel) - k0;
      const double* a_panel = da.row(i0) + k0;
      const double* b_panel = db.row(k0);
      std::int64_t j = 0;
      for (; j + 2 * W <= n; j += 2 * W) {
        alignas(64) double packed[kKPanel * 2 * W];
        for (std::int64_t kk = 0; kk < kc; ++kk) {
          __builtin_memcpy(packed + kk * 2 * W, b_panel + kk * ldb + j,
                           2 * W * sizeof(double));
        }
        ColumnStrip<W, 2>(c_block + j, ldc, a_panel, lda, packed, 2 * W, kc,
                          rows);
      }
      if (j + W <= n) {
        ColumnStrip<W, 1>(c_block + j, ldc, a_panel, lda, b_panel + j, ldb,
                          kc, rows);
        j += W;
      }
      if (j == n) continue;
      // Fewer than W columns left: scalar, same per-element order.
      for (std::int64_t r = 0; r < rows; ++r) {
        double* c_row = c_block + r * ldc;
        const double* a_row = a_panel + r * lda;
        for (std::int64_t kk = 0; kk < kc; ++kk) {
          const double va = a_row[kk];
          const double* b_row = b_panel + kk * ldb;
          for (std::int64_t jj = j; jj < n; ++jj) {
            const double product = va * b_row[jj];
            c_row[jj] += product;
          }
        }
      }
    }
  }
}

__attribute__((target("avx512f"))) void GemmRowRangeAvx512(
    DenseMatrix* acc, const DenseMatrix& a, const DenseMatrix& b,
    std::int64_t i_begin, std::int64_t i_end) {
  RowRangeBody<8>(acc, a, b, i_begin, i_end);
}

__attribute__((target("avx2"))) void GemmRowRangeAvx2(
    DenseMatrix* acc, const DenseMatrix& a, const DenseMatrix& b,
    std::int64_t i_begin, std::int64_t i_end) {
  RowRangeBody<4>(acc, a, b, i_begin, i_end);
}

// Baseline ISA (SSE2 on x86-64): two doubles per vector.
void GemmRowRangeSse2(DenseMatrix* acc, const DenseMatrix& a,
                          const DenseMatrix& b, std::int64_t i_begin,
                          std::int64_t i_end) {
  RowRangeBody<2>(acc, a, b, i_begin, i_end);
}

}  // namespace

std::span<const GemmKernel> GemmKernels() {
  static const std::array<GemmKernel, 3> kernels = [] {
    __builtin_cpu_init();
    return std::array<GemmKernel, 3>{{
        {"avx512f", &GemmRowRangeAvx512,
         __builtin_cpu_supports("avx512f") != 0},
        {"avx2", &GemmRowRangeAvx2, __builtin_cpu_supports("avx2") != 0},
        {"sse2", &GemmRowRangeSse2, true},
    }};
  }();
  return kernels;
}

const GemmKernel& DispatchedGemmKernel() {
  // A magic static: MatMulAcc runs on pool threads, and the first callers
  // may race to initialize it.
  static const GemmKernel& chosen = *std::find_if(
      GemmKernels().begin(), GemmKernels().end(),
      [](const GemmKernel& kernel) { return kernel.supported; });
  return chosen;
}

}  // namespace fuseme
