#include "probes.h"

#include <unistd.h>

#include <chrono>
#include <thread>
#include <vector>

#include "matrix/block.h"
#include "matrix/block_ops.h"
#include "matrix/generators.h"
#include "matrix/sparse_kernels.h"
#include "stats.h"

namespace perfbench {

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median seconds per call of `fn` over `reps` calls, after one warm-up.
template <typename Fn>
double MedianSeconds(int reps, Fn&& fn) {
  fn();
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const double t0 = Now();
    fn();
    times.push_back(Now() - t0);
  }
  return Median(times);
}

}  // namespace

double PeakGflops() {
  // 32 independent chains: enough to cover the multiply-add latency and
  // to vectorize, small enough to stay in registers.
  constexpr int kChains = 32;
  constexpr std::int64_t kIters = 4'000'000;
  volatile double seed = 1.0;
  double acc[kChains];
  for (int j = 0; j < kChains; ++j) acc[j] = seed + j * 1e-3;
  const double a = 0.999999, b = 1e-7;
  double sink = 0;
  const double secs = MedianSeconds(5, [&] {
    for (std::int64_t i = 0; i < kIters; ++i) {
      for (int j = 0; j < kChains; ++j) acc[j] = acc[j] * a + b;
    }
    for (int j = 0; j < kChains; ++j) sink += acc[j];
  });
  seed = sink;  // keep the chains observable
  return 2.0 * kChains * static_cast<double>(kIters) / secs / 1e9;
}

StreamResult StreamTriad(int threads) {
  StreamResult out;
  out.llc_bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (out.llc_bytes <= 0) out.llc_bytes = 32LL << 20;  // host does not say
  const std::int64_t n = 4 * out.llc_bytes / 3 / 8;
  out.array_bytes = 3 * n * 8;
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  const double s = 3.0;
  auto triad = [&] {
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        const std::int64_t lo = n * t / threads, hi = n * (t + 1) / threads;
        for (std::int64_t i = lo; i < hi; ++i) a[i] = b[i] + s * c[i];
      });
    }
    for (std::thread& th : pool) th.join();
  };
  const double secs = MedianSeconds(5, triad);
  out.gbps = 24.0 * static_cast<double>(n) / secs / 1e9;
  return out;
}

KernelRates ProbeKernels(std::int64_t bs, std::int64_t k, double density,
                         std::uint64_t seed) {
  using fuseme::Block;
  KernelRates out;
  constexpr int kReps = 7;
  const Block a = Block::FromDense(fuseme::RandomDense(bs, bs, seed, -1, 1));
  const Block b =
      Block::FromDense(fuseme::RandomDense(bs, bs, seed + 1, -1, 1));
  fuseme::DenseMatrix acc(bs, bs);
  std::int64_t flops = 0;
  double secs = MedianSeconds(kReps, [&] {
    flops = 0;
    (void)fuseme::MatMulAcc(&acc, a, b, &flops);
  });
  out.gemm_gflops = static_cast<double>(flops) / secs / 1e9;

  const fuseme::SparseMatrix mask =
      fuseme::RandomSparse(bs, bs, density, seed + 2, 1.0, 2.0);
  const fuseme::DenseMatrix tall = fuseme::RandomDense(bs, k, seed + 3, 0, 1);
  const fuseme::DenseMatrix wide = fuseme::RandomDense(k, bs, seed + 4, 0, 1);
  fuseme::DenseMatrix spmm_acc(bs, k);
  secs = MedianSeconds(kReps, [&] {
    flops = 0;
    fuseme::SpmmAccSparseDense(&spmm_acc, mask, tall, &flops);
  });
  out.spmm_gflops = static_cast<double>(flops) / secs / 1e9;

  const Block tall_block = Block::FromDense(tall);
  const Block wide_block = Block::FromDense(wide);
  std::vector<double> dots(static_cast<std::size_t>(mask.nnz()), 0.0);
  secs = MedianSeconds(kReps, [&] {
    flops = 0;
    fuseme::SddmmAcc(mask, tall_block, wide_block, &dots, &flops);
  });
  out.sddmm_gflops = static_cast<double>(flops) / secs / 1e9;

  // X * log(D): two passes over bs×bs doubles, each reading its inputs
  // and writing one output.
  const Block positive =
      Block::FromDense(fuseme::RandomDense(bs, bs, seed + 5, 0.5, 1.5));
  secs = MedianSeconds(kReps, [&] {
    const fuseme::Result<Block> log =
        fuseme::Unary(fuseme::UnaryFn::kLog, positive);
    if (log.ok()) (void)fuseme::EwiseBinary(fuseme::BinaryFn::kMul, a, *log);
  });
  out.ewise_gbps = 5.0 * 8.0 * static_cast<double>(bs * bs) / secs / 1e9;
  return out;
}

}  // namespace perfbench
