// google-benchmark microbenchmarks for the local kernels that all the
// distributed operators bottom out in: block element-wise ops, matrix
// multiplication across representations, and the fused-kernel evaluator's
// masked (sparsity-exploiting) path vs the dense path.
//
// Before the google-benchmark cases, main() runs a serial-vs-parallel GEMM
// suite (the dispatched dense micro-kernel at 1 thread vs the machine's
// parallelism), verifies the serial result bitwise against a naive triple
// loop and the parallel one against the serial, exits non-zero on any
// mismatch, and writes the measurements to BENCH_microkernels.json.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "matrix/block_ops.h"
#include "matrix/gemm_kernel.h"
#include "matrix/generators.h"
#include "ops/evaluator.h"
#include "telemetry/metric_names.h"
#include "telemetry/metrics.h"
#include "workloads/queries.h"

namespace fuseme {
namespace {

void BM_EwiseMulDenseDense(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Block a = Block::FromDense(RandomDense(n, n, 1, 1.0, 2.0));
  Block b = Block::FromDense(RandomDense(n, n, 2, 1.0, 2.0));
  for (auto _ : state) {
    auto result = EwiseBinary(BinaryFn::kMul, a, b);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_EwiseMulDenseDense)->Arg(64)->Arg(256);

void BM_EwiseMulSparseDense(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Block a = Block::FromSparse(RandomSparse(n, n, 0.01, 1, 1.0, 2.0));
  Block b = Block::FromDense(RandomDense(n, n, 2, 1.0, 2.0));
  for (auto _ : state) {
    auto result = EwiseBinary(BinaryFn::kMul, a, b);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_EwiseMulSparseDense)->Arg(64)->Arg(256);

void BM_MatMulDense(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Block a = Block::FromDense(RandomDense(n, n, 1, 1.0, 2.0));
  Block b = Block::FromDense(RandomDense(n, n, 2, 1.0, 2.0));
  for (auto _ : state) {
    auto result = MatMul(a, b);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatMulDense)->Arg(32)->Arg(128);

void BM_MatMulSparseDense(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Block a = Block::FromSparse(RandomSparse(n, n, 0.02, 1, 1.0, 2.0));
  Block b = Block::FromDense(RandomDense(n, n, 2, 1.0, 2.0));
  for (auto _ : state) {
    auto result = MatMul(a, b);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * 2 * a.nnz() * n);
}
BENCHMARK(BM_MatMulSparseDense)->Arg(128)->Arg(256);

void BM_TransposeSparse(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Block a = Block::FromSparse(RandomSparse(n, n, 0.05, 1, 1.0, 2.0));
  for (auto _ : state) {
    auto result = Transpose(a);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_TransposeSparse)->Arg(256);

// The fused kernel of Fig. 8 — dense evaluation vs the sparsity-exploiting
// masked path on the same block.
struct EvalSetup {
  NmfPattern q;
  PartialPlan plan;
  std::map<NodeId, BlockedMatrix> data;

  explicit EvalSetup(std::int64_t n, double density)
      : q(BuildNmfPattern(n, n, 64,
                          static_cast<std::int64_t>(density * n * n))),
        plan(&q.dag, {q.vT, q.mm, q.add, q.log, q.mul}, q.mul) {
    data[q.X] = BlockedMatrix::FromSparse(
        RandomSparse(n, n, density, 1, 1.0, 2.0), n);
    data[q.U] = BlockedMatrix::FromDense(RandomDense(n, 64, 2), n);
    data[q.V] = BlockedMatrix::FromDense(RandomDense(n, 64, 3), n);
  }

  BlockFetcher Fetcher() {
    return [this](NodeId id, std::int64_t bi,
                  std::int64_t bj) -> Result<Block> {
      return data.at(id).block(bi, bj);
    };
  }
};

void BM_FusedKernelDensePath(benchmark::State& state) {
  EvalSetup setup(256, 0.01);
  for (auto _ : state) {
    KernelEvaluator eval(&setup.plan, 256, setup.Fetcher());
    auto result = eval.Eval(setup.q.mul, 0, 0);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FusedKernelDensePath);

void BM_FusedKernelMaskedPath(benchmark::State& state) {
  EvalSetup setup(256, 0.01);
  SparseDriver driver = FindSparseDriver(setup.plan, setup.q.mm);
  for (auto _ : state) {
    KernelEvaluator eval(&setup.plan, 256, setup.Fetcher());
    eval.SetSparseDriver(driver);
    auto result = eval.Eval(setup.q.mul, 0, 0);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FusedKernelMaskedPath);

// --- Serial vs parallel tiled GEMM (the ISSUE acceptance measurement). ---

double TimeGemmSeconds(const Block& a, const Block& b, Block* out) {
  // Best of 3 runs, to shave scheduler noise.
  double best = 1e30;
  for (int run = 0; run < 3; ++run) {
    const auto t0 = std::chrono::steady_clock::now();
    auto result = MatMul(a, b);
    const auto t1 = std::chrono::steady_clock::now();
    if (!result.ok()) {
      std::fprintf(stderr, "GEMM failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    *out = std::move(*result);
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

// Checks c == a·b bitwise against the naive ascending-k triple loop, so a
// contraction or accumulation-order change fails on any host.  Rows 0, 7,
// 14, ... and the last row are checked in every column: 7 is coprime to the
// micro-kernel's 4-row tile, so each tile row position is covered at a
// seventh of the naive loop's cost.
bool MatchesNaiveBitwise(const DenseMatrix& a, const DenseMatrix& b,
                         const DenseMatrix& c) {
  const std::int64_t m = a.rows(), k = a.cols(), n = b.cols();
  std::vector<double> row(n);
  for (std::int64_t i = 0; i < m; ++i) {
    if (i % 7 != 0 && i != m - 1) continue;
    std::fill(row.begin(), row.end(), 0.0);
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const double va = a(i, kk);
      for (std::int64_t j = 0; j < n; ++j) row[j] += va * b(kk, j);
    }
    if (std::memcmp(row.data(), c.row(i), n * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

void RunGemmSpeedupSuite(std::vector<bench::BenchRecord>* records,
                         MetricsRegistry* metrics) {
  // FUSEME_BENCH_GEMM_N overrides the block size (quick local runs).
  std::int64_t n = 2048;
  if (const char* env = std::getenv("FUSEME_BENCH_GEMM_N")) {
    n = std::max<std::int64_t>(1, std::atoll(env));
  }
  const int machine = GlobalParallelism();
  const char* isa = DispatchedGemmKernel().name;
  std::printf(
      "--- dense %lldx%lld block GEMM (%s kernel), 1 thread vs %d ---\n",
      static_cast<long long>(n), static_cast<long long>(n), isa, machine);

  Block a = Block::FromDense(RandomDense(n, n, 1, -1.0, 1.0));
  Block b = Block::FromDense(RandomDense(n, n, 2, -1.0, 1.0));
  const std::int64_t flops = 2 * n * n * n;
  const std::int64_t bytes = 3 * n * n * 8;

  Block serial_out, parallel_out;
  SetGlobalThreadPoolThreads(1);
  const double serial = TimeGemmSeconds(a, b, &serial_out);
  SetGlobalThreadPoolThreads(machine);
  const double parallel = TimeGemmSeconds(a, b, &parallel_out);

  if (!MatchesNaiveBitwise(a.dense(), b.dense(), serial_out.ToDense())) {
    std::fprintf(stderr,
                 "FAIL: serial GEMM result differs from the naive loop\n");
    std::exit(1);
  }
  if (DenseMatrix::MaxAbsDiff(serial_out.ToDense(), parallel_out.ToDense()) !=
      0.0) {
    std::fprintf(stderr, "FAIL: parallel GEMM result differs from serial\n");
    std::exit(1);
  }

  std::printf(
      "serial  %.3fs (%.2f GFLOP/s)\nparallel %.3fs (%.2f GFLOP/s)\n"
      "speedup %.2fx at %d threads (results bitwise identical)\n\n",
      serial, static_cast<double>(flops) / serial / 1e9, parallel,
      static_cast<double>(flops) / parallel / 1e9, serial / parallel,
      machine);

  // Mirror the measurements into the registry so BENCH_microkernels.json
  // carries a metrics snapshot alongside the records.
  for (const auto& [threads, seconds] :
       {std::pair<int, double>{1, serial}, {machine, parallel}}) {
    const MetricLabels labels = {{"threads", std::to_string(threads)}};
    metrics->GetCounter(metric_names::kKernelGemmFlops, labels)->Add(flops);
    metrics->GetCounter(metric_names::kKernelFlops, labels)->Add(flops);
    metrics
        ->GetHistogram("fuseme_bench_gemm_seconds", DefaultTimeBoundaries(),
                       labels)
        ->Observe(seconds);
    metrics->GetGauge("fuseme_bench_gemm_gflops", labels)
        ->Set(static_cast<double>(flops) / seconds / 1e9);
  }

  const std::string size = std::to_string(n);
  records->push_back({"dense_gemm",
                      {{"n", size}, {"threads", "1"}, {"isa", isa}},
                      serial,
                      bytes,
                      flops});
  records->push_back({"dense_gemm",
                      {{"n", size},
                       {"threads", std::to_string(machine)},
                       {"isa", isa}},
                      parallel,
                      bytes,
                      flops});
  bench::BenchRecord speedup{"dense_gemm_speedup",
                             {{"n", size},
                              {"threads", std::to_string(machine)},
                              {"speedup", [&] {
                                 char buf[32];
                                 std::snprintf(buf, sizeof(buf), "%.3f",
                                               serial / parallel);
                                 return std::string(buf);
                               }()}},
                             parallel,
                             bytes,
                             flops};
  records->push_back(std::move(speedup));
}

}  // namespace
}  // namespace fuseme

int main(int argc, char** argv) {
  std::vector<fuseme::bench::BenchRecord> records;
  fuseme::MetricsRegistry metrics;
  fuseme::RunGemmSpeedupSuite(&records, &metrics);
  if (!fuseme::bench::WriteBenchJson("microkernels", records,
                                     metrics.Snapshot().ToJson())) {
    return 1;
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
