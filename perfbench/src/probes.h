// Machine and kernel probes: rates measured outside the engine, against
// which the engine's own numbers are judged.
#ifndef FUSEME_PERFBENCH_PROBES_H_
#define FUSEME_PERFBENCH_PROBES_H_

#include <cstdint>

namespace perfbench {

/// Peak double-precision rate of one thread on independent multiply-add
/// chains, in GFLOP/s, as this build's code generation reaches it.
double PeakGflops();

struct StreamResult {
  double gbps = 0;             // a[i] = b[i] + s * c[i], 24 bytes per i
  std::int64_t llc_bytes = 0;  // last-level cache the host reports
  std::int64_t array_bytes = 0;  // total of the three arrays
};
/// STREAM triad with `threads` threads over three arrays whose total is
/// at least four times the last-level cache (so none of it is cached).
StreamResult StreamTriad(int threads);

/// Single-thread kernel rates on one block shape (side `bs`).
struct KernelRates {
  double gemm_gflops = 0;   // MatMulAcc, dense bs×bs×bs
  double spmm_gflops = 0;   // SpmmAccSparseDense, sparse bs×bs × dense bs×k
  double sddmm_gflops = 0;  // SddmmAcc, mask bs×bs, dense bs×k and k×bs
  double ewise_gbps = 0;    // EwiseBinary(*) + Unary(log), dense bs×bs
};
KernelRates ProbeKernels(std::int64_t bs, std::int64_t k, double density,
                         std::uint64_t seed);

}  // namespace perfbench

#endif  // FUSEME_PERFBENCH_PROBES_H_
