// The benchmark's four workloads.  Each is a closed loop with one caller:
// a fixed number of queries from a seeded start, every query waiting for
// the engine before the next is issued.
#ifndef FUSEME_PERFBENCH_WORKLOADS_H_
#define FUSEME_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace fuseme {
class MetricsRegistry;
class Tracer;
}  // namespace fuseme

namespace perfbench {

/// Telemetry sinks handed to the engine through EngineOptions (null = off).
struct Sinks {
  fuseme::Tracer* tracer = nullptr;
  fuseme::MetricsRegistry* metrics = nullptr;
};

/// What one query did.
struct QueryRecord {
  double query_s = 0;  // the query's wall time (see Workload::Query)
  double gen_s = 0;    // seeded raw-data generation inside the query
  std::int64_t shuffle_bytes = 0;
  std::int64_t task_memory_peak_bytes = 0;
  double modeled_s = 0;  // simulator cluster-seconds
  std::int64_t flops = 0;
  std::int64_t stages = 0;
  double memest_ratio = 0;  // max over stages of actual ÷ MemEst memory
  /// Every Execute returned OK and, with a metrics sink attached, left the
  /// solver-resolution and planner-plan counters where they were.
  bool ok = true;
  std::string error;
  /// Tracer-clock windows [begin, end) of the query's Executes, in µs.
  std::vector<std::pair<std::int64_t, std::int64_t>> execute_windows;
};

/// Wall time of each planning layer over the workload's DAG set, timed by
/// calling the layers' public entry points from outside the engine.
struct LayerTimes {
  double parse_s = 0;     // ParseQuery (+ merging multi-output queries)
  double plan_s = 0;      // CfgPlanner::Plan
  double verify_s = 0;    // PlanVerifier::VerifyDag + VerifyPlanSet
  double compile_s = 0;   // Engine::Compile
  double simulate_s = 0;  // analytic Engine::Execute
  std::int64_t split_attempts = 0;   // during Compile
  std::int64_t pqr_evaluations = 0;  // during Compile
  std::int64_t pqr_pruned = 0;       // during Compile
};

/// Floating-point state the schedule carries from query to query.
struct StateProbe {
  double subnormal_frac = 0;  // share of subnormal entries
  double min_abs_log10 = 0;   // log10 of the smallest non-zero magnitude
};

/// Block shape the kernel probes use for this workload.
struct ProbeShape {
  std::int64_t block = 256;
  std::int64_t k = 32;
  double density = 0.02;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string Describe() const = 0;
  /// Timed queries per run, and timed set-ups per run.
  virtual int queries() const = 0;
  virtual int setups() const = 0;
  /// Length of the traced run's schedule: the timed schedule, continued
  /// where the carried state keeps changing as it runs (the subnormal
  /// probe's "long schedule").
  virtual int long_queries() const { return queries(); }
  virtual ProbeShape probe_shape() const = 0;

  /// Seeded raw-data generation; not timed.
  virtual void Generate(std::uint64_t seed) = 0;
  /// Input blocking, Engine::Create, Compile and one warm-up query, with
  /// the engine running on `threads` threads.  Rewinds the schedule to its
  /// seeded start.
  virtual fuseme::Status SetUp(const Sinks& sinks, int threads) = 0;
  /// Runs query `i` of the schedule (0-based, after the warm-up).
  virtual QueryRecord Query(int i) = 0;
  /// The warm-up query of the last SetUp.  Its shuffle bytes, modeled
  /// seconds and task memory are the same in every run.
  virtual const QueryRecord& warmup() const = 0;
  /// Seconds the last SetUp spent blocking inputs.
  virtual double convert_s() const = 0;

  /// Checks the warm-up query's outputs; an error names the mismatch.
  virtual fuseme::Status CheckOutputs() = 0;
  /// Wall seconds of one replay of the warm-up query on `threads` threads.
  virtual double ReplayWarmup(int threads) = 0;
  virtual LayerTimes MeasureLayers() = 0;
  virtual StateProbe ProbeState() const = 0;
};

/// The workload named `name`, or null when there is none.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);
/// Names MakeWorkload accepts.
std::vector<std::string> WorkloadNames();

}  // namespace perfbench

#endif  // FUSEME_PERFBENCH_WORKLOADS_H_
