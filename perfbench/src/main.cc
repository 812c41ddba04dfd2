// FuseME benchmark: runs one workload and prints its metrics.
//
//   fuseme_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   fuseme_perfbench --self-test
//
// Every run does the same fixed work — a workload's query count does not
// depend on --seconds, which is recorded only.  With --trace 0 the engine
// runs with no sinks and the run reports the end-to-end metrics; with
// --trace 1 it attaches a Tracer and a MetricsRegistry and reports the
// per-layer metrics.  The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Lines before it, each starting with '#', record the context.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "probes.h"
#include "stats.h"
#include "telemetry/metric_names.h"
#include "telemetry/metrics.h"
#include "telemetry/tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Engine threads (calling thread included), the same for every workload;
/// capped at the host's processor count.
constexpr int kLocalThreads = 2;
/// Queries replayed on a metrics-attached engine after the timed loop to
/// check that Execute never re-plans (the compile-once guard), at most a
/// tenth of the schedule; the guard's set-up checks its warm-up query too.
constexpr int kGuardQueries = 2;

#ifndef FUSEME_PERFBENCH_BUILD_TYPE
#define FUSEME_PERFBENCH_BUILD_TYPE "unknown"
#endif

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  bool self_test = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return args->self_test || (!args->workload.empty() &&
                             (args->trace == 0 || args->trace == 1));
}

/// Metrics in output order: name → (value, unit).
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  std::string ToJson() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", entries_[i].name.c_str(),
                    entries_[i].value, entries_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }
  void PrintHuman() const {
    for (const Entry& e : entries_) {
      std::printf("# %-30s %.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Attempted/failed query accounting behind `correct` and success_rate.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool checks_ok = true;

  void Count(const QueryRecord& rec) {
    ++attempted;
    if (!rec.ok) {
      ++failed;
      std::printf("# query failed: %s\n", rec.error.c_str());
    }
  }
  void Check(const fuseme::Status& status, const char* what) {
    if (status.ok()) {
      std::printf("# %s: ok\n", what);
      return;
    }
    ++failed;
    checks_ok = false;
    std::printf("# %s FAILED: %s\n", what, status.ToString().c_str());
  }
  double success_rate() const {
    return attempted == 0 ? 0.0
                          : 1.0 - static_cast<double>(failed) /
                                      static_cast<double>(attempted);
  }
};

std::int64_t PeakRssBytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::int64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
}

/// Sum over every label set of `name`: counter values, gauge values and
/// histogram sums (each family is one kind).
double Total(const fuseme::MetricsSnapshot& snap, const char* name) {
  double total = 0;
  for (const fuseme::MetricSample& s : snap.samples) {
    if (s.name != name) continue;
    total += static_cast<double>(s.counter_value) + s.gauge_value +
             s.histogram_sum;
  }
  return total;
}

struct LoopResult {
  std::vector<double> query_s;
  double wall_s = 0;  // loop wall minus seeded data generation
  double execute_s = 0;
  std::int64_t flops = 0;
};

/// Runs the first `count` queries of the workload's schedule; `on_query`
/// sees each record.
template <typename OnQuery>
LoopResult RunLoop(Workload* w, int count, Tally* tally, OnQuery&& on_query) {
  LoopResult out;
  const double t0 = Now();
  double gen_s = 0;
  for (int i = 0; i < count; ++i) {
    QueryRecord rec = w->Query(i);
    tally->Count(rec);
    gen_s += rec.gen_s;
    out.query_s.push_back(rec.query_s);
    out.execute_s += rec.query_s;
    out.flops += rec.flops;
    on_query(i, rec);
  }
  out.wall_s = Now() - t0 - gen_s;
  return out;
}

void ReportTail(const char* label, const std::vector<double>& q) {
  const std::optional<double> p90 = TailPercentile(q, 0.9);
  if (p90.has_value()) {
    std::printf("# %s p50=%.6g s p90=%.6g s over %zu queries\n", label,
                Median(q), *p90, q.size());
  } else {
    std::printf("# %s p50=%.6g s over %zu queries (p90 needs >= 100)\n",
                label, Median(q), q.size());
  }
}

/// --trace 0: set-up several times, the timed loop, output checks, then the
/// compile-once guard on a metrics-attached engine.
MetricSet EndToEnd(Workload* w, int threads, Tally* tally) {
  std::vector<double> setup_s;
  for (int r = 0; r < w->setups(); ++r) {
    const double t0 = Now();
    const fuseme::Status status = w->SetUp({}, threads);
    setup_s.push_back(Now() - t0);
    tally->Check(status, "set-up");
    if (!status.ok()) return {};
  }
  ++tally->attempted;  // the warm-up query, checked below
  const LoopResult loop =
      RunLoop(w, w->queries(), tally, [](int, const QueryRecord&) {});
  const std::int64_t rss = PeakRssBytes();
  tally->Check(w->CheckOutputs(), "output check");

  fuseme::MetricsRegistry registry;
  fuseme::Status guard = w->SetUp({nullptr, &registry}, threads);
  const int guard_queries = std::min(kGuardQueries, w->queries() / 10);
  for (int i = 0; guard.ok() && i < guard_queries; ++i) {
    const QueryRecord rec = w->Query(i);
    tally->Count(rec);
  }
  tally->Check(guard, "compile-once guard set-up");

  ReportTail("query_s", loop.query_s);
  std::printf("# setup_s median of %zu set-ups\n", setup_s.size());
  const QueryRecord& warm = w->warmup();
  MetricSet m;
  m.Add("setup_s", Median(setup_s), "s");
  m.Add("query_s_p50", Median(loop.query_s), "s");
  m.Add("queries_per_s",
        static_cast<double>(loop.query_s.size()) / loop.wall_s, "1/s");
  m.Add("success_rate", tally->success_rate(), "fraction");
  m.Add("shuffle_bytes", static_cast<double>(warm.shuffle_bytes), "bytes");
  m.Add("modeled_s", warm.modeled_s, "cluster_s");
  m.Add("task_memory_peak_bytes",
        static_cast<double>(warm.task_memory_peak_bytes), "bytes");
  m.Add("peak_rss_bytes", static_cast<double>(rss), "bytes");
  return m;
}

/// Span layers, deepest first, for self-time attribution.
enum Layer { kPhase1, kPhase2, kPrefetch, kWorkItem, kStage, kNumLayers };

int LayerOf(const fuseme::TraceSpan& span) {
  if (span.category == "phase") {
    return span.name.rfind("phase1", 0) == 0 ? kPhase1 : kPhase2;
  }
  if (span.category == "prefetch") return kPrefetch;
  if (span.category == "work-item") return kWorkItem;
  if (span.category == "stage") return kStage;
  return -1;
}

/// Per-query sums over the traced loop.
struct TraceTotals {
  std::int64_t queries = 0;
  double wall_s = 0;
  double self_s[kNumLayers + 1] = {};  // last slot: outside every span
  double prefetch_copy_s = 0;
  std::int64_t work_items = 0;
  std::vector<double> work_item_s;
  double imbalance_sum = 0;
  std::int64_t imbalance_stages = 0;

  void Add(const QueryRecord& rec,
           const std::vector<fuseme::TraceSpan>& spans) {
    ++queries;
    std::vector<LayerInterval> intervals;
    std::map<std::string, std::vector<double>> items_by_stage;
    for (const fuseme::TraceSpan& s : spans) {
      const int layer = LayerOf(s);
      if (layer < 0) continue;
      intervals.push_back({s.begin_us, s.end_us, layer});
      const double secs = static_cast<double>(s.duration_us()) * 1e-6;
      if (layer == kPrefetch) prefetch_copy_s += secs;
      if (layer == kWorkItem) {
        ++work_items;
        work_item_s.push_back(secs);
        std::string stage;
        for (const auto& [k, v] : s.args) {
          if (k == "stage") stage = v;
        }
        items_by_stage[stage].push_back(secs);
      }
    }
    for (const auto& [begin, end] : rec.execute_windows) {
      const std::vector<std::int64_t> share =
          AttributeSelfTime(intervals, begin, end, kNumLayers);
      for (int l = 0; l <= kNumLayers; ++l) {
        self_s[l] += static_cast<double>(share[static_cast<std::size_t>(l)]) *
                     1e-6;
      }
      wall_s += static_cast<double>(end - begin) * 1e-6;
    }
    for (const auto& [stage, secs] : items_by_stage) {
      if (secs.size() < 2) continue;
      double sum = 0, max = 0;
      for (double x : secs) {
        sum += x;
        max = std::max(max, x);
      }
      if (sum <= 0) continue;
      imbalance_sum += max / (sum / static_cast<double>(secs.size()));
      ++imbalance_stages;
    }
  }
  double PerQuery(double total) const {
    return queries == 0 ? 0.0 : total / static_cast<double>(queries);
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// --trace 1: machine and kernel probes, the schedule once without and once
/// with sinks, layer timings from outside the engine.
MetricSet PerLayer(Workload* w, int threads, Tally* tally) {
  MetricSet m;
  const double peak = PeakGflops();
  const StreamResult stream = StreamTriad(threads);
  std::printf("# stream triad: %lld bytes in three arrays, last-level cache "
              "%lld bytes\n",
              static_cast<long long>(stream.array_bytes),
              static_cast<long long>(stream.llc_bytes));
  fuseme::SetGlobalThreadPoolThreads(1);
  const ProbeShape shape = w->probe_shape();
  const KernelRates kernels =
      ProbeKernels(shape.block, shape.k, shape.density, /*seed=*/1);
  fuseme::SetGlobalThreadPoolThreads(threads);

  fuseme::Status status = w->SetUp({}, threads);
  tally->Check(status, "set-up");
  if (!status.ok()) return m;
  ++tally->attempted;  // the warm-up query, checked below
  const LoopResult plain =
      RunLoop(w, w->queries(), tally, [](int, const QueryRecord&) {});
  tally->Check(w->CheckOutputs(), "output check");
  const double convert_s = w->convert_s();
  const double serial_s = w->ReplayWarmup(1);
  const double parallel_s = w->ReplayWarmup(threads);
  ReportTail("untraced query_s", plain.query_s);

  fuseme::Tracer tracer;
  fuseme::MetricsRegistry registry;
  status = w->SetUp({&tracer, &registry}, threads);
  tally->Check(status, "traced set-up");
  if (!status.ok()) return m;
  tracer.Clear();
  const fuseme::MetricsSnapshot before = registry.Snapshot();
  TraceTotals totals;
  double memest_ratio = 0;
  // The layer breakdown covers the timed schedule; the long schedule's
  // tail only feeds the late-step and subnormal probes.
  fuseme::MetricsSnapshot after;
  const LoopResult traced = RunLoop(
      w, w->long_queries(), tally, [&](int i, const QueryRecord& rec) {
        if (i < w->queries()) {
          totals.Add(rec, tracer.spans());
          memest_ratio = std::max(memest_ratio, rec.memest_ratio);
        }
        if (i + 1 == w->queries()) after = registry.Snapshot();
        tracer.Clear();
      });
  auto delta = [&](const char* name) {
    return Total(after, name) - Total(before, name);
  };
  const StateProbe state = w->ProbeState();
  const LayerTimes layers = w->MeasureLayers();

  const std::size_t tenth =
      std::max<std::size_t>(1, traced.query_s.size() / 10);
  const std::vector<double> first(traced.query_s.begin(),
                                  traced.query_s.begin() + tenth);
  const std::vector<double> last(traced.query_s.end() - tenth,
                                 traced.query_s.end());
  const double fetch_wait = delta(fuseme::metric_names::kFetchWaitSeconds);
  const double compute_busy = delta(fuseme::metric_names::kComputeBusySeconds);

  m.Add("matrix.gemm_gflops", kernels.gemm_gflops, "GFLOP/s");
  m.Add("matrix.gemm_roofline_frac", kernels.gemm_gflops / peak, "fraction");
  m.Add("matrix.spmm_gflops", kernels.spmm_gflops, "GFLOP/s");
  m.Add("matrix.sddmm_gflops", kernels.sddmm_gflops, "GFLOP/s");
  m.Add("matrix.sddmm_dots",
        totals.PerQuery(delta(fuseme::metric_names::kKernelSddmmDots)),
        "count/query");
  m.Add("matrix.ewise_gbps", kernels.ewise_gbps, "GB/s");
  m.Add("matrix.convert_s", convert_s, "s");
  m.Add("matrix.subnormal_frac", state.subnormal_frac, "fraction");
  m.Add("matrix.min_abs_log10", state.min_abs_log10, "log10");
  m.Add("matrix.peak_gflops", peak, "GFLOP/s");
  m.Add("matrix.stream_gbps", stream.gbps, "GB/s");
  m.Add("ir.parse_s", layers.parse_s, "s");
  m.Add("fusion.plan_s", layers.plan_s, "s");
  m.Add("fusion.split_attempts", static_cast<double>(layers.split_attempts),
        "count");
  m.Add("cost.pqr_evaluations", static_cast<double>(layers.pqr_evaluations),
        "count");
  m.Add("cost.pqr_pruned_ratio",
        Ratio(static_cast<double>(layers.pqr_pruned),
              static_cast<double>(layers.pqr_pruned + layers.pqr_evaluations)),
        "fraction");
  m.Add("cost.memest_ratio", memest_ratio, "ratio");
  m.Add("verify.verify_s", layers.verify_s, "s");
  m.Add("engine.compile_s", layers.compile_s, "s");
  m.Add("engine.resolve_s",
        layers.compile_s - layers.plan_s - layers.verify_s, "s");
  m.Add("engine.traced_query_s", totals.PerQuery(totals.wall_s), "s/query");
  m.Add("engine.execute_overhead_s",
        totals.PerQuery(totals.self_s[kNumLayers]), "s/query");
  m.Add("engine.effective_gflops",
        Ratio(static_cast<double>(plain.flops), plain.execute_s) / 1e9,
        "GFLOP/s");
  m.Add("engine.late_step_slowdown", Ratio(Median(last), Median(first)),
        "ratio");
  m.Add("common.parallel_speedup", Ratio(serial_s, parallel_s), "ratio");
  m.Add("ops.work_items",
        totals.PerQuery(static_cast<double>(totals.work_items)), "count/query");
  m.Add("ops.work_item_s_p50",
        totals.work_item_s.empty() ? 0.0 : Median(totals.work_item_s), "s");
  m.Add("ops.imbalance",
        Ratio(totals.imbalance_sum,
              static_cast<double>(totals.imbalance_stages)),
        "ratio");
  m.Add("ops.phase1_s", totals.PerQuery(totals.self_s[kPhase1]), "s/query");
  m.Add("ops.phase2_s", totals.PerQuery(totals.self_s[kPhase2]), "s/query");
  m.Add("ops.work_item_self_s", totals.PerQuery(totals.self_s[kWorkItem]),
        "s/query");
  m.Add("ops.queue_wait_s",
        totals.PerQuery(delta(fuseme::metric_names::kWorkItemQueueWaitSeconds)),
        "s/query");
  m.Add("runtime.stage_self_s", totals.PerQuery(totals.self_s[kStage]),
        "s/query");
  m.Add("runtime.fetch_wait_s", totals.PerQuery(fetch_wait), "s/query");
  m.Add("runtime.compute_busy_s", totals.PerQuery(compute_busy), "s/query");
  m.Add("runtime.overlap_efficiency",
        Ratio(compute_busy, compute_busy + fetch_wait), "fraction");
  m.Add("runtime.prefetch_copy_s", totals.PerQuery(totals.prefetch_copy_s),
        "s/query");
  m.Add("runtime.prefetch_self_s", totals.PerQuery(totals.self_s[kPrefetch]),
        "s/query");
  m.Add("runtime.prefetch_useful_ratio",
        Ratio(delta(fuseme::metric_names::kPrefetchConsumed),
              delta(fuseme::metric_names::kPrefetchIssued)),
        "fraction");
  m.Add("runtime.simulate_s", layers.simulate_s, "s");
  m.Add("runtime.stages", static_cast<double>(w->warmup().stages), "count");
  const std::vector<double> traced_timed(
      traced.query_s.begin(), traced.query_s.begin() + w->queries());
  m.Add("telemetry.trace_overhead_frac",
        Median(traced_timed) / Median(plain.query_s) - 1.0, "fraction");
  return m;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>  |  --self-test\n",
                 argv[0]);
    return 2;
  }
  const std::string failure = SelfTest();
  if (!failure.empty()) {
    std::fprintf(stderr, "%s\n", failure.c_str());
    return 3;
  }
  if (args.self_test) {
    std::printf("statistics self-test: ok\n");
    return 0;
  }
  std::unique_ptr<Workload> w = MakeWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const int nproc =
      static_cast<int>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  const int threads = std::min(kLocalThreads, nproc);
  // Pin the process-wide pool too, so no kernel falls back to the
  // FUSEME_THREADS / hardware default.
  fuseme::SetGlobalThreadPoolThreads(threads);
  char host[256] = "unknown";
  gethostname(host, sizeof(host) - 1);
  std::printf("# workload=%s (%s)\n", args.workload.c_str(),
              w->Describe().c_str());
  std::printf("# host=%s nproc=%d local_threads=%d build=%s seed=%llu "
              "trace=%d\n",
              host, nproc, threads, FUSEME_PERFBENCH_BUILD_TYPE,
              static_cast<unsigned long long>(args.seed), args.trace);
  std::printf("# fixed work: %d timed queries, %d set-ups; --seconds %d does "
              "not change it\n",
              w->queries(), w->setups(), args.seconds);
  std::fflush(stdout);

  const double t0 = Now();
  w->Generate(args.seed);
  std::printf("# seeded generation %.3f s\n", Now() - t0);
  Tally tally;
  const MetricSet metrics = args.trace == 0
                                ? EndToEnd(w.get(), threads, &tally)
                                : PerLayer(w.get(), threads, &tally);
  metrics.PrintHuman();
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              tally.checks_ok && tally.failed == 0 ? "true" : "false",
              static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.failed), metrics.ToJson().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
