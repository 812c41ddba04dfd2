// Statistics the benchmark reports: percentiles under the ten-beyond rule
// and wall-clock self time of nested, possibly concurrent spans.
#ifndef FUSEME_PERFBENCH_STATS_H_
#define FUSEME_PERFBENCH_STATS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// The q-quantile (q in [0, 1]) of `values` by linear interpolation
/// between order statistics (numpy's default).  `values` must be
/// non-empty.
double Percentile(std::vector<double> values, double q);

/// Percentile(values, 0.5).
double Median(std::vector<double> values);

/// The q-quantile only when at least ten samples lie beyond it, i.e.
/// floor(n * (1 - q)) >= 10; a tail percentile with fewer samples beyond
/// it is one or two outliers, not a measurement.
std::optional<double> TailPercentile(const std::vector<double>& values,
                                     double q);

/// A span's interval on the shared clock, tagged with its layer.  Layer 0
/// is the deepest (e.g. a kernel phase), higher layers enclose lower ones
/// (work item, stage).
struct LayerInterval {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  int layer = 0;
};

/// Splits the window [begin, end) among `num_layers` layers: each instant
/// belongs to the deepest layer that has an interval open on any thread,
/// and instants no interval covers go to the extra last slot.  So a
/// layer's share is its spans' wall time minus the part its child layers'
/// spans cover — its self time — and the shares sum to end - begin
/// exactly.  Intervals are clipped to the window.
std::vector<std::int64_t> AttributeSelfTime(
    const std::vector<LayerInterval>& intervals, std::int64_t begin,
    std::int64_t end, int num_layers);

/// Checks Percentile/TailPercentile/AttributeSelfTime against hand-worked
/// cases.  Returns an empty string on success, else the first failure.
std::string SelfTest();

}  // namespace perfbench

#endif  // FUSEME_PERFBENCH_STATS_H_
