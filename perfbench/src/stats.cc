#include "stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

std::optional<double> TailPercentile(const std::vector<double>& values,
                                     double q) {
  // Rounded before flooring so 100 * (1 - 0.9) counts as 10, not 9.999.
  const double beyond =
      std::floor(static_cast<double>(values.size()) * (1.0 - q) + 1e-9);
  if (values.empty() || beyond < 10.0) return std::nullopt;
  return Percentile(values, q);
}

std::vector<std::int64_t> AttributeSelfTime(
    const std::vector<LayerInterval>& intervals, std::int64_t begin,
    std::int64_t end, int num_layers) {
  std::vector<std::int64_t> share(static_cast<std::size_t>(num_layers) + 1, 0);
  // Sweep the clipped endpoints: +1 opens a layer, -1 closes it.
  std::vector<std::pair<std::int64_t, int>> events;  // (time, ±(layer+1))
  for (const LayerInterval& iv : intervals) {
    const std::int64_t b = std::max(iv.begin, begin);
    const std::int64_t e = std::min(iv.end, end);
    if (b >= e) continue;
    events.emplace_back(b, iv.layer + 1);
    events.emplace_back(e, -(iv.layer + 1));
  }
  std::sort(events.begin(), events.end());
  std::vector<int> open(static_cast<std::size_t>(num_layers), 0);
  auto owner = [&]() {
    for (int l = 0; l < num_layers; ++l) {
      if (open[static_cast<std::size_t>(l)] > 0) return l;
    }
    return num_layers;  // uncovered
  };
  std::int64_t t = begin;
  for (const auto& [at, delta] : events) {
    share[static_cast<std::size_t>(owner())] += at - t;
    t = at;
    open[static_cast<std::size_t>(std::abs(delta) - 1)] += delta > 0 ? 1 : -1;
  }
  share[static_cast<std::size_t>(owner())] += end - t;
  return share;
}

namespace {

std::string Expect(bool ok, const std::string& what) {
  return ok ? std::string() : "self-test failed: " + what;
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

}  // namespace

std::string SelfTest() {
  std::vector<std::string> failures = {
      Expect(Near(Median({3, 1, 2, 4}), 2.5), "median of {1,2,3,4} is 2.5"),
      Expect(Near(Median({5}), 5.0), "median of one sample"),
      Expect(Near(Percentile(OneTo(100), 0.9), 90.1), "p90 of 1..100 is 90.1"),
      Expect(!TailPercentile(OneTo(99), 0.9).has_value(),
             "p90 of 99 samples has only 9 beyond it"),
      Expect(TailPercentile(OneTo(100), 0.9).has_value() &&
                 Near(*TailPercentile(OneTo(100), 0.9), 90.1),
             "p90 of 100 samples has 10 beyond it"),
      Expect(TailPercentile(OneTo(20), 0.5).has_value(),
             "p50 of 20 samples has 10 beyond it"),
      Expect(!TailPercentile(OneTo(19), 0.5).has_value(),
             "p50 of 19 samples has 9 beyond it"),
      Expect(!TailPercentile({}, 0.5).has_value(), "no samples, no tail"),
  };
  // A stage [0,100) with two concurrent work items [10,60) and [40,90) on
  // different threads, a phase [20,30) inside the first, inside a query
  // window [-10,110): phase 10, work items 80 - 10 = 70, stage
  // 100 - 80 = 20, uncovered 20; the shares sum to the window.
  const std::vector<std::int64_t> share = AttributeSelfTime(
      {{0, 100, 2}, {10, 60, 1}, {40, 90, 1}, {20, 30, 0}}, -10, 110, 3);
  failures.push_back(Expect(share == std::vector<std::int64_t>{10, 70, 20, 20},
                            "child-span subtraction for self time"));
  // Intervals outside the window are clipped away.
  failures.push_back(Expect(
      AttributeSelfTime({{-50, 5, 0}, {8, 200, 1}}, 0, 10, 2) ==
          std::vector<std::int64_t>{5, 2, 3},
      "clipping to the window"));
  for (const std::string& f : failures) {
    if (!f.empty()) return f;
  }
  return "";
}

}  // namespace perfbench
