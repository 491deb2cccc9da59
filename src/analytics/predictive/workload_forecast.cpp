#include "analytics/predictive/workload_forecast.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "math/smoothing.hpp"

#include "obs/cell.hpp"

namespace oda::analytics {

WorkloadForecaster::WorkloadForecaster(Duration bucket) : bucket_(bucket) {
  ODA_REQUIRE(bucket > 0, "bucket must be positive");
}

void WorkloadForecaster::observe_arrival(TimePoint submit) {
  ODA_REQUIRE(submit >= 0, "negative submit time");
  const auto idx = static_cast<std::size_t>(submit / bucket_);
  if (counts_.size() <= idx) counts_.resize(idx + 1, 0.0);
  counts_[idx] += 1.0;
  ++total_;
}

std::vector<double> WorkloadForecaster::arrival_series() const {
  return counts_;
}

std::vector<double> WorkloadForecaster::daily_profile() const {
  const auto per_day = static_cast<std::size_t>(kDay / bucket_);
  std::vector<double> sum(per_day, 0.0);
  std::vector<std::size_t> n(per_day, 0);
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    sum[i % per_day] += counts_[i];
    ++n[i % per_day];
  }
  for (std::size_t i = 0; i < per_day; ++i) {
    if (n[i]) sum[i] /= static_cast<double>(n[i]);
  }
  return sum;
}

std::vector<double> WorkloadForecaster::forecast(std::size_t horizon) const {
  ODA_CELL_SCOPE("pred.workload");
  const auto per_day = static_cast<std::size_t>(kDay / bucket_);
  std::vector<double> out(horizon, 0.0);
  if (counts_.empty()) return out;

  if (counts_.size() >= 2 * per_day && per_day >= 2) {
    // Holt-Winters with the daily season.
    math::HoltWinters hw(0.2, 0.01, 0.1, per_day);
    hw.fit(counts_);
    auto path = hw.forecast_path(horizon);
    for (std::size_t i = 0; i < horizon; ++i) out[i] = std::max(0.0, path[i]);
    return out;
  }
  // Fallback: daily profile (or overall mean when < 1 day of data).
  const auto profile = daily_profile();
  double overall = 0.0;
  for (double c : counts_) overall += c;
  overall /= static_cast<double>(counts_.size());
  for (std::size_t i = 0; i < horizon; ++i) {
    const std::size_t phase = (counts_.size() + i) % per_day;
    out[i] = counts_.size() >= per_day ? std::max(0.0, profile[phase])
                                       : overall;
  }
  return out;
}

}  // namespace oda::analytics
