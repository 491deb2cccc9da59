// Workload forecasting (Fan & Lan [23]-style predictive input for
// schedulers): hourly arrival counts modelled by an hour-of-day profile plus
// Holt–Winters on the residual, with queue-pressure projection.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace oda::analytics {

class WorkloadForecaster {
 public:
  /// bucket: aggregation width for arrival counts (default one hour).
  explicit WorkloadForecaster(Duration bucket = kHour);

  /// Feeds a submitted job's submit time.
  void observe_arrival(TimePoint submit);

  /// Arrival counts per bucket so far (dense from the first arrival).
  std::vector<double> arrival_series() const;

  /// Forecast arrivals for the next `horizon` buckets (>= 0 each).
  std::vector<double> forecast(std::size_t horizon) const;

  /// Mean profile by bucket-of-day (24 entries for hourly buckets).
  std::vector<double> daily_profile() const;

  Duration bucket() const { return bucket_; }
  std::size_t arrivals_observed() const { return total_; }

 private:
  Duration bucket_;
  std::vector<double> counts_;  // per bucket since t=0
  TimePoint first_ = -1;
  std::size_t total_ = 0;
};

}  // namespace oda::analytics
