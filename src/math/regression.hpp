// Trend lines over t = 0..n-1: the closed-form least-squares line and the
// robust Theil–Sen slope used by drift detectors.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace oda::math {

/// Simple regression y ~ a + b t over t = 0..n-1. Returns {intercept, slope}.
struct TrendLine {
  double intercept = 0.0;
  double slope = 0.0;
  double r_squared = 0.0;

  double at(double t) const { return intercept + slope * t; }
};
TrendLine fit_trend(std::span<const double> y);

/// Theil–Sen estimator: the median of pairwise slopes. Robust against up to
/// ~29% outliers; used for memory-leak and sensor-drift detection. For long
/// series a random subsample of pairs is used (deterministic).
TrendLine fit_theil_sen(std::span<const double> y, std::size_t max_pairs = 10000);
/// fit_theil_sen's slope alone, with the pairwise slopes kept in the
/// caller's `slopes` buffer (overwritten), so a caller that fits many short
/// windows reuses one allocation. 0 for fewer than two points.
double theil_sen_slope(std::span<const double> y, std::vector<double>& slopes,
                       std::size_t max_pairs = 10000);

}  // namespace oda::math
