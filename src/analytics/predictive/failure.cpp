#include "analytics/predictive/failure.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "math/regression.hpp"

#include "obs/cell.hpp"

namespace oda::analytics {

FailureProjection project_failure(std::span<const double> signal,
                                  double sample_period_s, double threshold,
                                  bool increasing_is_bad) {
  ODA_CELL_SCOPE("pred.failure");
  ODA_REQUIRE(sample_period_s > 0.0, "sample period must be positive");
  FailureProjection p;
  if (signal.size() < 8) return p;

  const auto trend = math::fit_theil_sen(signal);
  p.slope_per_hour = trend.slope * 3600.0 / sample_period_s;
  const double current = signal.back();
  const bool toward_threshold =
      increasing_is_bad ? (p.slope_per_hour > 0.0 && current < threshold)
                        : (p.slope_per_hour < 0.0 && current > threshold);
  // Require a meaningful rate relative to the remaining headroom.
  if (toward_threshold) {
    const double headroom = std::abs(threshold - current);
    const double hours = headroom / std::abs(p.slope_per_hour);
    if (hours < 24.0 * 365.0) {  // anything beyond a year is noise
      p.degrading = true;
      p.hours_to_threshold = hours;
    }
  }
  // Already across the threshold: failed now.
  if ((increasing_is_bad && current >= threshold) ||
      (!increasing_is_bad && current <= threshold)) {
    p.degrading = true;
    p.hours_to_threshold = 0.0;
  }
  return p;
}

WeibullLifetime WeibullLifetime::fit(std::span<const double> failure_times_h) {
  ODA_REQUIRE(failure_times_h.size() >= 3, "need >= 3 failures to fit Weibull");
  // Median-rank regression: ln(-ln(1-F_i)) = k ln(t_i) - k ln(lambda).
  std::vector<double> times(failure_times_h.begin(), failure_times_h.end());
  std::sort(times.begin(), times.end());
  const std::size_t n = times.size();

  std::vector<double> x, y;
  x.reserve(n);
  y.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (times[i] <= 0.0) continue;
    const double f = (static_cast<double>(i) + 0.7) /
                     (static_cast<double>(n) + 0.4);  // Benard's approximation
    x.push_back(std::log(times[i]));
    y.push_back(std::log(-std::log(1.0 - f)));
  }
  ODA_REQUIRE(x.size() >= 3, "need >= 3 positive failure times");

  // Simple least squares y = a + b x.
  const double xm = [&] {
    double s = 0.0;
    for (double v : x) s += v;
    return s / static_cast<double>(x.size());
  }();
  const double ym = [&] {
    double s = 0.0;
    for (double v : y) s += v;
    return s / static_cast<double>(y.size());
  }();
  double sxx = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sxx += (x[i] - xm) * (x[i] - xm);
    sxy += (x[i] - xm) * (y[i] - ym);
  }
  ODA_REQUIRE(sxx > 0.0, "degenerate failure times");
  WeibullLifetime model;
  model.shape_ = std::max(0.05, sxy / sxx);
  model.scale_ = std::exp(xm - ym / model.shape_);
  return model;
}

double WeibullLifetime::cdf(double t_hours) const {
  if (t_hours <= 0.0) return 0.0;
  return 1.0 - std::exp(-std::pow(t_hours / scale_, shape_));
}

double WeibullLifetime::survival(double t_hours) const {
  return 1.0 - cdf(t_hours);
}

double WeibullLifetime::hazard(double t_hours) const {
  if (t_hours <= 0.0) return 0.0;
  return (shape_ / scale_) * std::pow(t_hours / scale_, shape_ - 1.0);
}

double WeibullLifetime::conditional_failure(double t_hours,
                                            double dt_hours) const {
  const double s_now = survival(t_hours);
  if (s_now <= 0.0) return 1.0;
  return 1.0 - survival(t_hours + dt_hours) / s_now;
}

}  // namespace oda::analytics
