// Component failure prediction (Sîrbu & Babaoglu [48]): two complementary
// estimators —
//  * degradation extrapolation: robust-fit the trend of a health signal and
//    project when it crosses its failure threshold;
//  * Weibull hazard: fit shape/scale to historical times-to-failure and
//    expose hazard/survival curves for fleet-level planning.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace oda::analytics {

struct FailureProjection {
  bool degrading = false;
  double slope_per_hour = 0.0;
  /// Hours until the signal crosses the threshold at the current trend;
  /// absent when not degrading toward it.
  std::optional<double> hours_to_threshold;
};

/// Projects threshold crossing of a degradation signal. `increasing_is_bad`
/// selects the direction of failure.
FailureProjection project_failure(std::span<const double> signal,
                                  double sample_period_s, double threshold,
                                  bool increasing_is_bad);

/// Weibull lifetime model fit from observed failure times (hours).
class WeibullLifetime {
 public:
  /// Method-of-moments-flavoured fit via median-rank regression.
  static WeibullLifetime fit(std::span<const double> failure_times_h);

  double shape() const { return shape_; }
  double scale() const { return scale_; }
  /// P(failure before t).
  double cdf(double t_hours) const;
  /// Survival S(t) = 1 - F(t).
  double survival(double t_hours) const;
  /// Hazard rate h(t).
  double hazard(double t_hours) const;
  /// P(fail within the next dt | survived to t).
  double conditional_failure(double t_hours, double dt_hours) const;

 private:
  double shape_ = 1.0;
  double scale_ = 1.0;
};

}  // namespace oda::analytics
