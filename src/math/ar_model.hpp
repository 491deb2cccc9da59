// Autoregressive AR(p) models fit by Yule–Walker (Levinson–Durbin recursion).
// The predictive pillar's sensor forecasters build on these.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace oda::math {

class ArModel {
 public:
  /// Yule–Walker fit via Levinson–Durbin. Stable by construction.
  static ArModel fit_yule_walker(std::span<const double> xs, std::size_t order);

  std::size_t order() const { return phi_.size(); }
  const std::vector<double>& coefficients() const { return phi_; }
  double mean() const { return mean_; }

  /// One-step-ahead prediction from the most recent `order()` observations
  /// (history.back() is the latest value).
  double predict_next(std::span<const double> history) const;

  /// Iterated h-step forecast from the given history.
  std::vector<double> forecast(std::span<const double> history,
                               std::size_t horizon) const;

  /// In-sample one-step residuals (useful for anomaly scoring).
  std::vector<double> residuals(std::span<const double> xs) const;

 private:
  std::vector<double> phi_;
  double mean_ = 0.0;
};

/// Orders 1..max_order scored by AIC on one-step residuals; returns the best.
std::size_t select_ar_order(std::span<const double> xs, std::size_t max_order);

}  // namespace oda::math
