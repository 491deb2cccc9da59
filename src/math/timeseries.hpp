// Time-series transforms shared by the forecasters and detectors:
// differencing, detrending, normalization, smoothing, autocorrelation, and
// seasonality detection/decomposition.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace oda::math {

/// First difference: out[i] = x[i+1] - x[i] (size n-1).
// ODA-LINT-ALLOW(production-caller): only tests call it (ROADMAP item 12)
std::vector<double> difference(std::span<const double> xs);

/// Seasonal difference at the given lag (size n-lag).
// ODA-LINT-ALLOW(production-caller): only tests call it (ROADMAP item 12)
std::vector<double> seasonal_difference(std::span<const double> xs, std::size_t lag);

/// Removes the least-squares linear trend.
std::vector<double> detrend(std::span<const double> xs);

/// (x - mean)/std; returns zeros when the series is constant.
// ODA-LINT-ALLOW(production-caller): only tests call it (ROADMAP item 12)
std::vector<double> z_normalize(std::span<const double> xs);

/// Centered moving average with the given (odd preferred) window.
std::vector<double> moving_average(std::span<const double> xs, std::size_t window);

/// Trailing moving average (causal; first window-1 values average the prefix).
// ODA-LINT-ALLOW(production-caller): only tests call it (ROADMAP item 12)
std::vector<double> trailing_average(std::span<const double> xs, std::size_t window);

/// Sample autocorrelation for lags 0..max_lag.
std::vector<double> acf(std::span<const double> xs, std::size_t max_lag);

/// Detects the dominant seasonal period by the first pronounced ACF peak.
/// Returns 0 when no significant seasonality is found.
// ODA-LINT-ALLOW(production-caller): only tests call it (ROADMAP item 12)
std::size_t detect_period(std::span<const double> xs, std::size_t max_period,
                          double min_correlation = 0.3);

/// Classical additive decomposition: x = trend + seasonal + residual.
struct Decomposition {
  std::vector<double> trend;
  std::vector<double> seasonal;  // repeating pattern, length n
  std::vector<double> residual;
};
// ODA-LINT-ALLOW(production-caller): only tests call it (ROADMAP item 12)
Decomposition decompose_additive(std::span<const double> xs, std::size_t period);

/// Piecewise-aggregate approximation: mean over segments (dimensionality
/// reduction for fingerprinting).
// ODA-LINT-ALLOW(production-caller): only tests call it (ROADMAP item 12)
std::vector<double> paa(std::span<const double> xs, std::size_t segments);

/// Largest run of consecutive values above the threshold.
// ODA-LINT-ALLOW(production-caller): only tests call it (ROADMAP item 12)
std::size_t longest_run_above(std::span<const double> xs, double threshold);

}  // namespace oda::math
