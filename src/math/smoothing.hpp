// Exponential smoothing family: simple (SES), Holt's linear trend, and
// Holt–Winters additive seasonal. These are the workhorse forecasters for
// diurnal facility signals (power, temperature, cooling demand).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace oda::math {

/// Simple exponential smoothing. Flat forecast at the last level.
class SimpleExpSmoother {
 public:
  explicit SimpleExpSmoother(double alpha);

  void add(double x);
  bool initialized() const { return initialized_; }
  double level() const { return level_; }
  double forecast() const { return level_; }
  void fit(std::span<const double> xs);

 private:
  double alpha_;
  double level_ = 0.0;
  bool initialized_ = false;
};

/// Holt's linear method (level + trend).
class HoltSmoother {
 public:
  HoltSmoother(double alpha, double beta);

  void add(double x);
  double level() const { return level_; }
  double trend() const { return trend_; }
  void fit(std::span<const double> xs);

 private:
  double alpha_, beta_;
  double level_ = 0.0, trend_ = 0.0;
  double last_ = 0.0;
  std::size_t n_ = 0;
};

/// Holt–Winters additive seasonal method. Requires two full seasons to
/// initialize; until then it behaves like Holt's method.
class HoltWinters {
 public:
  HoltWinters(double alpha, double beta, double gamma, std::size_t period);

  void add(double x);
  std::size_t period() const { return period_; }
  bool seasonal_ready() const { return seasonal_ready_; }
  double forecast(std::size_t h = 1) const;
  std::vector<double> forecast_path(std::size_t horizon) const;
  void fit(std::span<const double> xs);
  const std::vector<double>& seasonal() const { return seasonal_; }

 private:
  void initialize_seasonal();

  double alpha_, beta_, gamma_;
  std::size_t period_;
  double level_ = 0.0, trend_ = 0.0;
  std::vector<double> seasonal_;
  std::vector<double> warmup_;
  std::size_t t_ = 0;  // samples consumed after seasonal init
  bool seasonal_ready_ = false;
};

}  // namespace oda::math
