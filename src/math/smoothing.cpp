#include "math/smoothing.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace oda::math {

SimpleExpSmoother::SimpleExpSmoother(double alpha) : alpha_(alpha) {
  ODA_REQUIRE(alpha > 0.0 && alpha <= 1.0, "SES alpha must be in (0,1]");
}

void SimpleExpSmoother::add(double x) {
  if (!initialized_) {
    level_ = x;
    initialized_ = true;
    return;
  }
  level_ += alpha_ * (x - level_);
}

void SimpleExpSmoother::fit(std::span<const double> xs) {
  for (double x : xs) add(x);
}

HoltSmoother::HoltSmoother(double alpha, double beta) : alpha_(alpha), beta_(beta) {
  ODA_REQUIRE(alpha > 0.0 && alpha <= 1.0, "Holt alpha must be in (0,1]");
  ODA_REQUIRE(beta > 0.0 && beta <= 1.0, "Holt beta must be in (0,1]");
}

void HoltSmoother::add(double x) {
  if (n_ == 0) {
    level_ = x;
    last_ = x;
    ++n_;
    return;
  }
  if (n_ == 1) {
    trend_ = x - last_;
    level_ = x;
    ++n_;
    return;
  }
  const double prev_level = level_;
  level_ = alpha_ * x + (1.0 - alpha_) * (level_ + trend_);
  trend_ = beta_ * (level_ - prev_level) + (1.0 - beta_) * trend_;
  ++n_;
}

void HoltSmoother::fit(std::span<const double> xs) {
  for (double x : xs) add(x);
}

HoltWinters::HoltWinters(double alpha, double beta, double gamma,
                         std::size_t period)
    : alpha_(alpha), beta_(beta), gamma_(gamma), period_(period) {
  ODA_REQUIRE(alpha > 0.0 && alpha <= 1.0, "HW alpha must be in (0,1]");
  ODA_REQUIRE(beta >= 0.0 && beta <= 1.0, "HW beta must be in [0,1]");
  ODA_REQUIRE(gamma >= 0.0 && gamma <= 1.0, "HW gamma must be in [0,1]");
  ODA_REQUIRE(period >= 2, "HW period must be >= 2");
}

void HoltWinters::initialize_seasonal() {
  // Classical init from the first two seasons: level = mean of season 1,
  // trend = mean per-step change between seasons, seasonal = deviation of the
  // first two seasons from their season means.
  const std::size_t p = period_;
  double s1 = 0.0, s2 = 0.0;
  for (std::size_t i = 0; i < p; ++i) {
    s1 += warmup_[i];
    s2 += warmup_[p + i];
  }
  s1 /= static_cast<double>(p);
  s2 /= static_cast<double>(p);
  level_ = s1;
  trend_ = (s2 - s1) / static_cast<double>(p);
  seasonal_.assign(p, 0.0);
  for (std::size_t i = 0; i < p; ++i) {
    seasonal_[i] = ((warmup_[i] - s1) + (warmup_[p + i] - s2)) / 2.0;
  }
  // Re-run the warmup samples through the update equations so the state
  // reflects the full history.
  seasonal_ready_ = true;
  // Advance level to the end of the warmup window.
  level_ = s2 + trend_ * (static_cast<double>(p) / 2.0);
  t_ = 0;
  warmup_.clear();
}

void HoltWinters::add(double x) {
  if (!seasonal_ready_) {
    warmup_.push_back(x);
    if (warmup_.size() >= 2 * period_) initialize_seasonal();
    return;
  }
  const std::size_t idx = t_ % period_;
  const double prev_level = level_;
  level_ = alpha_ * (x - seasonal_[idx]) + (1.0 - alpha_) * (level_ + trend_);
  trend_ = beta_ * (level_ - prev_level) + (1.0 - beta_) * trend_;
  seasonal_[idx] = gamma_ * (x - level_) + (1.0 - gamma_) * seasonal_[idx];
  ++t_;
}

double HoltWinters::forecast(std::size_t h) const {
  if (!seasonal_ready_) {
    // Fallback: last-value behaviour during warmup.
    return warmup_.empty() ? 0.0 : warmup_.back();
  }
  const std::size_t idx = (t_ + h - 1) % period_;
  return level_ + static_cast<double>(h) * trend_ + seasonal_[idx];
}

std::vector<double> HoltWinters::forecast_path(std::size_t horizon) const {
  std::vector<double> out;
  out.reserve(horizon);
  for (std::size_t h = 1; h <= horizon; ++h) out.push_back(forecast(h));
  return out;
}

void HoltWinters::fit(std::span<const double> xs) {
  for (double x : xs) add(x);
}

}  // namespace oda::math
