#include "analytics/predictive/forecaster.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/string_util.hpp"
#include "math/regression.hpp"

namespace oda::analytics {

void PersistenceForecaster::fit(std::span<const double> history) {
  last_ = history.empty() ? 0.0 : history.back();
}

std::vector<double> PersistenceForecaster::forecast(std::size_t horizon) const {
  return std::vector<double>(horizon, last_);
}

MovingAverageForecaster::MovingAverageForecaster(std::size_t window)
    : window_(window) {
  ODA_REQUIRE(window > 0, "window must be positive");
}

void MovingAverageForecaster::fit(std::span<const double> history) {
  if (history.empty()) {
    level_ = 0.0;
    return;
  }
  const std::size_t n = std::min(window_, history.size());
  level_ = mean(history.subspan(history.size() - n));
}

std::vector<double> MovingAverageForecaster::forecast(std::size_t horizon) const {
  return std::vector<double>(horizon, level_);
}

SesForecaster::SesForecaster(double alpha) : alpha_(alpha) {}

void SesForecaster::fit(std::span<const double> history) {
  math::SimpleExpSmoother s(alpha_);
  s.fit(history);
  level_ = s.level();
}

std::vector<double> SesForecaster::forecast(std::size_t horizon) const {
  return std::vector<double>(horizon, level_);
}

HoltForecaster::HoltForecaster(double alpha, double beta)
    : alpha_(alpha), beta_(beta) {}

void HoltForecaster::fit(std::span<const double> history) {
  math::HoltSmoother s(alpha_, beta_);
  s.fit(history);
  level_ = s.level();
  trend_ = s.trend();
}

std::vector<double> HoltForecaster::forecast(std::size_t horizon) const {
  std::vector<double> out(horizon);
  for (std::size_t h = 0; h < horizon; ++h) {
    out[h] = level_ + static_cast<double>(h + 1) * trend_;
  }
  return out;
}

HoltWintersForecaster::HoltWintersForecaster(std::size_t period, double alpha,
                                             double beta, double gamma)
    : period_(period), alpha_(alpha), beta_(beta), gamma_(gamma) {
  ODA_REQUIRE(period >= 2, "holt-winters period must be >= 2");
}

void HoltWintersForecaster::fit(std::span<const double> history) {
  model_ = std::make_unique<math::HoltWinters>(alpha_, beta_, gamma_, period_);
  model_->fit(history);
  fallback_ = history.empty() ? 0.0 : history.back();
}

std::vector<double> HoltWintersForecaster::forecast(std::size_t horizon) const {
  if (!model_ || !model_->seasonal_ready()) {
    return std::vector<double>(horizon, fallback_);
  }
  return model_->forecast_path(horizon);
}

ArForecaster::ArForecaster(std::size_t order, std::size_t max_order)
    : order_(order), max_order_(max_order) {
  ODA_REQUIRE(max_order >= 1, "AR max order must be >= 1");
}

void ArForecaster::fit(std::span<const double> history) {
  model_.reset();
  fallback_ = history.empty() ? 0.0 : history.back();
  std::size_t order = order_;
  if (order == 0 && history.size() > 8) {
    order = math::select_ar_order(history, max_order_);
  }
  if (order >= 1 && history.size() > order + 2) {
    model_ = std::make_unique<math::ArModel>(
        math::ArModel::fit_yule_walker(history, order));
    const std::size_t tail = std::min(history.size(), order + 1);
    tail_.assign(history.end() - static_cast<std::ptrdiff_t>(tail), history.end());
  }
}

std::vector<double> ArForecaster::forecast(std::size_t horizon) const {
  if (!model_) return std::vector<double>(horizon, fallback_);
  return model_->forecast(tail_, horizon);
}

LinearTrendForecaster::LinearTrendForecaster(std::size_t window)
    : window_(window) {}

void LinearTrendForecaster::fit(std::span<const double> history) {
  std::span<const double> used = history;
  if (window_ > 0 && history.size() > window_) {
    used = history.subspan(history.size() - window_);
  }
  const auto trend = math::fit_trend(used);
  intercept_ = trend.intercept;
  slope_ = trend.slope;
  n_ = used.size();
}

std::vector<double> LinearTrendForecaster::forecast(std::size_t horizon) const {
  std::vector<double> out(horizon);
  for (std::size_t h = 0; h < horizon; ++h) {
    out[h] = intercept_ + slope_ * static_cast<double>(n_ + h);
  }
  return out;
}

std::unique_ptr<Forecaster> make_forecaster(const std::string& spec) {
  const auto parts = split(spec, ':');
  const std::string& kind = parts[0];
  const auto arg = [&](std::size_t fallback) -> std::size_t {
    return parts.size() > 1 ? static_cast<std::size_t>(std::stoul(parts[1]))
                            : fallback;
  };
  if (kind == "persistence") return std::make_unique<PersistenceForecaster>();
  if (kind == "moving-average") {
    return std::make_unique<MovingAverageForecaster>(arg(16));
  }
  if (kind == "ses") return std::make_unique<SesForecaster>();
  if (kind == "holt") return std::make_unique<HoltForecaster>();
  if (kind == "holt-winters") {
    return std::make_unique<HoltWintersForecaster>(arg(96));
  }
  if (kind == "ar") return std::make_unique<ArForecaster>(arg(0));
  if (kind == "linear-trend") {
    return std::make_unique<LinearTrendForecaster>(arg(0));
  }
  throw ContractError("unknown forecaster spec: " + spec);
}

std::vector<std::string> standard_forecaster_specs(std::size_t season_period) {
  return {"persistence",
          "moving-average",
          "ses",
          "holt",
          "holt-winters:" + std::to_string(season_period),
          "ar",
          "linear-trend:64"};
}

}  // namespace oda::analytics
