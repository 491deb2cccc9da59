#include "analytics/predictive/spectral.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "math/regression.hpp"
#include "math/timeseries.hpp"

#include "obs/cell.hpp"

namespace oda::analytics {

SpectralForecaster::SpectralForecaster(std::size_t components)
    : n_components_(components) {
  ODA_REQUIRE(components >= 1, "spectral forecaster needs components");
}

void SpectralForecaster::fit(std::span<const double> history) {
  history_len_ = history.size();
  components_.clear();
  if (history.size() < 8) {
    intercept_ = history.empty() ? 0.0 : history.back();
    slope_ = 0.0;
    return;
  }
  const auto trend = math::fit_trend(history);
  intercept_ = trend.intercept;
  slope_ = trend.slope;
  const auto detrended = math::detrend(history);
  components_ = math::dominant_components(detrended, n_components_);
}

std::vector<double> SpectralForecaster::forecast(std::size_t horizon) const {
  std::vector<double> out(horizon, 0.0);
  for (std::size_t h = 0; h < horizon; ++h) {
    const double t = static_cast<double>(history_len_ + h);
    double v = intercept_ + slope_ * t;
    for (const auto& c : components_) {
      v += c.amplitude * std::cos(2.0 * M_PI * c.frequency * t + c.phase);
    }
    out[h] = v;
  }
  return out;
}

std::vector<PowerSwingEvent> detect_power_swings(std::span<const double> power,
                                                 const NotificationRule& rule) {
  ODA_CELL_SCOPE("pred.spectral");
  ODA_REQUIRE(rule.sample_period > 0, "sample period must be positive");
  const auto lag = static_cast<std::size_t>(rule.window / rule.sample_period);
  std::vector<PowerSwingEvent> out;
  if (lag == 0 || power.size() <= lag) return out;
  bool in_event = false;
  for (std::size_t i = lag; i < power.size(); ++i) {
    const double delta = power[i] - power[i - lag];
    if (std::abs(delta) > rule.threshold_w) {
      // Report the onset of a violation episode, not every sample in it.
      if (!in_event) {
        out.push_back({i, delta});
        in_event = true;
      }
    } else {
      in_event = false;
    }
  }
  return out;
}

double NotificationScore::precision() const {
  const auto denom = hits + false_alarms;
  return denom ? static_cast<double>(hits) / static_cast<double>(denom) : 0.0;
}

double NotificationScore::recall() const {
  const auto denom = hits + misses;
  return denom ? static_cast<double>(hits) / static_cast<double>(denom) : 0.0;
}

NotificationScore score_notifications(std::span<const PowerSwingEvent> predicted,
                                      std::span<const PowerSwingEvent> actual,
                                      std::size_t tolerance_steps) {
  NotificationScore score;
  score.predicted = predicted.size();
  score.actual = actual.size();
  std::vector<bool> used(predicted.size(), false);
  for (const auto& a : actual) {
    bool hit = false;
    for (std::size_t i = 0; i < predicted.size(); ++i) {
      if (used[i]) continue;
      const std::size_t d = a.step > predicted[i].step
                                ? a.step - predicted[i].step
                                : predicted[i].step - a.step;
      const bool same_direction = (a.delta_w > 0) == (predicted[i].delta_w > 0);
      if (d <= tolerance_steps && same_direction) {
        used[i] = true;
        hit = true;
        break;
      }
    }
    if (hit) {
      ++score.hits;
    } else {
      ++score.misses;
    }
  }
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    if (!used[i]) ++score.false_alarms;
  }
  return score;
}

}  // namespace oda::analytics
