#include "math/ar_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace oda::math {

namespace {

/// Autocovariance at lags 0..max_lag (biased estimator, as Yule-Walker wants).
std::vector<double> autocovariance(std::span<const double> xs,
                                   std::size_t max_lag) {
  const std::size_t n = xs.size();
  const double m = oda::mean(xs);
  std::vector<double> out(max_lag + 1, 0.0);
  for (std::size_t lag = 0; lag <= max_lag && lag < n; ++lag) {
    double acc = 0.0;
    for (std::size_t i = 0; i + lag < n; ++i) {
      acc += (xs[i] - m) * (xs[i + lag] - m);
    }
    out[lag] = acc / static_cast<double>(n);
  }
  return out;
}

}  // namespace

ArModel ArModel::fit_yule_walker(std::span<const double> xs, std::size_t order) {
  ODA_REQUIRE(order >= 1, "AR order must be >= 1");
  ODA_REQUIRE(xs.size() > order + 1, "series too short for AR order");
  ArModel model;
  model.mean_ = oda::mean(xs);

  const auto gamma = autocovariance(xs, order);
  if (gamma[0] <= 0.0) {
    // Constant series: predict the mean.
    model.phi_.assign(order, 0.0);
    return model;
  }

  // Levinson–Durbin recursion.
  std::vector<double> phi(order, 0.0);
  std::vector<double> prev(order, 0.0);
  double e = gamma[0];
  for (std::size_t k = 0; k < order; ++k) {
    double acc = gamma[k + 1];
    for (std::size_t j = 0; j < k; ++j) acc -= prev[j] * gamma[k - j];
    const double reflection = acc / e;
    phi = prev;
    phi[k] = reflection;
    for (std::size_t j = 0; j < k; ++j) {
      phi[j] = prev[j] - reflection * prev[k - 1 - j];
    }
    e *= (1.0 - reflection * reflection);
    if (e <= 0.0) {
      e = 1e-12;  // numerically perfect fit
    }
    prev = phi;
  }
  model.phi_ = std::move(phi);
  return model;
}

double ArModel::predict_next(std::span<const double> history) const {
  ODA_REQUIRE(history.size() >= order(), "history shorter than AR order");
  double acc = mean_;
  for (std::size_t i = 0; i < order(); ++i) {
    // phi_[i] multiplies lag i+1.
    acc += phi_[i] * (history[history.size() - 1 - i] - mean_);
  }
  return acc;
}

std::vector<double> ArModel::forecast(std::span<const double> history,
                                      std::size_t horizon) const {
  ODA_REQUIRE(history.size() >= order(), "history shorter than AR order");
  std::vector<double> extended(history.begin(), history.end());
  std::vector<double> out;
  out.reserve(horizon);
  for (std::size_t h = 0; h < horizon; ++h) {
    const double next = predict_next(extended);
    out.push_back(next);
    extended.push_back(next);
  }
  return out;
}

std::vector<double> ArModel::residuals(std::span<const double> xs) const {
  const std::size_t p = order();
  if (xs.size() <= p) return {};
  std::vector<double> out;
  out.reserve(xs.size() - p);
  for (std::size_t i = p; i < xs.size(); ++i) {
    const double pred = predict_next(xs.subspan(0, i));
    out.push_back(xs[i] - pred);
  }
  return out;
}

std::size_t select_ar_order(std::span<const double> xs, std::size_t max_order) {
  ODA_REQUIRE(max_order >= 1, "max_order must be >= 1");
  std::size_t best_order = 1;
  double best_aic = std::numeric_limits<double>::infinity();
  for (std::size_t p = 1; p <= max_order && xs.size() > p + 2; ++p) {
    const auto model = ArModel::fit_yule_walker(xs, p);
    const auto res = model.residuals(xs);
    if (res.empty()) continue;
    double rss = 0.0;
    for (double r : res) rss += r * r;
    const double n = static_cast<double>(res.size());
    const double sigma2 = std::max(rss / n, 1e-300);
    // BIC rather than AIC: the log(n) complexity penalty is consistent for
    // order selection, where AIC systematically overfits long series.
    const double bic = n * std::log(sigma2) + std::log(n) * static_cast<double>(p);
    if (bic < best_aic) {
      best_aic = bic;
      best_order = p;
    }
  }
  return best_order;
}

}  // namespace oda::math
