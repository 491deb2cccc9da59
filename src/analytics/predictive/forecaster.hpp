// Predictive-pillar forecaster suite (Table I, predictive row): a common
// interface over persistence/moving-average baselines, exponential-smoothing
// family, AR(p) and linear trend — the sensor-forecasting toolbox of
// PRACTISE [32] / CWS [47] style deployments. A factory builds by name so
// benchmarks and configs can sweep models.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "math/ar_model.hpp"
#include "math/smoothing.hpp"

namespace oda::analytics {

class Forecaster {
 public:
  virtual ~Forecaster() = default;
  /// Fits/refits on the full history (oldest first).
  virtual void fit(std::span<const double> history) = 0;
  /// Forecast h steps past the end of the fitted history.
  virtual std::vector<double> forecast(std::size_t horizon) const = 0;
  virtual const char* name() const = 0;
};

/// Flat forecast at the last observed value — the baseline every other
/// model must beat to be worth deploying.
class PersistenceForecaster : public Forecaster {
 public:
  void fit(std::span<const double> history) override;
  std::vector<double> forecast(std::size_t horizon) const override;
  const char* name() const override { return "persistence"; }

 private:
  double last_ = 0.0;
};

class MovingAverageForecaster : public Forecaster {
 public:
  explicit MovingAverageForecaster(std::size_t window = 16);
  void fit(std::span<const double> history) override;
  std::vector<double> forecast(std::size_t horizon) const override;
  const char* name() const override { return "moving-average"; }

 private:
  std::size_t window_;
  double level_ = 0.0;
};

class SesForecaster : public Forecaster {
 public:
  explicit SesForecaster(double alpha = 0.3);
  void fit(std::span<const double> history) override;
  std::vector<double> forecast(std::size_t horizon) const override;
  const char* name() const override { return "ses"; }

 private:
  double alpha_;
  double level_ = 0.0;
};

class HoltForecaster : public Forecaster {
 public:
  HoltForecaster(double alpha = 0.3, double beta = 0.1);
  void fit(std::span<const double> history) override;
  std::vector<double> forecast(std::size_t horizon) const override;
  const char* name() const override { return "holt"; }

 private:
  double alpha_, beta_;
  double level_ = 0.0, trend_ = 0.0;
};

class HoltWintersForecaster : public Forecaster {
 public:
  /// period = samples per season (e.g. 96 for 15-min samples, daily cycle).
  HoltWintersForecaster(std::size_t period, double alpha = 0.25,
                        double beta = 0.02, double gamma = 0.15);
  void fit(std::span<const double> history) override;
  std::vector<double> forecast(std::size_t horizon) const override;
  const char* name() const override { return "holt-winters"; }

 private:
  std::size_t period_;
  double alpha_, beta_, gamma_;
  std::unique_ptr<math::HoltWinters> model_;
  double fallback_ = 0.0;
};

class ArForecaster : public Forecaster {
 public:
  /// order = 0 selects the order by AIC up to max_order.
  explicit ArForecaster(std::size_t order = 0, std::size_t max_order = 12);
  void fit(std::span<const double> history) override;
  std::vector<double> forecast(std::size_t horizon) const override;
  const char* name() const override { return "ar"; }

 private:
  std::size_t order_, max_order_;
  std::unique_ptr<math::ArModel> model_;
  std::vector<double> tail_;  // history tail the forecast iterates from
  double fallback_ = 0.0;
};

class LinearTrendForecaster : public Forecaster {
 public:
  /// Fits on at most the trailing `window` samples (0 = all).
  explicit LinearTrendForecaster(std::size_t window = 0);
  void fit(std::span<const double> history) override;
  std::vector<double> forecast(std::size_t horizon) const override;
  const char* name() const override { return "linear-trend"; }

 private:
  std::size_t window_;
  double intercept_ = 0.0, slope_ = 0.0;
  std::size_t n_ = 0;
};

/// Builds by name: "persistence", "moving-average", "ses", "holt",
/// "holt-winters:<period>", "ar", "ar:<order>", "linear-trend".
std::unique_ptr<Forecaster> make_forecaster(const std::string& spec);

/// All standard specs for benchmark sweeps (period fills holt-winters).
std::vector<std::string> standard_forecaster_specs(std::size_t season_period);

}  // namespace oda::analytics
