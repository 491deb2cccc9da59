// Cooling prescriptions (Table I, prescriptive/building-infrastructure):
//  * CoolingSetpointOptimizer — online hill climbing of the supply-water
//    setpoint against measured facility power ([18],[37]): higher setpoints
//    buy chiller COP and free-cooling hours but cost node leakage/fan power,
//    so there is a genuine optimum to find;
//  * CoolingModeSwitcher — chiller vs free-cooling selection [12]; the
//    *proactive* variant switches ahead of need using a wet-bulb forecast
//    (a predictive+prescriptive multi-type composition, Sec. V-A).
#pragma once

#include <memory>

#include "analytics/predictive/forecaster.hpp"
#include "analytics/prescriptive/controller.hpp"
#include "telemetry/series_id.hpp"

namespace oda::analytics {

class CoolingSetpointOptimizer : public Controller {
 public:
  struct Params {
    Duration period = 2 * kHour;   // one optimization move per period
    double initial_step_c = 2.0;
    double min_step_c = 0.25;
    /// Node CPU temperature that must not be exceeded (safety constraint).
    double cpu_temp_limit_c = 85.0;
    /// Settling margin: power is averaged over the trailing fraction of the
    /// period so loop transients do not bias the comparison.
    double measure_fraction = 0.5;
  };

  CoolingSetpointOptimizer() : CoolingSetpointOptimizer(Params{}) {}
  explicit CoolingSetpointOptimizer(Params params);

  const char* name() const override { return "cooling-setpoint-optimizer"; }
  Duration period() const override { return params_.period; }
  void act(sim::ClusterSimulation& cluster,
           const telemetry::TimeSeriesStore& store,
           std::vector<Actuation>& log) override;

 private:
  double measure_power(const telemetry::TimeSeriesStore& store,
                       TimePoint now) const;

  Params params_;
  telemetry::SeriesId facility_power_;  // facility/total_power
  double step_c_;
  double direction_ = +1.0;
  double last_power_w_ = -1.0;
  bool has_baseline_ = false;
};

class CoolingModeSwitcher : public Controller {
 public:
  struct Params {
    Duration period = 30 * kMinute;
    /// Forecast lead when proactive (0 = reactive, decide on current value).
    Duration lead = 2 * kHour;
    double tower_approach_k = 4.0;
    /// Hysteresis below the setpoint required to engage free cooling.
    double margin_k = 0.5;
    bool proactive = false;
  };

  CoolingModeSwitcher() : CoolingModeSwitcher(Params{}) {}
  explicit CoolingModeSwitcher(Params params);

  const char* name() const override { return "cooling-mode-switcher"; }
  Duration period() const override { return params_.period; }
  void act(sim::ClusterSimulation& cluster,
           const telemetry::TimeSeriesStore& store,
           std::vector<Actuation>& log) override;

  std::size_t switches() const { return switches_; }

 private:
  Params params_;
  std::size_t switches_ = 0;
};

}  // namespace oda::analytics
