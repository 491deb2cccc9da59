#include "analytics/prescriptive/cooling.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

#include "obs/cell.hpp"

namespace oda::analytics {

CoolingSetpointOptimizer::CoolingSetpointOptimizer(Params params)
    : params_(params),
      facility_power_(
          telemetry::SeriesInterner::global().intern("facility/total_power")),
      step_c_(params.initial_step_c) {
  ODA_REQUIRE(params.initial_step_c > 0.0, "step must be positive");
}

double CoolingSetpointOptimizer::measure_power(
    const telemetry::TimeSeriesStore& store, TimePoint now) const {
  const auto window =
      static_cast<Duration>(static_cast<double>(params_.period) *
                            params_.measure_fraction);
  return store.window_mean(facility_power_, now - window, now).value_or(-1.0);
}

void CoolingSetpointOptimizer::act(sim::ClusterSimulation& cluster,
                                   const telemetry::TimeSeriesStore& store,
                                   std::vector<Actuation>& log) {
  ODA_CELL_SCOPE("presc.setpoint");
  const TimePoint now = cluster.now();

  // Safety: back off immediately if any CPU is near its limit.
  double max_cpu = 0.0;
  for (const telemetry::SeriesId id : store.match_ids("rack*/node*/cpu_temp")) {
    const auto latest = store.latest(id);
    if (latest) max_cpu = std::max(max_cpu, latest->value);
  }
  const double setpoint = cluster.knobs().get("facility/supply_setpoint");
  if (max_cpu >= params_.cpu_temp_limit_c) {
    actuate(cluster, log, name(), "facility/supply_setpoint",
            setpoint - params_.initial_step_c,
            "cpu temperature near limit; backing off setpoint");
    has_baseline_ = false;  // measurement invalidated
    return;
  }

  const double power = measure_power(store, now);
  if (power < 0.0) return;  // not enough telemetry yet

  if (!has_baseline_) {
    last_power_w_ = power;
    has_baseline_ = true;
    actuate(cluster, log, name(), "facility/supply_setpoint",
            setpoint + direction_ * step_c_, "probe move");
    return;
  }

  // Hill climbing: keep direction while power improves; otherwise reverse
  // and shrink the step (golden-ratio-style decay).
  if (power < last_power_w_) {
    actuate(cluster, log, name(), "facility/supply_setpoint",
            setpoint + direction_ * step_c_,
            "facility power improved; continuing");
  } else {
    direction_ = -direction_;
    step_c_ = std::max(params_.min_step_c, step_c_ * 0.618);
    actuate(cluster, log, name(), "facility/supply_setpoint",
            setpoint + direction_ * step_c_,
            "facility power regressed; reversing with smaller step");
  }
  last_power_w_ = power;
}

CoolingModeSwitcher::CoolingModeSwitcher(Params params) : params_(params) {}

void CoolingModeSwitcher::act(sim::ClusterSimulation& cluster,
                              const telemetry::TimeSeriesStore& store,
                              std::vector<Actuation>& log) {
  const TimePoint now = cluster.now();
  const double setpoint = cluster.knobs().get("facility/supply_setpoint");

  double wetbulb;
  if (params_.proactive) {
    // Forecast the wet-bulb `lead` ahead with Holt-Winters on the stored
    // series; fall back to the current value until enough history exists.
    const auto slice = store.query("weather/wetbulb_temp", now - 3 * kDay, now);
    if (slice.size() >= 64) {
      const Duration sample = (slice.times.back() - slice.times.front()) /
                              static_cast<Duration>(slice.size() - 1);
      const auto period = static_cast<std::size_t>(
          kDay / std::max<Duration>(sample, 1));
      HoltWintersForecaster hw(std::max<std::size_t>(period, 2));
      hw.fit(slice.values);
      const auto steps = static_cast<std::size_t>(
          params_.lead / std::max<Duration>(sample, 1));
      const auto path = hw.forecast(std::max<std::size_t>(steps, 1));
      // Decide on the worst (warmest) forecast point in the lead window so
      // the chiller is engaged before free cooling becomes insufficient.
      wetbulb = *std::max_element(path.begin(), path.end());
    } else {
      const auto latest = store.latest("weather/wetbulb_temp");
      if (!latest) return;
      wetbulb = latest->value;
    }
  } else {
    const auto latest = store.latest("weather/wetbulb_temp");
    if (!latest) return;
    wetbulb = latest->value;
  }

  const bool free_ok =
      wetbulb + params_.tower_approach_k + params_.margin_k <= setpoint;
  const auto desired = free_ok ? sim::CoolingMode::kFreeOnly
                               : sim::CoolingMode::kChillerOnly;
  const auto current = static_cast<sim::CoolingMode>(
      static_cast<int>(cluster.knobs().get("facility/cooling_mode") + 0.5));
  if (desired != current) {
    ++switches_;
    actuate(cluster, log, name(), "facility/cooling_mode",
            static_cast<double>(desired),
            free_ok ? "wet-bulb low enough for free cooling"
                    : "wet-bulb too high; engaging chiller");
  }
}

}  // namespace oda::analytics
