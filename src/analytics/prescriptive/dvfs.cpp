#include "analytics/prescriptive/dvfs.hpp"

#include <algorithm>
#include <cmath>


#include "obs/cell.hpp"

namespace oda::analytics {

DvfsGovernor::DvfsGovernor(Params params) : params_(params) {}

const std::vector<DvfsGovernor::NodeInputs>& DvfsGovernor::inputs(
    sim::ClusterSimulation& cluster) {
  if (nodes_.size() == cluster.node_count()) return nodes_;
  telemetry::SeriesInterner& interner = telemetry::SeriesInterner::global();
  nodes_.clear();
  nodes_.reserve(cluster.node_count());
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    const std::string& prefix = cluster.node(i).path();
    nodes_.push_back({interner.intern(prefix + "/cpu_util"),
                      interner.intern(prefix + "/mem_bw_util"),
                      interner.intern(prefix + "/cpu_temp"),
                      prefix + "/freq_setpoint"});
  }
  return nodes_;
}

void DvfsGovernor::act(sim::ClusterSimulation& cluster,
                       const telemetry::TimeSeriesStore& store,
                       std::vector<Actuation>& log) {
  ODA_CELL_SCOPE("presc.dvfs");
  if (params_.mode == Mode::kEnergy) {
    act_energy(cluster, store, log);
  } else {
    act_thermal(cluster, store, log);
  }
}

void DvfsGovernor::act_energy(sim::ClusterSimulation& cluster,
                              const telemetry::TimeSeriesStore& store,
                              std::vector<Actuation>& log) {
  const TimePoint now = cluster.now();
  const auto& nodes = inputs(cluster);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const auto cpu =
        store.window_mean(nodes[i].cpu_util, now - params_.period, now);
    const auto mem =
        store.window_mean(nodes[i].mem_bw_util, now - params_.period, now);
    if (!cpu || !mem) continue;
    const double cpu_mean = *cpu;
    const double mem_mean = *mem;
    const std::string& knob = nodes[i].knob;
    const double nominal = cluster.node(i).params().freq_nominal_ghz;

    if (cpu_mean < 0.05) {
      // Idle nodes: race-to-idle is moot here; park at nominal.
      if (cluster.knobs().get(knob) != nominal) {
        actuate(cluster, log, name(), knob, nominal, "node idle; restore nominal");
      }
      continue;
    }
    const bool memory_bound = mem_mean > params_.membound_ratio * cpu_mean ||
                              mem_mean > 0.7;
    const double target = memory_bound ? params_.energy_freq_ghz : nominal;
    if (std::abs(cluster.knobs().get(knob) - target) > 1e-9) {
      actuate(cluster, log, name(), knob, target,
              memory_bound ? "memory-bound phase; downclocking"
                           : "compute-bound phase; nominal frequency");
    }
  }
}

double DvfsGovernor::effective_temp(const telemetry::TimeSeriesStore& store,
                                    telemetry::SeriesId cpu_temp,
                                    TimePoint now) const {
  const auto latest = store.latest(cpu_temp);
  if (!latest) return 0.0;
  if (params_.mode != Mode::kThermalProactive) return latest->value;

  // Proactive: Holt forecast of the temperature over the lead window; act
  // on the max of measured and forecast so warming trends are pre-empted.
  const auto slice = store.query(cpu_temp, now - 30 * kMinute, now);
  if (slice.size() < 8) return latest->value;
  const Duration sample = (slice.times.back() - slice.times.front()) /
                          static_cast<Duration>(slice.size() - 1);
  HoltForecaster holt(0.4, 0.2);
  holt.fit(slice.values);
  const auto steps = std::max<std::size_t>(
      1, static_cast<std::size_t>(params_.forecast_lead /
                                  std::max<Duration>(sample, 1)));
  const auto path = holt.forecast(steps);
  const double forecast_max = *std::max_element(path.begin(), path.end());
  return std::max(latest->value, forecast_max);
}

void DvfsGovernor::act_thermal(sim::ClusterSimulation& cluster,
                               const telemetry::TimeSeriesStore& store,
                               std::vector<Actuation>& log) {
  const TimePoint now = cluster.now();
  const auto& nodes = inputs(cluster);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const double temp = effective_temp(store, nodes[i].cpu_temp, now);
    if (temp <= 0.0) continue;
    const std::string& knob = nodes[i].knob;
    const double current = cluster.knobs().get(knob);
    const auto& np = cluster.node(i).params();

    if (temp >= params_.temp_limit_c - params_.temp_headroom_c) {
      // Proportional shed: the deeper into the headroom band, the harder we
      // downclock.
      const double depth =
          (temp - (params_.temp_limit_c - params_.temp_headroom_c)) /
          std::max(params_.temp_headroom_c, 0.5);
      const double target = std::max(
          np.freq_min_ghz, current - params_.step_ghz * (1.0 + 2.0 * depth));
      if (target < current - 1e-9) {
        actuate(cluster, log, name(), knob, target,
                "temperature near limit; shedding frequency");
      }
    } else if (temp < params_.temp_limit_c - 2.0 * params_.temp_headroom_c &&
               current < np.freq_nominal_ghz) {
      // Cool again: recover frequency gradually.
      const double target =
          std::min(np.freq_nominal_ghz, current + params_.step_ghz);
      actuate(cluster, log, name(), knob, target,
              "thermal headroom available; restoring frequency");
    }
  }
}

}  // namespace oda::analytics
