#include "sim/config.hpp"

#include <functional>
#include <map>
#include <string>

#include "common/error.hpp"

namespace oda::sim {

namespace {

/// Uniform key table: each entry knows how to read its value into a
/// ClusterParams. One table serves parsing and unknown-key detection.
using KeyBinding =
    std::function<void(ClusterParams&, const Config&, const std::string&)>;

template <typename T, typename Field>
KeyBinding bind(Field field) {
  return [field](ClusterParams& p, const Config& c, const std::string& key) {
    if constexpr (std::is_same_v<T, double>) {
      p.*field = c.get_double(key);
    } else if constexpr (std::is_same_v<T, bool>) {
      p.*field = c.get_bool(key);
    } else {
      p.*field = static_cast<T>(c.get_int(key));
    }
  };
}

template <typename T, typename Sub, typename SubField>
KeyBinding bind_sub(Sub sub, SubField field) {
  return [sub, field](ClusterParams& p, const Config& c,
                      const std::string& key) {
    if constexpr (std::is_same_v<T, double>) {
      (p.*sub).*field = c.get_double(key);
    } else if constexpr (std::is_same_v<T, bool>) {
      (p.*sub).*field = c.get_bool(key);
    } else {
      (p.*sub).*field = static_cast<T>(c.get_int(key));
    }
  };
}

const std::map<std::string, KeyBinding>& key_table() {
  static const std::map<std::string, KeyBinding> kTable = {
      // cluster
      {"cluster.racks", bind<std::size_t>(&ClusterParams::racks)},
      {"cluster.nodes_per_rack", bind<std::size_t>(&ClusterParams::nodes_per_rack)},
      {"cluster.gpu_node_fraction", bind<double>(&ClusterParams::gpu_node_fraction)},
      {"cluster.dt", bind<Duration>(&ClusterParams::dt)},
      {"cluster.seed", bind<std::uint64_t>(&ClusterParams::seed)},
      {"cluster.uplink_capacity_gbps", bind<double>(&ClusterParams::uplink_capacity_gbps)},
      {"cluster.nic_capacity_gbps", bind<double>(&ClusterParams::nic_capacity_gbps)},
      {"cluster.rack_inlet_offset_c", bind<double>(&ClusterParams::rack_inlet_offset_c)},
      {"cluster.rack_thermal_coupling_c", bind<double>(&ClusterParams::rack_thermal_coupling_c)},
      // weather
      {"weather.mean_temp_c", bind_sub<double>(&ClusterParams::weather, &WeatherParams::mean_temp_c)},
      {"weather.seasonal_amplitude", bind_sub<double>(&ClusterParams::weather, &WeatherParams::seasonal_amplitude)},
      {"weather.diurnal_amplitude", bind_sub<double>(&ClusterParams::weather, &WeatherParams::diurnal_amplitude)},
      {"weather.front_stddev", bind_sub<double>(&ClusterParams::weather, &WeatherParams::front_stddev)},
      {"weather.wetbulb_depression", bind_sub<double>(&ClusterParams::weather, &WeatherParams::wetbulb_depression)},
      // workload
      {"workload.user_count", bind_sub<std::size_t>(&ClusterParams::workload, &WorkloadParams::user_count)},
      {"workload.peak_arrival_rate_per_hour", bind_sub<double>(&ClusterParams::workload, &WorkloadParams::peak_arrival_rate_per_hour)},
      {"workload.max_nodes_per_job", bind_sub<std::size_t>(&ClusterParams::workload, &WorkloadParams::max_nodes_per_job)},
      {"workload.min_duration", bind_sub<Duration>(&ClusterParams::workload, &WorkloadParams::min_duration)},
      {"workload.max_duration", bind_sub<Duration>(&ClusterParams::workload, &WorkloadParams::max_duration)},
      {"workload.miner_fraction", bind_sub<double>(&ClusterParams::workload, &WorkloadParams::miner_fraction)},
      {"workload.leak_fraction", bind_sub<double>(&ClusterParams::workload, &WorkloadParams::leak_fraction)},
      {"workload.seed", bind_sub<std::uint64_t>(&ClusterParams::workload, &WorkloadParams::seed)},
      // facility
      {"facility.supply_setpoint_c", bind_sub<double>(&ClusterParams::facility, &FacilityParams::supply_setpoint_c)},
      {"facility.tower_approach_k", bind_sub<double>(&ClusterParams::facility, &FacilityParams::tower_approach_k)},
      {"facility.chiller_cop_base", bind_sub<double>(&ClusterParams::facility, &FacilityParams::chiller_cop_base)},
      {"facility.chiller_cop_slope", bind_sub<double>(&ClusterParams::facility, &FacilityParams::chiller_cop_slope)},
      {"facility.pump_nominal_w", bind_sub<double>(&ClusterParams::facility, &FacilityParams::pump_nominal_w)},
      {"facility.misc_overhead_w", bind_sub<double>(&ClusterParams::facility, &FacilityParams::misc_overhead_w)},
      {"facility.pdu_efficiency_max", bind_sub<double>(&ClusterParams::facility, &FacilityParams::pdu_efficiency_max)},
      // node
      {"node.idle_power_w", bind_sub<double>(&ClusterParams::node, &NodeParams::idle_power_w)},
      {"node.cpu_max_dynamic_w", bind_sub<double>(&ClusterParams::node, &NodeParams::cpu_max_dynamic_w)},
      {"node.freq_min_ghz", bind_sub<double>(&ClusterParams::node, &NodeParams::freq_min_ghz)},
      {"node.freq_max_ghz", bind_sub<double>(&ClusterParams::node, &NodeParams::freq_max_ghz)},
      {"node.freq_nominal_ghz", bind_sub<double>(&ClusterParams::node, &NodeParams::freq_nominal_ghz)},
      {"node.throttle_temp_c", bind_sub<double>(&ClusterParams::node, &NodeParams::throttle_temp_c)},
      {"node.fan_target_temp_c", bind_sub<double>(&ClusterParams::node, &NodeParams::fan_target_temp_c)},
      {"node.memory_capacity_gb", bind_sub<double>(&ClusterParams::node, &NodeParams::memory_capacity_gb)},
      // scheduler
      {"scheduler.backfill",
       [](ClusterParams& p, const Config& c, const std::string& key) {
         p.scheduler.discipline = c.get_bool(key)
                                      ? QueueDiscipline::kEasyBackfill
                                      : QueueDiscipline::kFcfs;
       }},
  };
  return kTable;
}

}  // namespace

ClusterParams cluster_params_from_config(const Config& config,
                                         ClusterParams base) {
  const auto& table = key_table();
  for (const auto& key : config.keys()) {
    const auto it = table.find(key);
    if (it == table.end()) {
      throw ConfigError("unknown simulation config key: " + key);
    }
    it->second(base, config, key);
  }
  return base;
}

ClusterParams cluster_params_from_config(const Config& config) {
  return cluster_params_from_config(config, ClusterParams{});
}

}  // namespace oda::sim
