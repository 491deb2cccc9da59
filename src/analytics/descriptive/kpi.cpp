#include "analytics/descriptive/kpi.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <span>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "math/entropy.hpp"
#include "telemetry/health.hpp"

#include "obs/cell.hpp"

namespace oda::analytics {

namespace {

/// Integrates a sensor over [from, to) by trapezoid-free step integration
/// (samples are step-held), returning kWh. `watts` maps each sample value
/// to the power it stands for; by default the sensor reads watts itself.
/// The samples are folded in place under the store's read lock.
template <typename ToWatts = std::identity>
double integrate_kwh(const telemetry::TimeSeriesStore& store,
                     telemetry::SeriesId id, TimePoint from, TimePoint to,
                     ToWatts watts = {}) {
  double joules = 0.0;
  std::optional<telemetry::Sample> last;
  store.read_range(id, from, to,
                   [&](std::span<const telemetry::Sample> a,
                       std::span<const telemetry::Sample> b) {
                     for (const auto range : {a, b}) {
                       for (const telemetry::Sample& s : range) {
                         if (last) {
                           joules += watts(last->value) *
                                     static_cast<double>(s.time - last->time);
                         }
                         last = s;
                       }
                     }
                   });
  if (!last) return 0.0;
  joules += watts(last->value) * static_cast<double>(to - last->time);
  return joules / units::kJoulesPerKilowattHour;
}

telemetry::SeriesId id_of(const std::string& path) {
  return telemetry::SeriesInterner::global().lookup(path).value_or(
      telemetry::SeriesId{});
}

}  // namespace

PueReport compute_pue(const telemetry::TimeSeriesStore& store, TimePoint from,
                      TimePoint to,
                      const telemetry::SensorHealthTracker* health) {
  ODA_CELL_SCOPE("kpi.pue");
  PueReport report;
  std::size_t usable = 0;
  const auto usable_kwh = [&](const std::string& path) {
    if (health != nullptr && !health->usable(path)) {
      ODA_TRACE_INSTANT_CAT("analytics.quarantine_skip", "analytics");
      return 0.0;
    }
    ++usable;
    return integrate_kwh(store, id_of(path), from, to);
  };
  report.facility_energy_kwh = usable_kwh("facility/total_power");
  report.it_energy_kwh = usable_kwh("cluster/it_power");
  report.cooling_energy_kwh = usable_kwh("facility/cooling_power");
  report.loss_energy_kwh = usable_kwh("facility/pdu_loss");
  report.coverage = static_cast<double>(usable) / 4.0;
  report.pue = report.it_energy_kwh > 0.0
                   ? report.facility_energy_kwh / report.it_energy_kwh
                   : 0.0;
  return report;
}

ItueReport compute_itue(const telemetry::TimeSeriesStore& store, TimePoint from,
                        TimePoint to, double fan_max_power_w,
                        double psu_overhead_fraction) {
  ODA_CELL_SCOPE("kpi.itue");
  ItueReport report;
  report.it_energy_kwh =
      integrate_kwh(store, id_of("cluster/it_power"), from, to);

  // Fan energy: cubic law applied to each node's fan_speed series.
  const auto fan_watts = [fan_max_power_w](double s) {
    return fan_max_power_w * s * s * s;
  };
  double fan_kwh = 0.0;
  for (const telemetry::SeriesId id : store.match_ids("rack*/node*/fan_speed")) {
    fan_kwh += integrate_kwh(store, id, from, to, fan_watts);
  }
  report.fan_energy_kwh = fan_kwh;

  const double overhead_kwh =
      fan_kwh + psu_overhead_fraction * report.it_energy_kwh;
  const double useful = report.it_energy_kwh - overhead_kwh;
  report.itue = useful > 0.0 ? report.it_energy_kwh / useful : 1.0;

  // PUE over the same interval, as compute_pue() defines it.
  const double facility_kwh =
      integrate_kwh(store, id_of("facility/total_power"), from, to);
  const double pue = report.it_energy_kwh > 0.0
                         ? facility_kwh / report.it_energy_kwh
                         : 0.0;
  report.tue = report.itue * (pue > 0.0 ? pue : 1.0);
  return report;
}

double compute_ere(const PueReport& pue, double reuse_fraction) {
  ODA_REQUIRE(reuse_fraction >= 0.0 && reuse_fraction <= 1.0,
              "reuse fraction must be in [0,1]");
  if (pue.it_energy_kwh <= 0.0) return 0.0;
  const double reused = reuse_fraction * pue.it_energy_kwh;
  return (pue.facility_energy_kwh - reused) / pue.it_energy_kwh;
}

SlowdownReport compute_slowdown(std::span<const sim::JobRecord> records,
                                Duration tau) {
  ODA_CELL_SCOPE("kpi.slowdown");
  SlowdownReport report;
  if (records.empty()) return report;
  std::vector<double> waits;
  double slowdown_sum = 0.0, bounded_sum = 0.0;
  for (const auto& r : records) {
    const double wait = static_cast<double>(r.wait_time());
    const double run = std::max<double>(1.0, static_cast<double>(r.run_time()));
    waits.push_back(wait);
    slowdown_sum += (wait + run) / run;
    bounded_sum += std::max(1.0, (wait + run) /
                                     std::max(run, static_cast<double>(tau)));
  }
  report.jobs = records.size();
  report.mean_slowdown = slowdown_sum / static_cast<double>(records.size());
  report.mean_bounded_slowdown = bounded_sum / static_cast<double>(records.size());
  report.mean_wait_s = mean(waits);
  report.median_wait_s = median(waits);
  report.p95_wait_s = quantile(waits, 0.95);
  return report;
}

double compute_utilization(const telemetry::TimeSeriesStore& store,
                           TimePoint from, TimePoint to,
                           const telemetry::SensorHealthTracker* health) {
  if (health != nullptr && !health->usable("scheduler/utilization")) {
    ODA_TRACE_INSTANT_CAT("analytics.quarantine_skip", "analytics");
    return std::numeric_limits<double>::quiet_NaN();
  }
  const auto slice = store.query("scheduler/utilization", from, to);
  return slice.empty() ? 0.0 : mean(slice.values);
}

SieReport compute_sie(const telemetry::TimeSeriesStore& store,
                      const std::vector<std::string>& sensors, TimePoint from,
                      TimePoint to, Duration bucket, std::size_t levels,
                      const telemetry::SensorHealthTracker* health) {
  ODA_REQUIRE(levels >= 2, "SIE needs at least two levels");
  SieReport report;
  std::vector<std::string> used;
  used.reserve(sensors.size());
  for (const auto& path : sensors) {
    if (health != nullptr && !health->usable(path)) {
      ODA_TRACE_INSTANT_CAT("analytics.quarantine_skip", "analytics");
      continue;
    }
    used.push_back(path);
  }
  report.sensors_used = used.size();
  report.coverage = sensors.empty() ? 1.0
                                    : static_cast<double>(used.size()) /
                                          static_cast<double>(sensors.size());
  if (used.empty()) return report;
  const auto frame = store.frame(used, from, to, bucket);
  if (frame.rows() < 2) return report;

  // Per-column min/max for level quantization: one contiguous stripe scan
  // per column in the columnar layout.
  std::vector<double> lo(frame.cols(), std::numeric_limits<double>::infinity());
  std::vector<double> hi(frame.cols(), -std::numeric_limits<double>::infinity());
  for (std::size_t c = 0; c < frame.cols(); ++c) {
    for (double v : frame.column_values(c)) {
      if (std::isnan(v)) continue;
      lo[c] = std::min(lo[c], v);
      hi[c] = std::max(hi[c], v);
    }
  }

  math::TransitionEntropy te;
  std::set<std::string> states;
  for (std::size_t r = 0; r < frame.rows(); ++r) {
    std::string symbol;
    for (std::size_t c = 0; c < frame.cols(); ++c) {
      const double v = frame.at(r, c);
      std::size_t level = 0;
      if (!std::isnan(v) && hi[c] > lo[c]) {
        level = static_cast<std::size_t>((v - lo[c]) / (hi[c] - lo[c]) *
                                         static_cast<double>(levels));
        level = std::min(level, levels - 1);
      }
      symbol += static_cast<char>('a' + level);
    }
    states.insert(symbol);
    te.observe(symbol);
  }
  report.entropy_bits = te.entropy();
  report.distinct_states = states.size();
  report.transitions = te.transition_count();
  return report;
}

RooflinePoint roofline(double peak_gflops, double peak_bw_gbs,
                       double achieved_gflops, double bytes_per_flop) {
  ODA_CELL_SCOPE("kpi.roofline");
  ODA_REQUIRE(peak_gflops > 0.0 && peak_bw_gbs > 0.0, "roofline ceilings must be positive");
  ODA_REQUIRE(bytes_per_flop > 0.0, "bytes_per_flop must be positive");
  RooflinePoint p;
  p.arithmetic_intensity = 1.0 / bytes_per_flop;
  p.attainable_gflops =
      std::min(peak_gflops, p.arithmetic_intensity * peak_bw_gbs);
  p.achieved_gflops = achieved_gflops;
  p.memory_bound = p.arithmetic_intensity * peak_bw_gbs < peak_gflops;
  p.efficiency = p.attainable_gflops > 0.0 ? achieved_gflops / p.attainable_gflops : 0.0;
  return p;
}

}  // namespace oda::analytics
