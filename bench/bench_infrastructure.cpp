// Experiment E1 (DESIGN.md): the building-infrastructure column of Table I
// exercised end-to-end on the simulated facility —
//   descriptive : interval PUE/ERE and the facility dashboard;
//   diagnostic  : pump-degradation + chiller-fouling detection scored
//                 against injected ground truth;
//   predictive  : cooling-power forecasting backtest;
//   prescriptive: supply-setpoint sweep vs the online optimizer.
#include <cstdio>
#include <memory>

#include "analytics/descriptive/dashboard.hpp"
#include "analytics/descriptive/kpi.hpp"
#include "analytics/diagnostic/anomaly.hpp"
#include "analytics/diagnostic/stress_test.hpp"
#include "analytics/predictive/backtest.hpp"
#include "analytics/prescriptive/controller.hpp"
#include "analytics/prescriptive/cooling.hpp"
#include "common/table.hpp"
#include "common/string_util.hpp"
#include "sim/cluster.hpp"
#include "telemetry/collector.hpp"

#include "bench_util.hpp"

namespace {

using namespace oda;

sim::ClusterParams base_params() {
  sim::ClusterParams params;
  params.seed = 7;
  params.dt = 30;
  // Below saturation: utilization (and with it power, cooling demand, PUE)
  // follows the diurnal submission cycle, which is the structure the
  // descriptive and predictive sections exercise.
  params.workload.peak_arrival_rate_per_hour = 5.0;
  params.workload.seed = 7;
  return params;
}

struct Run {
  std::unique_ptr<sim::ClusterSimulation> cluster;
  std::unique_ptr<telemetry::TimeSeriesStore> store;
  std::unique_ptr<telemetry::Collector> collector;

  explicit Run(const sim::ClusterParams& params) {
    cluster = std::make_unique<sim::ClusterSimulation>(params);
    store = std::make_unique<telemetry::TimeSeriesStore>(1 << 17);
    collector =
        std::make_unique<telemetry::Collector>(*cluster, store.get(), nullptr);
    collector->add_all_sensors(60);
  }
  void advance(Duration d, analytics::ControlLoop* loop = nullptr) {
    const TimePoint end = cluster->now() + d;
    while (cluster->now() < end) {
      cluster->step();
      collector->collect();
      if (loop) loop->tick();
    }
  }
};

void descriptive_section() {
  std::printf("=== E1.descriptive: facility KPIs over three simulated days ===\n");
  Run run(base_params());
  run.advance(3 * kDay);
  TextTable table({"day", "PUE", "facility kWh", "IT kWh", "cooling kWh"});
  for (std::size_t c = 1; c <= 4; ++c) table.set_align(c, Align::kRight);
  for (int day = 0; day < 3; ++day) {
    const auto pue =
        analytics::compute_pue(*run.store, day * kDay, (day + 1) * kDay);
    table.add_row({std::to_string(day), format_double(pue.pue, 3),
                   format_double(pue.facility_energy_kwh, 1),
                   format_double(pue.it_energy_kwh, 1),
                   format_double(pue.cooling_energy_kwh, 1)});
  }
  std::printf("%s", table.render().c_str());
  const auto pue = analytics::compute_pue(*run.store, 0, run.cluster->now());
  std::printf("ERE at 30%% heat reuse: %.3f (vs PUE %.3f)\n\n",
              analytics::compute_ere(pue, 0.3), pue.pue);
  std::printf("%s\n",
              analytics::facility_dashboard(*run.store, 2 * kDay, 3 * kDay).c_str());
}

void diagnostic_section() {
  std::printf("=== E1.diagnostic: infrastructure fault detection ===\n");
  // Streaming MAD detectors on pump power and chiller COP; faults injected
  // with known windows let us score the alarms.
  auto params = base_params();
  params.weather.mean_temp_c = 27.0;  // chiller active so fouling is visible
  Run run(params);
  run.advance(12 * kHour);  // healthy baseline
  const TimePoint fault_start = run.cluster->now() + 6 * kHour;
  const TimePoint fault_end = fault_start + 12 * kHour;
  run.cluster->faults().schedule(
      {sim::FaultKind::kPumpDegradation, "facility", fault_start, fault_end, 1.6});
  run.advance(30 * kHour);

  const auto slice = run.store->query("facility/pump_power", 0, run.cluster->now());
  analytics::EwmaDetector detector(0.05, 5.0);
  std::vector<double> scores;
  std::vector<bool> truth;
  for (std::size_t i = 0; i < slice.size(); ++i) {
    detector.observe(slice.values[i]);
    if (slice.times[i] < 6 * kHour) continue;  // warm-up
    scores.push_back(detector.score());
    truth.push_back(slice.times[i] >= fault_start && slice.times[i] < fault_end);
  }
  std::vector<bool> predicted;
  predicted.reserve(scores.size());
  for (double s : scores) predicted.push_back(s >= 1.0);
  const auto metrics = analytics::score_detection(predicted, truth);
  std::printf("pump-degradation via EWMA chart on facility/pump_power:\n");
  std::printf("  AUC=%.3f precision=%.2f recall=%.2f f1=%.2f\n\n",
              analytics::roc_auc(scores, truth), metrics.precision(),
              metrics.recall(), metrics.f1());

  // Active stress testing [39]: the same degradation found by perturbing
  // the plant and timing its response, rather than waiting for passive
  // telemetry to accumulate evidence.
  const auto stress_on = [&](double degradation) {
    auto p = base_params();
    p.workload.peak_arrival_rate_per_hour = 0.0;
    auto c = std::make_unique<sim::ClusterSimulation>(p);
    c->set_workload_enabled(false);
    if (degradation > 1.0) {
      c->faults().schedule({sim::FaultKind::kPumpDegradation, "facility", 0,
                            100 * kDay, degradation});
    }
    return c;
  };
  auto healthy_plant = stress_on(1.0);
  const auto baseline =
      analytics::run_cooling_stress_test(*healthy_plant, 0.0);
  auto degraded_plant = stress_on(1.7);
  const auto verdict = analytics::run_cooling_stress_test(
      *degraded_plant, baseline.time_constant_s);
  std::printf("active stress test (setpoint step, fitted loop tau):\n");
  std::printf("  healthy tau=%.0f s (fit rmse %.2f C); degraded plant "
              "tau=%.0f s -> slowdown x%.2f, degraded=%s\n\n",
              baseline.time_constant_s, baseline.residual_rmse_c,
              verdict.time_constant_s, verdict.slowdown_factor,
              verdict.degraded ? "YES" : "no");
}

void predictive_section() {
  std::printf("=== E1.predictive: cooling-power forecasting backtest ===\n");
  // Warm climate: cooling runs on the chiller, so cooling power carries the
  // compounded diurnal structure of IT load and outdoor wet-bulb (in a
  // free-cooled cold climate the cooling power is a flat tower-fan trickle
  // with nothing to forecast).
  auto params = base_params();
  params.weather.mean_temp_c = 27.0;
  params.weather.seasonal_amplitude = 2.0;
  Run run(params);
  run.advance(7 * kDay);
  const auto series =
      run.store->query_aggregated("facility/cooling_power", 0,
                                  run.cluster->now(), 15 * kMinute,
                                  telemetry::Aggregation::kMean);
  // Two horizons: at 2 h ahead a flat forecast from the origin is hard to
  // beat (the diurnal phase barely moves); at 12 h ahead the origin sits on
  // the opposite phase and only the seasonal models survive.
  for (const auto& [label, horizon] :
       std::vector<std::pair<const char*, std::size_t>>{{"2 h ahead", 8},
                                                        {"12 h ahead", 48}}) {
    analytics::BacktestParams bp;
    bp.min_train = 96 * 4;  // four days
    bp.horizon = horizon;
    bp.stride = 16;
    TextTable table({"model", "MAE [W]", "RMSE [W]", "skill vs persistence"});
    table.set_title(label);
    for (std::size_t c = 1; c <= 3; ++c) table.set_align(c, Align::kRight);
    for (const auto& r : analytics::backtest_all(
             analytics::standard_forecaster_specs(96), series.values, bp)) {
      table.add_row({r.model, format_double(r.mae, 0), format_double(r.rmse, 0),
                     format_double(r.skill_vs_persistence, 3)});
    }
    std::printf("%s\n", table.render().c_str());
  }
  std::printf("finding: on a 64-node machine the cooling-power series is "
              "dominated by persistent per-job noise (one job is several %% "
              "of load), so the flat persistence forecast is unbeaten — "
              "seasonal models pay for structure the signal lacks.\n\n");

  // The weather-driven side of cooling demand is where seasonal forecasting
  // earns its keep ([37],[46]): the wet-bulb temperature that sets chiller
  // COP and free-cooling feasibility.
  const auto wb = run.store->query_aggregated(
      "weather/wetbulb_temp", 0, run.cluster->now(), 15 * kMinute,
      telemetry::Aggregation::kMean);
  analytics::BacktestParams bp;
  bp.min_train = 96 * 4;
  bp.horizon = 48;  // 12 h ahead
  bp.stride = 16;
  TextTable table({"model", "MAE [degC]", "skill vs persistence"});
  table.set_title("outdoor wet-bulb (the cooling-demand driver), 12 h ahead");
  table.set_align(1, Align::kRight);
  table.set_align(2, Align::kRight);
  for (const auto& r : analytics::backtest_all(
           {"persistence", "ses", "ar", "holt-winters:96"}, wb.values, bp)) {
    table.add_row({r.model, format_double(r.mae, 2),
                   format_double(r.skill_vs_persistence, 3)});
  }
  std::printf("%s\n", table.render().c_str());
}

void prescriptive_section() {
  std::printf("=== E1.prescriptive: supply-setpoint sweep vs online optimizer ===\n");
  std::printf("(warm climate, 26 C mean: low setpoints need the chiller, high "
              "setpoints cost node leakage/fan power -> interior optimum.\n"
              " Commissioning-style steady load: on live workloads the "
              "setpoint signal, ~0.2%%/K, is buried under day-to-day job-mix "
              "variance of several %% — sites therefore tune during "
              "controlled burn-in runs, which is what we reproduce.)\n");
  TextTable table({"policy", "setpoint [C]", "facility energy [kWh]",
                   "PUE", "max CPU temp [C]"});
  for (std::size_t c = 1; c <= 4; ++c) table.set_align(c, Align::kRight);

  const auto warm_params = [] {
    auto params = base_params();
    // Held-constant warm weather: a probing optimizer compares power
    // between adjacent windows, so outdoor variability (chiller COP moves
    // ~300 W over a day, twice the per-move setpoint signal) must be
    // controlled for — commissioning experiments do exactly this by
    // comparing like-for-like outdoor conditions.
    params.weather.mean_temp_c = 26.0;
    params.weather.seasonal_amplitude = 0.0;
    params.weather.diurnal_amplitude = 0.0;
    params.weather.front_stddev = 0.0;
    params.workload.peak_arrival_rate_per_hour = 0.0;
    return params;
  };
  const auto apply_steady_load = [](Run& run) {
    run.cluster->set_workload_enabled(false);
    for (std::size_t i = 0; i < run.cluster->node_count(); ++i) {
      sim::JobSpec spec;
      spec.id = 7000 + i;
      spec.user = "burnin";
      spec.nodes_requested = 1;
      sim::JobPhase phase;
      phase.nominal_duration = 400 * kHour;
      phase.cpu_util = 0.9;
      phase.mem_bw_util = 0.3;
      phase.mem_boundedness = 0.2;
      spec.phases = {phase};
      spec.walltime_requested = 800 * kHour;
      run.cluster->scheduler().submit(spec);
    }
  };

  const auto run_fixed = [&](double setpoint) {
    auto params = warm_params();
    params.facility.supply_setpoint_c = setpoint;
    Run run(params);
    apply_steady_load(run);
    run.advance(36 * kHour);
    double max_temp = 0.0;
    for (std::size_t i = 0; i < run.cluster->node_count(); ++i) {
      max_temp = std::max(max_temp, run.cluster->node(i).cpu_temp_c());
    }
    // Score the settled half of the run.
    const auto pue =
        analytics::compute_pue(*run.store, 18 * kHour, 36 * kHour);
    table.add_row({"fixed", format_double(setpoint, 1),
                   format_double(pue.facility_energy_kwh, 1),
                   format_double(pue.pue, 3), format_double(max_temp, 1)});
    return pue.facility_energy_kwh;
  };

  double best_fixed = 1e18;
  for (double sp : {20.0, 25.0, 30.0, 35.0, 40.0}) {
    best_fixed = std::min(best_fixed, run_fixed(sp));
  }

  // The online optimizer starting from a poor (cold) setpoint.
  auto params = warm_params();
  params.facility.supply_setpoint_c = 20.0;
  Run run(params);
  apply_steady_load(run);
  analytics::ControlLoop loop(*run.cluster, *run.store);
  analytics::CoolingSetpointOptimizer::Params op;
  op.period = 2 * kHour;
  loop.add(std::make_shared<analytics::CoolingSetpointOptimizer>(op));
  run.advance(4 * kDay, &loop);
  // Compare on the same footing: an 18-hour settled window.
  const auto pue = analytics::compute_pue(
      *run.store, run.cluster->now() - 18 * kHour, run.cluster->now());
  table.add_row({"optimizer, settled (from 20 C)",
                 format_double(run.cluster->knobs().get("facility/supply_setpoint"), 1),
                 format_double(pue.facility_energy_kwh, 1),
                 format_double(pue.pue, 3), "-"});
  std::printf("%s", table.render().c_str());
  std::printf("best fixed setpoint energy: %.1f kWh per 18 h window; the "
              "optimizer walks from 20 C toward the interior optimum and its "
              "settled window should approach that figure.\n",
              best_fixed);
}

}  // namespace

int main(int argc, char** argv) {
  oda::bench::BenchReport oda_report("bench_infrastructure", argc, argv);
  descriptive_section();
  diagnostic_section();
  predictive_section();
  prescriptive_section();
  return 0;
}
