// Quickstart: stand up the simulated data center, wire the monitoring
// pipeline, run one simulated day, and exercise one capability from every
// row of the ODA framework grid — descriptive KPIs, a diagnostic scan,
// a predictive backtest, and a prescriptive control loop.
//
//   ./quickstart [hours=24]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "analytics/descriptive/dashboard.hpp"
#include "analytics/descriptive/kpi.hpp"
#include "analytics/diagnostic/anomaly.hpp"
#include "analytics/predictive/backtest.hpp"
#include "analytics/prescriptive/controller.hpp"
#include "analytics/prescriptive/cooling.hpp"
#include "core/bindings.hpp"
#include "sim/cluster.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/store.hpp"

int main(int argc, char** argv) {
  using namespace oda;
  const Duration hours = argc > 1 ? std::atoll(argv[1]) : 24;

  // 1. The simulated facility: 4 racks x 16 nodes, diurnal workload.
  sim::ClusterParams params;
  params.seed = 42;
  params.workload.peak_arrival_rate_per_hour = 40.0;
  sim::ClusterSimulation cluster(params);

  // 2. Monitoring plane: collector -> time-series store.
  telemetry::TimeSeriesStore store(1 << 15);
  telemetry::Collector collector(cluster, &store, nullptr);
  collector.add_all_sensors(/*period=*/60);
  std::printf("sensors discovered: %zu\n", cluster.sensors().size());

  // 3. Prescriptive control plane: cooling set-point optimizer + mode
  //    switcher run against live telemetry.
  analytics::ControlLoop control(cluster, store);
  control.add(std::make_shared<analytics::CoolingSetpointOptimizer>());
  control.add(std::make_shared<analytics::CoolingModeSwitcher>());

  // 4. Run one simulated day.
  const TimePoint end = hours * kHour;
  while (cluster.now() < end) {
    cluster.step();
    collector.collect();
    control.tick();
  }

  // 5. Descriptive: facility dashboard + KPIs.
  std::printf("%s\n",
              analytics::facility_dashboard(store, 0, cluster.now()).c_str());
  const auto pue = analytics::compute_pue(store, 0, cluster.now());
  std::printf("interval PUE: %.3f  (facility %.1f kWh / IT %.1f kWh)\n\n",
              pue.pue, pue.facility_energy_kwh, pue.it_energy_kwh);

  // 6. Diagnostic: train the node anomaly monitor on the first half of the
  //    run and scan the current state (needs a few hours of history).
  if (hours >= 6) {
    std::vector<std::string> prefixes;
    for (std::size_t i = 0; i < cluster.node_count(); ++i) {
      prefixes.push_back(cluster.node(i).path());
    }
    Rng rng(7);
    analytics::NodeAnomalyMonitor monitor({}, prefixes);
    monitor.train(store, kHour, end / 2, rng);
    std::size_t anomalous = 0;
    for (const auto& verdict : monitor.scan(store, cluster.now())) {
      if (verdict.anomalous) ++anomalous;
    }
    std::printf("diagnostic scan: %zu/%zu nodes flagged anomalous (healthy run)\n\n",
                anomalous, cluster.node_count());
  } else {
    std::printf("diagnostic scan skipped: run at least 6 hours to train the "
                "anomaly monitor\n\n");
  }

  // 7. Predictive: backtest forecasters on the facility power series.
  const auto power =
      store.query_aggregated("facility/total_power", 0, cluster.now(),
                             15 * kMinute, telemetry::Aggregation::kMean);
  if (power.values.size() >= 90) {
    analytics::BacktestParams bp;
    bp.min_train = power.values.size() / 2;
    std::printf("forecaster backtest on facility power (MAE in W):\n");
    for (const auto& r : analytics::backtest_all(
             {"persistence", "ses", "holt", "ar"}, power.values, bp)) {
      std::printf("  %-14s mae=%.0f  skill-vs-persistence=%+.2f\n",
                  r.model.c_str(), r.mae, r.skill_vs_persistence);
    }
  }

  // 8. The framework itself: confirm the library covers all 16 cells.
  const auto grid = core::implemented_capabilities();
  const auto coverage = core::verify_full_coverage(grid);
  std::printf("\nframework coverage: %zu capabilities across %zu/16 cells\n",
              coverage.total_capabilities, coverage.occupied_cells);
  std::printf("prescriptive actuations performed: %zu\n",
              control.actuation_count());
  std::printf("completed jobs: %zu\n", cluster.scheduler().completed().size());
  return 0;
}
