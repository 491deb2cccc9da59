// Experiment E5 (DESIGN.md): the paper's Sec. V-A multi-type claim —
// augmenting a prescriptive controller with predictive capability turns it
// proactive and improves the KPI. Here: thermal-cap DVFS under a hot cooling
// loop, run three ways (uncontrolled / reactive / forecast-driven
// proactive), scored on thermal-limit violations, throttle events, work
// completed, and energy.
#include <cstdio>
#include <memory>

#include "analytics/prescriptive/controller.hpp"
#include "analytics/prescriptive/dvfs.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "sim/cluster.hpp"
#include "telemetry/collector.hpp"

#include "bench_util.hpp"

namespace {

using namespace oda;

struct Outcome {
  double limit_violation_hours = 0.0;  // node-hours above the thermal limit
  double throttle_hours = 0.0;         // node-hours spent hardware-throttled
  double work_done_s = 0.0;            // total nominal seconds completed
  double it_energy_kwh = 0.0;
  std::size_t actuations = 0;
};

Outcome run_case(int mode /*0=none,1=reactive,2=proactive*/) {
  sim::ClusterParams params;
  params.racks = 2;
  params.nodes_per_rack = 8;
  params.seed = 61;
  params.facility.supply_setpoint_c = 42.0;  // hot loop: thermal stress is real
  params.node.fan_target_temp_c = 88.0;      // lazy fans
  // A daily heat wave through the rack inlets via the weather-coupled plant.
  params.weather.mean_temp_c = 24.0;
  params.weather.diurnal_amplitude = 7.0;

  sim::ClusterSimulation cluster(params);
  cluster.set_workload_enabled(false);
  Rng job_rng(1234);
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    sim::JobSpec spec;
    spec.id = 100 + i;
    spec.user = "steady";
    spec.nodes_requested = 1;
    sim::JobPhase phase;
    phase.nominal_duration = 400 * kHour;
    phase.cpu_util = 1.0;
    phase.mem_bw_util = 0.35;
    phase.mem_boundedness = 0.15;
    spec.phases = {phase};
    spec.walltime_requested = 800 * kHour;
    cluster.scheduler().submit(spec);
  }

  telemetry::TimeSeriesStore store(1 << 17);
  telemetry::Collector collector(cluster, &store, nullptr);
  collector.add_all_sensors(60);
  analytics::ControlLoop loop(cluster, store);
  const double temp_limit = 84.0;
  if (mode > 0) {
    analytics::DvfsGovernor::Params gp;
    gp.mode = mode == 1 ? analytics::DvfsGovernor::Mode::kThermalReactive
                        : analytics::DvfsGovernor::Mode::kThermalProactive;
    gp.temp_limit_c = temp_limit;
    gp.temp_headroom_c = 2.0;
    gp.forecast_lead = 10 * kMinute;
    gp.period = 2 * kMinute;
    loop.add(std::make_shared<analytics::DvfsGovernor>(gp));
  }

  Outcome outcome;
  const Duration dt = params.dt;
  while (cluster.now() < 2 * kDay) {
    cluster.step();
    collector.collect();
    loop.tick();
    for (std::size_t i = 0; i < cluster.node_count(); ++i) {
      if (cluster.node(i).cpu_temp_c() > temp_limit) {
        outcome.limit_violation_hours += static_cast<double>(dt) / 3600.0;
      }
      if (cluster.node(i).throttled()) {
        outcome.throttle_hours += static_cast<double>(dt) / 3600.0;
      }
    }
  }
  for (const auto& job : cluster.scheduler().running()) {
    outcome.work_done_s += job.progress_s;
  }
  for (const auto& job : cluster.scheduler().completed()) {
    outcome.work_done_s += static_cast<double>(job.spec.nominal_duration());
  }
  outcome.it_energy_kwh = cluster.it_energy_j() / units::kJoulesPerKilowattHour;
  outcome.actuations = loop.actuation_count();
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  oda::bench::BenchReport oda_report("bench_multitype", argc, argv);
  std::printf("=== E5: reactive vs proactive thermal-cap DVFS (Sec. V-A) ===\n");
  std::printf("setup: 16 nodes at full load on a 42 C loop, 84 C thermal "
              "limit, 2 simulated days\n\n");
  TextTable table({"policy", "limit-violation node-h", "hw-throttle node-h",
                   "work done [kh]", "IT energy [kWh]", "actuations"});
  for (std::size_t c = 1; c <= 5; ++c) table.set_align(c, Align::kRight);

  const Outcome none = run_case(0);
  const Outcome reactive = run_case(1);
  const Outcome proactive = run_case(2);
  const auto row = [&](const char* name, const Outcome& o) {
    table.add_row({name, format_double(o.limit_violation_hours, 2),
                   format_double(o.throttle_hours, 2),
                   format_double(o.work_done_s / 3600.0 / 1000.0, 2),
                   format_double(o.it_energy_kwh, 1),
                   std::to_string(o.actuations)});
  };
  row("uncontrolled", none);
  row("reactive governor", reactive);
  row("proactive governor", proactive);
  std::printf("%s", table.render().c_str());

  std::printf("\nexpected shape (paper's multi-type claim): the governors "
              "eliminate most violations relative to the uncontrolled run, "
              "and the proactive variant cuts the residual violations of the "
              "reactive one by acting before the limit is reached.\n");
  const bool governors_help =
      reactive.limit_violation_hours < none.limit_violation_hours * 0.5;
  const bool proactive_best =
      proactive.limit_violation_hours <= reactive.limit_violation_hours;
  std::printf("observed: governors-help=%s proactive<=reactive=%s\n",
              governors_help ? "yes" : "NO", proactive_best ? "yes" : "NO");
  return 0;
}
