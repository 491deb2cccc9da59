// The PowerStack-style composition from the paper's Sec. V-B / Figure 3
// (Wu et al. [41]): *multi-pillar* power management — a facility-level power
// cap enforced through system-hardware DVFS, with a predictive (plan-based)
// variant that pre-sheds frequency on a facility-power forecast, plus
// energy-mode DVFS for memory-bound phases. Prints a cap-compliance
// comparison: uncapped vs reactive cap vs plan-based cap.
//
//   ./powerstack [cap_fraction=0.85]
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "analytics/descriptive/kpi.hpp"
#include "analytics/prescriptive/controller.hpp"
#include "analytics/prescriptive/dvfs.hpp"
#include "analytics/prescriptive/powercap.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "sim/cluster.hpp"
#include "telemetry/collector.hpp"

namespace {

using namespace oda;

struct Outcome {
  double over_cap_minutes = 0.0;
  double worst_overshoot_w = 0.0;
  double it_kwh = 0.0;
  double work_done_kh = 0.0;
  std::size_t actuations = 0;
};

Outcome run_case(double cap_w, int mode /*0=none,1=reactive,2=plan-based*/) {
  sim::ClusterParams params;
  params.seed = 77;
  params.workload.seed = 77;
  // Below saturation: facility power ramps with the diurnal submission
  // cycle, so the cap binds during the daily peak — the regime where the
  // plan-based governor's forecast can act *before* the ramp arrives.
  params.workload.peak_arrival_rate_per_hour = 6.0;
  params.workload.max_duration = 3 * kHour;
  sim::ClusterSimulation cluster(params);
  telemetry::TimeSeriesStore store(1 << 16);
  telemetry::Collector collector(cluster, &store, nullptr);
  collector.add_all_sensors(60);
  analytics::ControlLoop loop(cluster, store);
  if (mode > 0) {
    analytics::PowerCapGovernor::Params pp;
    pp.cap_w = cap_w;
    // A deliberately slow control period (production power managers often
    // act on multi-minute telemetry aggregates): the reactive governor then
    // trails fast load ramps, which is precisely the gap the plan-based
    // (forecast) variant closes by shedding ahead of the ramp.
    pp.period = 10 * kMinute;
    pp.forecast_lead = 20 * kMinute;
    pp.plan_based = mode == 2;
    loop.add(std::make_shared<analytics::PowerCapGovernor>(pp));
    // The energy-mode DVFS governor rides along: memory-bound phases give
    // back watts the cap governor does not have to take from performance.
    analytics::DvfsGovernor::Params gp;
    gp.mode = analytics::DvfsGovernor::Mode::kEnergy;
    loop.add(std::make_shared<analytics::DvfsGovernor>(gp));
  }

  Outcome o;
  while (cluster.now() < 2 * kDay) {
    cluster.step();
    collector.collect();
    loop.tick();
    const double p = cluster.facility().facility_power_w();
    if (p > cap_w) {
      o.over_cap_minutes += static_cast<double>(params.dt) / 60.0;
      o.worst_overshoot_w = std::max(o.worst_overshoot_w, p - cap_w);
    }
  }
  o.it_kwh = cluster.it_energy_j() / units::kJoulesPerKilowattHour;
  for (const auto& job : cluster.scheduler().completed()) {
    o.work_done_kh += static_cast<double>(job.spec.nominal_duration()) *
                      static_cast<double>(job.spec.nodes_requested) / 3600.0 /
                      1000.0;
  }
  o.actuations = loop.actuation_count();
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const double cap_fraction = argc > 1 ? std::atof(argv[1]) : 0.92;

  // Establish the unconstrained peak to place the cap meaningfully.
  std::printf("PowerStack-style multi-pillar power management\n");
  std::printf("phase 1: measuring unconstrained facility power...\n");
  const Outcome free_run = run_case(1e12, 0);

  sim::ClusterParams probe_params;
  probe_params.seed = 77;
  probe_params.workload.seed = 77;
  probe_params.workload.peak_arrival_rate_per_hour = 6.0;
  probe_params.workload.max_duration = 3 * kHour;
  sim::ClusterSimulation probe(probe_params);
  double peak = 0.0;
  while (probe.now() < 2 * kDay) {
    probe.step();
    peak = std::max(peak, probe.facility().facility_power_w());
  }
  const double cap_w = peak * cap_fraction;
  std::printf("unconstrained peak: %.1f kW -> cap at %.0f%% = %.1f kW\n\n",
              peak / 1000.0, cap_fraction * 100.0, cap_w / 1000.0);

  const Outcome uncapped = run_case(cap_w, 0);
  const Outcome reactive = run_case(cap_w, 1);
  const Outcome planned = run_case(cap_w, 2);

  TextTable table({"policy", "minutes over cap", "worst overshoot [kW]",
                   "IT energy [kWh]", "work done [knode-h]", "actuations"});
  for (std::size_t c = 1; c <= 5; ++c) table.set_align(c, Align::kRight);
  const auto row = [&](const char* name, const Outcome& o) {
    table.add_row({name, format_double(o.over_cap_minutes, 1),
                   format_double(o.worst_overshoot_w / 1000.0, 2),
                   format_double(o.it_kwh, 1), format_double(o.work_done_kh, 2),
                   std::to_string(o.actuations)});
  };
  row("no governor", uncapped);
  row("reactive cap", reactive);
  row("plan-based cap (forecast)", planned);
  std::printf("%s", table.render().c_str());
  std::printf("\npillars crossed: building-infrastructure (the cap/meter) -> "
              "system-hardware (DVFS) -> system-software (the governor reads "
              "fleet state) -> applications (memory-bound phases downclocked "
              "first).\n");
  std::printf("\nreading the numbers: both governors hold the cap through the "
              "diurnal ramps; the residual over-cap minutes are instantaneous "
              "steps when a large job starts — foreseeable only with "
              "job-level power prediction (analytics/predictive/jobs), the "
              "next integration step a production PowerStack would take. "
              "E5 (bench_multitype) isolates the proactive-vs-reactive gap "
              "on a KPI where forecasts do bind.\n");
  (void)free_run;
  return 0;
}
