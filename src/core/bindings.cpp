#include "core/bindings.hpp"

#include <cstdint>
#include <map>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"

namespace oda::core {

FrameworkGrid implemented_capabilities() {
  using P = Pillar;
  using T = AnalyticsType;
  FrameworkGrid grid;
  const auto add = [&grid](const char* id, const char* name, const char* desc,
                           std::vector<GridCell> cells,
                           std::vector<std::string> inputs,
                           std::vector<std::string> outputs,
                           std::vector<std::string> knobs = {}) {
    CapabilityDescriptor d;
    d.id = id;
    d.name = name;
    d.description = desc;
    d.cells = std::move(cells);
    d.inputs = std::move(inputs);
    d.outputs = std::move(outputs);
    d.knobs = std::move(knobs);
    grid.register_capability(std::move(d));
  };

  // ---- Descriptive ----------------------------------------------------------
  add("kpi.pue", "PUE calculation [analytics/descriptive/kpi]",
      "Interval Power Usage Effectiveness from facility power sensors.",
      {{P::kBuildingInfrastructure, T::kDescriptive}},
      {"facility/total_power", "cluster/it_power"}, {"PueReport"});
  add("dash.facility", "Facility dashboard [analytics/descriptive/dashboard]",
      "Power/cooling/weather trends with sparklines and interval KPIs.",
      {{P::kBuildingInfrastructure, T::kDescriptive}},
      {"facility/*", "weather/*"}, {"text dashboard"});
  add("kpi.itue", "ITUE/TUE calculation [analytics/descriptive/kpi]",
      "IT-internal overhead efficiency from node fan/power telemetry.",
      {{P::kSystemHardware, T::kDescriptive}},
      {"rack*/node*/fan_speed", "cluster/it_power"}, {"ItueReport"});
  add("kpi.sie", "System Information Entropy [analytics/descriptive/kpi]",
      "Transition entropy over discretized system state (LogSCAN-style).",
      {{P::kSystemHardware, T::kDescriptive}},
      {"configurable sensor set"}, {"SieReport"});
  add("dash.system", "System dashboard [analytics/descriptive/dashboard]",
      "Per-rack quantile transport of node power/temperature/utilization.",
      {{P::kSystemHardware, T::kDescriptive}},
      {"rack*/node*/*"}, {"text dashboard"});
  add("kpi.slowdown", "Slowdown calculation [analytics/descriptive/kpi]",
      "Mean/bounded slowdown and wait statistics from job records.",
      {{P::kSystemSoftware, T::kDescriptive}},
      {"scheduler job records"}, {"SlowdownReport"});
  add("dash.scheduler", "Scheduler dashboard [analytics/descriptive/dashboard]",
      "Queue/utilization trends plus job outcome accounting.",
      {{P::kSystemSoftware, T::kDescriptive}},
      {"scheduler/*", "job records"}, {"text dashboard"});
  add("kpi.roofline", "Roofline model [analytics/descriptive/kpi]",
      "Operating point of a kernel against compute/bandwidth ceilings.",
      {{P::kApplications, T::kDescriptive}},
      {"kernel flops/bytes"}, {"RooflinePoint"});
  add("dash.jobs", "Job dashboard [analytics/descriptive/dashboard]",
      "Per-job runtime/wait/energy table over completed jobs.",
      {{P::kApplications, T::kDescriptive}},
      {"job records"}, {"text dashboard"});

  // ---- Diagnostic -----------------------------------------------------------
  add("diag.infra", "Infrastructure anomaly detection [analytics/diagnostic/anomaly]",
      "Streaming detectors (z-score/MAD/EWMA/stuck) on pump, loop and plant "
      "sensors.",
      {{P::kBuildingInfrastructure, T::kDiagnostic}},
      {"facility/*"}, {"anomaly scores", "alerts"});
  add("diag.stress", "Infrastructure stress testing [analytics/diagnostic/stress_test]",
      "Active perturb-observe protocol: step the supply setpoint, fit the "
      "loop's response time constant, flag degradation vs baseline.",
      {{P::kBuildingInfrastructure, T::kDiagnostic}},
      {"facility/supply_temp"}, {"StressTestResult"},
      {"facility/supply_setpoint"});
  add("diag.node", "Node anomaly monitor [analytics/diagnostic/anomaly]",
      "Isolation-forest and PCA reconstruction scoring of per-node window "
      "features.",
      {{P::kSystemHardware, T::kDiagnostic}},
      {"rack*/node*/*"}, {"per-node verdicts"});
  add("diag.noise", "OS noise analysis [analytics/diagnostic/software]",
      "FWQ trace analysis: noise fraction and dominant interference period.",
      {{P::kSystemSoftware, T::kDiagnostic}},
      {"FWQ benchmark trace"}, {"NoiseReport"});
  add("diag.appfp", "Application fingerprinting [analytics/diagnostic/fingerprint]",
      "Random-forest classification of job telemetry signatures "
      "(crypto-miner detection).",
      {{P::kApplications, T::kDiagnostic}},
      {"rack*/node*/{cpu,mem,net,io}*", "job records"}, {"class label"});
  add("diag.bound", "Boundedness classification [analytics/diagnostic/software]",
      "Compute/memory/network/IO-bound labeling of running jobs.",
      {{P::kApplications, T::kDiagnostic}},
      {"rack*/node*/*_util"}, {"Boundedness"});

  // ---- Predictive -----------------------------------------------------------
  add("pred.kpi", "Facility KPI forecasting [analytics/predictive/forecaster]",
      "Holt-Winters/AR forecasting of PUE and facility power with rolling "
      "backtests.",
      {{P::kBuildingInfrastructure, T::kPredictive}},
      {"facility/pue", "facility/total_power"}, {"forecast paths"});
  add("pred.spectral", "Spectral power forecasting [analytics/predictive/spectral]",
      "FFT decomposition + extrapolation with the 750 kW/15 min utility "
      "notification rule (LLNL use case).",
      {{P::kBuildingInfrastructure, T::kPredictive},
       {P::kBuildingInfrastructure, T::kDescriptive}},
      {"facility/total_power"}, {"PowerSwingEvent list"});
  add("pred.sensors", "Hardware sensor forecasting [analytics/predictive/forecaster]",
      "Per-sensor forecaster suite with skill-vs-persistence scoring.",
      {{P::kSystemHardware, T::kPredictive}},
      {"rack*/node*/power", "rack*/node*/cpu_temp"}, {"forecast paths"});
  add("pred.failure", "Failure prediction [analytics/predictive/failure]",
      "Degradation extrapolation + Weibull hazard estimation.",
      {{P::kSystemHardware, T::kPredictive}},
      {"degradation signals", "failure history"}, {"FailureProjection"});
  add("pred.whatif", "Scheduler what-if simulation [analytics/predictive/whatif]",
      "Policy replay of job traces (FCFS vs EASY) without cluster physics.",
      {{P::kSystemSoftware, T::kPredictive}},
      {"job trace"}, {"WhatIfResult"});
  add("pred.workload", "Workload forecasting [analytics/predictive/workload_forecast]",
      "Hourly arrival forecasting with daily-profile seasonality.",
      {{P::kSystemSoftware, T::kPredictive}},
      {"submit times"}, {"arrival forecast"});
  add("pred.runtime", "Job runtime prediction [analytics/predictive/jobs]",
      "Per-user history + kNN estimation capped by the walltime request.",
      {{P::kApplications, T::kPredictive}},
      {"job records", "submission features"}, {"runtime estimate"});

  // ---- Prescriptive ---------------------------------------------------------
  add("presc.setpoint", "Cooling set-point optimizer [analytics/prescriptive/cooling]",
      "Online hill climbing of the supply-water temperature against "
      "measured facility power.",
      {{P::kBuildingInfrastructure, T::kPrescriptive}},
      {"facility/total_power", "rack*/node*/cpu_temp"},
      {"setpoint moves"}, {"facility/supply_setpoint"});
  add("presc.coolmode", "Cooling mode switcher [analytics/prescriptive/cooling]",
      "Chiller vs free-cooling selection; proactive variant uses wet-bulb "
      "forecasts.",
      {{P::kBuildingInfrastructure, T::kPrescriptive}},
      {"weather/wetbulb_temp"}, {"mode switches"}, {"facility/cooling_mode"});
  add("presc.response", "Anomaly response policy [analytics/prescriptive/response]",
      "Diagnosis-to-action mapping (recommend or automatic) with audit log.",
      {{P::kBuildingInfrastructure, T::kPrescriptive}},
      {"diagnoses"}, {"ResponseAction log"},
      {"facility/pump_speed", "facility/supply_setpoint"});
  add("presc.dvfs", "DVFS governor [analytics/prescriptive/dvfs]",
      "Energy and thermal-cap frequency control; proactive variant acts on "
      "temperature forecasts.",
      {{P::kSystemHardware, T::kPrescriptive}},
      {"rack*/node*/{cpu,mem}*", "rack*/node*/cpu_temp"},
      {"frequency moves"}, {"rack*/node*/freq_setpoint"});
  add("presc.powercap", "Power-cap governor [analytics/prescriptive/powercap]",
      "Fleet-wide frequency shedding under a facility power cap; plan-based "
      "variant pre-sheds on forecasts.",
      {{P::kSystemHardware, T::kPrescriptive},
       {P::kSystemSoftware, T::kPrescriptive}},
      {"facility/total_power", "rack*/node*/power"},
      {"frequency moves"}, {"rack*/node*/freq_setpoint"});
  add("presc.placement", "Thermal-aware placement [analytics/prescriptive/placement]",
      "Scheduler placement policy spreading load across cool racks "
      "(multi-pillar: software decision, infrastructure benefit).",
      {{P::kSystemSoftware, T::kPrescriptive},
       {P::kBuildingInfrastructure, T::kPrescriptive}},
      {"rack power", "free-node map"}, {"node assignments"});
  add("presc.recommend", "Code improvement recommendations [analytics/prescriptive/recommend]",
      "Telemetry-profile rule base turning boundedness/imbalance/sizing "
      "findings into prioritized developer advice.",
      {{P::kApplications, T::kPrescriptive}},
      {"rack*/node*/*_util", "job records"}, {"Recommendation list"});
  add("presc.autotune", "Application auto-tuner [analytics/prescriptive/autotune]",
      "Grid/random/Nelder-Mead/annealing search over tunable app parameters.",
      {{P::kApplications, T::kPrescriptive}},
      {"app evaluation callback"}, {"TuneResult"});

  return grid;
}

CoverageReport verify_full_coverage(const FrameworkGrid& grid) {
  const auto report = grid.coverage();
  ODA_REQUIRE(report.gaps.empty(),
              "framework grid has uncovered cells — the library no longer "
              "realizes the full 4x4 framework");
  return report;
}

std::string render_cell_costs(const obs::MetricsSnapshot& snapshot) {
  const FrameworkGrid catalog = implemented_capabilities();
  struct Cost {
    std::uint64_t runs = 0;
    double seconds = 0.0;
  };
  std::map<GridCell, Cost> costs;
  if (const obs::MetricFamily* fam =
          snapshot.find("oda_analytics_run_seconds")) {
    for (const auto& h : fam->histograms) {
      for (const auto& [key, id] : h.labels) {
        if (key != "capability" || !catalog.contains(id)) continue;
        Cost& cost = costs[catalog.at(id).cells.front()];
        cost.runs += h.count;
        cost.seconds += h.sum;
      }
    }
  }

  std::vector<std::string> header{"analytics type"};
  for (const Pillar pillar : kAllPillars) header.emplace_back(to_string(pillar));
  TextTable table(std::move(header));
  table.set_title("ANALYTICS COST PER GRID CELL (runs @ mean ms)");
  for (const AnalyticsType type : kAllTypes) {
    std::vector<std::string> row{to_string(type)};
    for (const Pillar pillar : kAllPillars) {
      const auto it = costs.find({pillar, type});
      if (it == costs.end() || it->second.runs == 0) {
        row.emplace_back("-");
      } else {
        const double mean_ms =
            it->second.seconds / static_cast<double>(it->second.runs) * 1e3;
        row.push_back(std::to_string(it->second.runs) + " @ " +
                      format_double(mean_ms, 2));
      }
    }
    table.add_row(std::move(row));
  }
  return table.render();
}

}  // namespace oda::core
