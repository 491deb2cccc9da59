#include "analytics/diagnostic/stress_test.hpp"

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "math/regression.hpp"

#include "obs/cell.hpp"

namespace oda::analytics {

double fit_time_constant(const std::vector<double>& t_s,
                         const std::vector<double>& y, double y0,
                         double y_inf) {
  ODA_REQUIRE(t_s.size() == y.size(), "stress-test sample size mismatch");
  ODA_REQUIRE(t_s.size() >= 4, "too few samples to fit a time constant");
  const double span = y0 - y_inf;
  ODA_REQUIRE(std::abs(span) > 1e-9, "degenerate step (no response span)");

  // Linearize: ln((y - y_inf)/span) = -t / tau; fit by least squares over
  // the samples still meaningfully away from the asymptote.
  std::vector<double> xs, zs;
  for (std::size_t i = 0; i < y.size(); ++i) {
    const double frac = (y[i] - y_inf) / span;
    if (frac < 0.02 || frac > 0.98) continue;  // asymptote / pre-step noise
    xs.push_back(t_s[i]);
    zs.push_back(std::log(frac));
  }
  ODA_REQUIRE(xs.size() >= 3, "step response left too few usable samples");
  double sx = 0.0, sz = 0.0, sxx = 0.0, sxz = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sz += zs[i];
    sxx += xs[i] * xs[i];
    sxz += xs[i] * zs[i];
  }
  const double n = static_cast<double>(xs.size());
  const double slope = (n * sxz - sx * sz) / std::max(n * sxx - sx * sx, 1e-12);
  ODA_REQUIRE(slope < 0.0, "response is not decaying toward the target");
  return -1.0 / slope;
}

StressTestResult run_cooling_stress_test(sim::ClusterSimulation& cluster,
                                         double baseline_tau_s,
                                         const StressTestParams& params) {
  ODA_CELL_SCOPE("diag.stress");
  ODA_REQUIRE(std::abs(params.step_k) >= 0.5, "step too small to measure");
  StressTestResult result;
  result.step_k = params.step_k;

  // Settle at the current operating point.
  cluster.run_for(params.settle);
  const double setpoint = cluster.knobs().get("facility/supply_setpoint");
  const double y0 = cluster.facility().supply_temp_c();

  // Perturb and record the response.
  cluster.knobs().set("facility/supply_setpoint", setpoint + params.step_k);
  const double target = cluster.knobs().get("facility/supply_setpoint");
  std::vector<double> t_s, y;
  const TimePoint start = cluster.now();
  while (cluster.now() - start < params.observe) {
    cluster.run_for(params.sample);
    t_s.push_back(static_cast<double>(cluster.now() - start));
    y.push_back(cluster.facility().supply_temp_c());
  }
  // Restore the original operating point before any analysis can throw.
  cluster.knobs().set("facility/supply_setpoint", setpoint);

  result.time_constant_s = fit_time_constant(t_s, y, y0, target);

  double sq = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    const double model =
        target + (y0 - target) * std::exp(-t_s[i] / result.time_constant_s);
    sq += (y[i] - model) * (y[i] - model);
  }
  result.residual_rmse_c = std::sqrt(sq / static_cast<double>(y.size()));
  result.completed = true;

  if (baseline_tau_s > 0.0) {
    result.slowdown_factor = result.time_constant_s / baseline_tau_s;
    result.degraded = result.slowdown_factor > params.threshold_factor;
  }
  return result;
}

}  // namespace oda::analytics
