// Descriptive aggregation pipelines: PerSyst-style [6] quantile transport
// (summarize thousands of node sensors into per-group quantile vectors) and
// IQR-based outlier removal — the "no complex knowledge extraction" data
// conditioning the descriptive row of the framework allows.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "telemetry/store.hpp"

namespace oda::telemetry {
class SensorHealthTracker;
}  // namespace oda::telemetry

namespace oda::analytics {

/// Quantile summary of one sensor group over an interval.
struct QuantileSummary {
  std::string group;
  std::size_t sensors = 0;
  std::size_t samples = 0;
  double q10 = 0.0, q25 = 0.0, q50 = 0.0, q75 = 0.0, q90 = 0.0;
  double min = 0.0, max = 0.0, mean = 0.0;
  /// Quality overlay (docs/RESILIENCE.md): sensors skipped because the
  /// health tracker quarantined them, and the usable fraction. Without a
  /// tracker: skipped == 0 and coverage == 1 (results unchanged).
  std::size_t skipped = 0;
  double coverage = 1.0;
};

/// Groups sensors by a path prefix of `depth` components ("rack00/node01/x"
/// at depth 1 groups by rack) and summarizes each group's pooled samples.
/// When `health` is given, quarantined series are excluded from the pooled
/// statistics and reported through skipped/coverage instead of silently
/// poisoning the quantiles; a null tracker is a strict no-op overlay.
std::vector<QuantileSummary> quantile_transport(
    const telemetry::TimeSeriesStore& store, const std::string& sensor_pattern,
    TimePoint from, TimePoint to, std::size_t group_depth,
    const telemetry::SensorHealthTracker* health = nullptr);

/// Removes IQR outliers: values outside [q1 - k*IQR, q3 + k*IQR].
// ODA-LINT-ALLOW(production-caller): only tests call it (ROADMAP item 12)
std::vector<double> remove_outliers_iqr(const std::vector<double>& values,
                                        double k = 1.5);

/// Per-sensor health snapshot used by dashboards: latest value plus how it
/// compares to the interval's distribution.
struct SensorSnapshot {
  std::string path;
  double latest = 0.0;
  double mean = 0.0;
  double p95 = 0.0;
  double zscore = 0.0;  // latest vs interval distribution
};
/// Quarantined sensors are omitted when `health` is given (strict overlay:
/// null tracker == previous behaviour).
// ODA-LINT-ALLOW(production-caller): only tests call it (ROADMAP item 12)
std::vector<SensorSnapshot> snapshot_sensors(
    const telemetry::TimeSeriesStore& store, const std::string& pattern,
    TimePoint from, TimePoint to,
    const telemetry::SensorHealthTracker* health = nullptr);

}  // namespace oda::analytics
