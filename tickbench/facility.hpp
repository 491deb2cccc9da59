// One simulated facility wired the way a deployment runs it: the cluster
// simulator, the collector (sensor reads, store insert, WAL append, bus
// fan-out), the 16 analytics cells of the ODA grid and the control loop.
// Facility::tick() is the benchmark's unit of account:
//
//   cluster.step() -> collector.collect() -> the cells due this tick
//                  -> control.tick()
//
// Every call into a layer is wrapped in a "bench.*" span from this file, so
// the program's own spans (sim.step, collector.*, store.*, bus.*, the cell
// spans) nest under one "bench.tick" root per tick.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analytics/diagnostic/anomaly.hpp"
#include "analytics/predictive/jobs.hpp"
#include "analytics/predictive/workload_forecast.hpp"
#include "analytics/prescriptive/controller.hpp"
#include "analytics/prescriptive/placement.hpp"
#include "common/thread_pool.hpp"
#include "sim/cluster.hpp"
#include "telemetry/alerts.hpp"
#include "telemetry/bus.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/health.hpp"
#include "telemetry/store.hpp"
#include "telemetry/wal.hpp"

namespace tickbench {

enum class Workload { kIngestSteady, kIngestFaulted, kAnalyticsHeavy };

/// Parses a --workload name; nullopt for an unknown one.
std::optional<Workload> parse_workload(const std::string& name);
const char* workload_name(Workload w);

/// Simulated seconds per tick, on every workload.
inline constexpr oda::Duration kDt = 15;

/// What a run fixes about the facility. The chaos campaign (ingest_faulted),
/// the simulated history and the every-tick cells (analytics_heavy) follow
/// from `workload`; the sizes are fields so that the self-test can shrink
/// them.
struct WorkloadConfig {
  Workload workload = Workload::kIngestSteady;
  std::uint64_t seed = 1;
  std::size_t racks = 16;
  std::size_t nodes_per_rack = 16;
  /// Ring capacity per sensor; below the tick count on the ingest
  /// workloads, so the rings wrap as in a long-running process.
  std::size_t store_capacity = 256;
  /// Ticks measured per episode (after set-up).
  std::size_t ticks = 600;
};

WorkloadConfig make_config(Workload w, std::uint64_t seed);

/// One fault-free sensor of the per-tick bit-equality check.
struct CheckedSensor {
  std::size_t def_index = 0;  // into cluster.sensors()
  oda::telemetry::SeriesId id;
  std::size_t group = 0;
};

class Facility {
 public:
  /// Builds and starts the whole pipeline; for analytics_heavy this also
  /// collects the simulated history and trains the anomaly monitor.
  /// `wal_dir` must not exist yet or be empty.
  Facility(const WorkloadConfig& cfg, oda::ThreadPool& pool,
           const std::string& wal_dir);
  ~Facility();
  Facility(const Facility&) = delete;
  Facility& operator=(const Facility&) = delete;

  /// Runs one tick. Returns its wall time in seconds, excluding the
  /// per-tick output check that runs between collect() and the cells
  /// (its CPU time is kept in check_cpu_s()).
  double tick();

  /// Per-tick bit-equality failures seen so far (check 1).
  std::uint64_t read_mismatches() const { return read_mismatches_; }
  std::uint64_t reads_checked() const { return reads_checked_; }

  /// Samples the benchmark expects from its own group config over every
  /// collect() so far (check 2).
  std::uint64_t expected_samples() const { return expected_samples_; }

  /// Sensors with an injected read fault (dropout or stall); only these
  /// may have gaps.
  const std::set<std::string>& read_faulted() const { return read_faulted_; }

  /// Times at which group g was due, in order (for the gap check).
  const std::vector<oda::TimePoint>& due_times(std::size_t g) const {
    return due_times_[g];
  }
  /// Paths each collector group matched, by the benchmark's own glob.
  const std::vector<std::vector<std::string>>& group_paths() const {
    return group_paths_;
  }

  /// Flushes the WAL (returns its duration in seconds), detaches and stops
  /// it. The store stays readable.
  double close_wal();

  const WorkloadConfig& config() const { return cfg_; }
  oda::sim::ClusterSimulation& cluster() { return *cluster_; }
  oda::telemetry::TimeSeriesStore& store() { return *store_; }
  oda::telemetry::Wal& wal() { return *wal_; }
  oda::telemetry::Collector& collector() { return *collector_; }
  const oda::telemetry::AlertEngine* alerts() const { return alerts_.get(); }
  const oda::telemetry::SensorHealthTracker* health() const {
    return health_.get();
  }
  /// Wall time of the last collector.collect() call, in seconds.
  double last_collect_s() const { return last_collect_s_; }
  /// CPU time the per-tick output check has taken so far, in seconds; the
  /// benchmark subtracts it from the ticks' CPU time.
  double check_cpu_s() const { return check_cpu_s_; }

 private:
  void schedule_campaign();
  void collect_checked();
  void check_reads();
  void run_cells();
  bool due(const char* cell) const;
  bool faulted() const { return cfg_.workload == Workload::kIngestFaulted; }
  bool heavy() const { return cfg_.workload == Workload::kAnalyticsHeavy; }

  WorkloadConfig cfg_;
  std::vector<oda::telemetry::CollectorGroup> groups_;
  oda::ThreadPool& pool_;
  std::unique_ptr<oda::sim::ClusterSimulation> cluster_;
  std::unique_ptr<oda::telemetry::TimeSeriesStore> store_;
  std::unique_ptr<oda::telemetry::Wal> wal_;
  std::unique_ptr<oda::telemetry::MessageBus> bus_;
  std::unique_ptr<oda::telemetry::SensorHealthTracker> health_;
  std::unique_ptr<oda::telemetry::AlertEngine> alerts_;
  std::unique_ptr<oda::telemetry::Collector> collector_;
  std::unique_ptr<oda::analytics::ControlLoop> control_;

  // Analytics cell state.
  std::vector<std::string> node_prefixes_;
  std::unique_ptr<oda::analytics::NodeAnomalyMonitor> monitor_;
  std::unique_ptr<oda::analytics::WorkloadForecaster> workload_forecaster_;
  std::unique_ptr<oda::analytics::JobRuntimePredictor> runtime_predictor_;
  std::shared_ptr<oda::analytics::ThermalAwarePlacement> placement_;
  std::unique_ptr<oda::sim::ClusterSimulation> twin_;  // diag.stress plant
  std::vector<double> fwq_trace_;
  double twin_baseline_tau_s_ = 0.0;
  std::uint64_t facility_readings_ = 0;

  // Output-check state.
  std::vector<std::vector<std::string>> group_paths_;
  std::vector<std::vector<oda::TimePoint>> due_times_;
  std::vector<CheckedSensor> checked_;
  std::set<std::string> read_faulted_;
  std::set<std::string> sensor_faulted_;
  std::uint64_t expected_samples_ = 0;
  std::uint64_t read_mismatches_ = 0;
  std::uint64_t reads_checked_ = 0;
  double last_collect_s_ = 0.0;
  double check_cpu_s_ = 0.0;
  bool wal_open_ = false;
};

}  // namespace tickbench
