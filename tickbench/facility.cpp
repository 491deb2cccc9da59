#include "facility.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <ctime>
#include <iterator>
#include <stdexcept>

#include "analytics/descriptive/kpi.hpp"
#include "analytics/diagnostic/software.hpp"
#include "analytics/diagnostic/stress_test.hpp"
#include "analytics/predictive/failure.hpp"
#include "analytics/predictive/spectral.hpp"
#include "analytics/prescriptive/cooling.hpp"
#include "analytics/prescriptive/dvfs.hpp"
#include "analytics/prescriptive/recommend.hpp"
#include "checks.hpp"
#include "common/rng.hpp"
#include "common/string_util.hpp"
#include "obs/trace.hpp"

namespace tickbench {

using namespace oda;

namespace {

// How often each cell runs on the ingest workloads, in simulated seconds;
// analytics_heavy runs every cell on every tick. Where the repo defines a
// cadence it is used:
//   presc.dvfs 2 min, presc.setpoint 2 h: the DvfsGovernor and
//     CoolingSetpointOptimizer default periods (they run in control.tick());
//   pred.spectral 1 h: the hourly refit of examples/llnl_notify.cpp.
// Every other period is a value chosen for this benchmark, not measured
// facility traffic. 0 = not on the ingest workloads: diag.stress perturbs
// a plant and diag.node needs a trained monitor, both built only with the
// simulated history; presc.placement already runs inside the scheduler on
// every job start.
struct CellCadence {
  const char* cell;
  Duration period;
};
constexpr CellCadence kIngestCadence[] = {
    {"kpi.pue", 15 * kMinute},      {"kpi.itue", 15 * kMinute},
    {"kpi.slowdown", kHour},        {"kpi.roofline", kHour},
    {"diag.stress", 0},             {"diag.noise", kHour},
    {"diag.bound", 10 * kMinute},   {"diag.node", 0},
    {"pred.workload", kHour},       {"pred.failure", kHour},
    {"pred.spectral", kHour},       {"pred.runtime", 15 * kMinute},
    {"presc.placement", 0},         {"presc.recommend", kHour},
};

// Simulated history collected during set-up on analytics_heavy.
constexpr Duration kPrefill = 3 * kHour;

struct GroupDef {
  const char* name;
  const char* pattern;
};

/// CPU time of the calling thread, in seconds.
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Every sensor of the facility belongs to exactly one group.
constexpr GroupDef kGroups[] = {
    {"nodes", "rack*/node*/*"},   {"rack_power", "rack\?\?/power"},
    {"rack_inlet", "rack\?\?/inlet_temp"}, {"facility", "facility/*"},
    {"cluster", "cluster/*"},     {"network", "network/*"},
    {"scheduler", "scheduler/*"}, {"weather", "weather/*"},
};

}  // namespace

std::optional<Workload> parse_workload(const std::string& name) {
  if (name == "ingest_steady") return Workload::kIngestSteady;
  if (name == "ingest_faulted") return Workload::kIngestFaulted;
  if (name == "analytics_heavy") return Workload::kAnalyticsHeavy;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kIngestSteady: return "ingest_steady";
    case Workload::kIngestFaulted: return "ingest_faulted";
    case Workload::kAnalyticsHeavy: return "analytics_heavy";
  }
  return "?";
}

WorkloadConfig make_config(Workload w, std::uint64_t seed) {
  WorkloadConfig cfg;
  cfg.workload = w;
  cfg.seed = seed;
  if (w == Workload::kAnalyticsHeavy) {
    cfg.store_capacity = 1024;
    cfg.ticks = 300;
  }
  return cfg;
}

Facility::Facility(const WorkloadConfig& cfg, ThreadPool& pool,
                   const std::string& wal_dir)
    : cfg_(cfg), pool_(pool) {
  // Every sensor is due on every tick of the ingest workloads; on
  // analytics_heavy every group is due every 4th tick (weather every 20th).
  for (const GroupDef& g : kGroups) {
    Duration period = kDt;
    if (heavy()) {
      period = std::strcmp(g.name, "weather") == 0 ? 5 * kMinute : kMinute;
    }
    groups_.push_back({g.name, g.pattern, period});
  }
  sim::ClusterParams params;
  params.racks = cfg.racks;
  params.nodes_per_rack = cfg.nodes_per_rack;
  params.dt = kDt;
  params.seed = cfg.seed;
  params.workload.seed = cfg.seed ^ 0x9E3779B97F4A7C15ULL;
  params.workload.peak_arrival_rate_per_hour = 40.0;
  cluster_ = std::make_unique<sim::ClusterSimulation>(params);
  placement_ = analytics::make_thermal_placement(*cluster_);
  cluster_->scheduler().set_placement(placement_);
  if (faulted()) schedule_campaign();

  store_ = std::make_unique<telemetry::TimeSeriesStore>(cfg.store_capacity);
  store_->set_pool(&pool_);
  wal_ = std::make_unique<telemetry::Wal>(telemetry::WalOptions{.dir = wal_dir});
  store_->set_wal(wal_.get());
  if (!wal_->start()) throw std::runtime_error("wal did not start in " + wal_dir);
  wal_open_ = true;

  bus_ = std::make_unique<telemetry::MessageBus>();
  // A facility-level consumer on every workload, so the bus delivers real
  // traffic; node readings stay unrouted unless the faulted workload's
  // alert rules subscribe to them.
  bus_->subscribe("facility/*", [this](const telemetry::Reading&) {
    ++facility_readings_;
  });
  collector_ = std::make_unique<telemetry::Collector>(*cluster_, store_.get(),
                                                      bus_.get(), &pool_);
  if (faulted()) {
    health_ = std::make_unique<telemetry::SensorHealthTracker>(
        telemetry::HealthPolicy{}, bus_.get());
    health_->set_range("rack*/node*/cpu_temp", 0.0, 110.0);
    collector_->set_health_tracker(health_.get());
    alerts_ = std::make_unique<telemetry::AlertEngine>();
    alerts_->add_rule({"node_hot", "rack*/node*/cpu_temp",
                       telemetry::AlertComparison::kAbove, 80.0, kMinute,
                       2.0, telemetry::AlertSeverity::kWarning});
    alerts_->add_rule({"supply_warm", "facility/supply_temp",
                       telemetry::AlertComparison::kAbove, 24.0, 2 * kMinute,
                       0.5, telemetry::AlertSeverity::kCritical});
    alerts_->attach(*bus_);
  }

  const auto& defs = cluster_->sensors();
  std::size_t grouped = 0;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    std::vector<std::string> paths;
    for (const auto& d : defs) {
      if (glob_match(groups_[g].pattern, d.path)) paths.push_back(d.path);
    }
    grouped += paths.size();
    const std::size_t matched = collector_->add_group(groups_[g]);
    if (matched != paths.size()) {
      throw std::runtime_error("collector group " + groups_[g].name +
                               " matched a different sensor count");
    }
    group_paths_.push_back(std::move(paths));
  }
  if (grouped != defs.size()) {
    throw std::runtime_error("collector groups do not partition the sensors");
  }
  due_times_.resize(groups_.size());

  // Fixed subset for the per-tick bit-equality check: every 16th sensor
  // that carries no sensor-level fault.
  for (std::size_t i = 0; i < defs.size(); i += 16) {
    if (sensor_faulted_.count(defs[i].path) != 0) continue;
    CheckedSensor c;
    c.def_index = i;
    c.id = telemetry::SeriesInterner::global().intern(defs[i].path);
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      if (glob_match(groups_[g].pattern, defs[i].path)) c.group = g;
    }
    checked_.push_back(c);
  }

  analytics::DvfsGovernor::Params dvfs;
  analytics::CoolingSetpointOptimizer::Params setpoint;
  if (heavy()) {
    dvfs.period = kDt;
    setpoint.period = kDt;
  }
  control_ = std::make_unique<analytics::ControlLoop>(*cluster_, *store_);
  control_->add(std::make_shared<analytics::CoolingSetpointOptimizer>(setpoint));
  control_->add(std::make_shared<analytics::DvfsGovernor>(dvfs));

  for (std::size_t i = 0; i < cluster_->node_count(); ++i) {
    node_prefixes_.push_back(cluster_->node(i).path());
  }
  workload_forecaster_ = std::make_unique<analytics::WorkloadForecaster>();
  runtime_predictor_ = std::make_unique<analytics::JobRuntimePredictor>();
  fwq_trace_ = analytics::synthesize_fwq(2048, 1e-3, 0.1, 2e-4, 1e-3,
                                         cfg.seed ^ 0xF00DULL);

  if (heavy()) {
    // Simulated history: the plain collection loop, no cells.
    while (cluster_->now() < kPrefill) {
      cluster_->step();
      collect_checked();
      check_reads();
      control_->tick();
    }
    for (const auto& r : cluster_->scheduler().completed()) {
      workload_forecaster_->observe_arrival(r.spec.submit_time);
      runtime_predictor_->observe(r);
    }
    Rng rng(cfg.seed ^ 0xA11CEULL);
    monitor_ = std::make_unique<analytics::NodeAnomalyMonitor>(
        analytics::NodeAnomalyMonitor::Params{}, node_prefixes_);
    monitor_->train(*store_, kHour, kPrefill, rng);

    // diag.stress perturbs a live plant; the benchmark runs it on a small
    // twin of the facility instead of the monitored one.
    sim::ClusterParams twin;
    twin.racks = 1;
    twin.nodes_per_rack = 2;
    twin.seed = cfg.seed ^ 0x7715ULL;
    twin.workload.peak_arrival_rate_per_hour = 0.0;
    twin_ = std::make_unique<sim::ClusterSimulation>(twin);
    twin_->set_workload_enabled(false);
    twin_baseline_tau_s_ =
        analytics::run_cooling_stress_test(*twin_, 0.0).time_constant_s;
  }
}

Facility::~Facility() {
  // Only reached open on an exception path: detach and join the writer
  // without the flush, whose failure could not be reported from here.
  if (wal_open_) {
    store_->set_wal(nullptr);
    wal_->stop();
  }
}

void Facility::schedule_campaign() {
  // A seeded chaos campaign over the episode: read faults (dropout, stall)
  // on 7% of the sensors, value overlays on 3%, and five component faults.
  // The windows tile the episode: event k of a class of n opens at
  // k/n of the episode and stays open for a quarter of it, wrapping round
  // to the start, and every magnitude is fixed. So the same number of
  // faults of each kind is active on every tick whatever the seed; the
  // seed picks the sensors, the overlay kinds' order and the component
  // targets.
  const auto& defs = cluster_->sensors();
  const TimePoint horizon = static_cast<TimePoint>(cfg_.ticks) * kDt;
  Rng rng(cfg_.seed ^ 0xC4A05ULL);
  std::vector<std::size_t> order(defs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);
  const auto schedule = [&](sim::FaultEvent e, std::size_t k, std::size_t n) {
    const TimePoint start = horizon * static_cast<TimePoint>(k) /
                            static_cast<TimePoint>(n);
    const TimePoint end = start + horizon / 4;
    e.start = start;
    e.end = std::min(end, horizon);
    cluster_->faults().schedule(e);
    if (end > horizon) {
      e.start = 0;
      e.end = end - horizon;
      cluster_->faults().schedule(e);
    }
  };
  const std::size_t n_read = defs.size() * 7 / 100;
  const std::size_t n_overlay = defs.size() * 3 / 100;
  std::size_t k = 0;
  for (std::size_t i = 0; i < n_read; ++i, ++k) {
    sim::FaultEvent e;
    e.target = defs[order[k]].path;
    if (i % 5 < 3) {
      e.kind = sim::FaultKind::kSensorDropout;
      e.magnitude = 0.65;  // per-read failure probability
    } else {
      e.kind = sim::FaultKind::kSensorStall;
      e.magnitude = 3.5;  // simulated seconds per read
    }
    read_faulted_.insert(e.target);
    sensor_faulted_.insert(e.target);
    schedule(e, i, n_read);
  }
  constexpr sim::FaultKind kOverlays[] = {
      sim::FaultKind::kSensorStuck, sim::FaultKind::kSensorDrift,
      sim::FaultKind::kSensorSpike, sim::FaultKind::kSensorNoise};
  for (std::size_t i = 0; i < n_overlay; ++i, ++k) {
    sim::FaultEvent e;
    e.target = defs[order[k]].path;
    e.kind = kOverlays[i % 4];
    e.magnitude = e.kind == sim::FaultKind::kSensorSpike ? 50.0 : 2.5;
    sensor_faulted_.insert(e.target);
    schedule(e, i, n_overlay);
  }
  const auto node_target = [&] {
    const auto r = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(cfg_.racks) - 1));
    const auto n = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(cfg_.nodes_per_rack) - 1));
    return sim::node_path(r, n);
  };
  const sim::FaultEvent components[] = {
      {sim::FaultKind::kFanFailure, node_target(), 0, 0, 1.0},
      {sim::FaultKind::kFanFailure, node_target(), 0, 0, 1.0},
      {sim::FaultKind::kThermalDegradation, node_target(), 0, 0, 1.5},
      {sim::FaultKind::kPumpDegradation, "facility", 0, 0, 1.5},
      {sim::FaultKind::kNetworkDegradation, "3", 0, 0, 0.5},
  };
  for (std::size_t i = 0; i < std::size(components); ++i) {
    schedule(components[i], i, std::size(components));
  }
}

void Facility::collect_checked() {
  // Expected samples from the benchmark's own group config (check 2).
  const TimePoint now = cluster_->now();
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const Duration period = groups_[g].period;
    if (period <= 0 || now % period != 0) continue;
    expected_samples_ += group_paths_[g].size();
    due_times_[g].push_back(now);
  }
  ODA_TRACE_SPAN_CAT("bench.collect", "bench");
  const auto t0 = std::chrono::steady_clock::now();
  collector_->collect();
  last_collect_s_ = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0).count();
}

void Facility::check_reads() {
  // Check 1: a fault-free sensor's stored sample is bit-equal to its
  // fault-free SensorDef::read(), taken right after collect().
  const TimePoint now = cluster_->now();
  const auto& defs = cluster_->sensors();
  for (const CheckedSensor& c : checked_) {
    const auto& due = due_times_[c.group];
    if (due.empty() || due.back() != now) continue;
    ++reads_checked_;
    if (!stored_equals_read(*store_, c.id, defs[c.def_index], now)) {
      ++read_mismatches_;
    }
  }
}

bool Facility::due(const char* cell) const {
  if (heavy()) return true;
  for (const CellCadence& c : kIngestCadence) {
    if (std::strcmp(c.cell, cell) != 0) continue;
    return c.period > 0 && cluster_->now() % c.period == 0;
  }
  return false;
}

void Facility::run_cells() {
  const TimePoint now = cluster_->now();
  const auto& records = cluster_->scheduler().completed();
  const auto& running = cluster_->scheduler().running();
  const telemetry::SensorHealthTracker* health = health_.get();

  // Descriptive row.
  if (due("kpi.pue")) {
    analytics::compute_pue(*store_, now - kHour, now, health);
  }
  if (due("kpi.itue")) {
    analytics::compute_itue(*store_, now - kHour, now);
  }
  if (due("kpi.slowdown") && !records.empty()) {
    const std::size_t n = std::min<std::size_t>(records.size(), 64);
    analytics::compute_slowdown({records.data() + records.size() - n, n});
  }
  if (due("kpi.roofline")) {
    analytics::roofline(3000.0, 200.0, 450.0, 0.25);
  }

  // Diagnostic row.
  if (twin_ != nullptr && due("diag.stress")) {
    analytics::StressTestParams p;
    p.settle = 10 * kMinute;
    p.observe = 30 * kMinute;
    analytics::run_cooling_stress_test(*twin_, twin_baseline_tau_s_, p);
  }
  if (due("diag.noise")) {
    analytics::analyze_fwq({fwq_trace_.data(), fwq_trace_.size()}, 1e-3, 1e-3);
  }
  if (due("diag.bound") && !running.empty()) {
    analytics::classify_boundedness(*store_, running.front(), node_prefixes_, now);
  }
  if (monitor_ != nullptr && due("diag.node")) {
    monitor_->scan(*store_, now);
  }

  // Predictive row.
  if (due("pred.workload") && workload_forecaster_->arrivals_observed() > 0) {
    workload_forecaster_->forecast(24);
  }
  if (due("pred.failure")) {
    telemetry::SeriesSlice temp;
    {
      ODA_TRACE_SPAN_CAT("bench.query", "bench");
      temp = store_->query_aggregated(node_prefixes_.front() + "/cpu_temp",
                                      now - kHour, now, kMinute,
                                      telemetry::Aggregation::kMean);
    }
    if (temp.size() >= 3) {
      analytics::project_failure({temp.values.data(), temp.values.size()},
                                 60.0, 90.0, true);
    }
  }
  if (due("pred.spectral")) {
    telemetry::SeriesSlice power;
    {
      ODA_TRACE_SPAN_CAT("bench.query", "bench");
      power = store_->query_aggregated("facility/total_power", now - 3 * kHour,
                                       now, kMinute,
                                       telemetry::Aggregation::kMean);
    }
    if (power.size() >= 32) {
      analytics::SpectralForecaster forecaster;
      forecaster.fit({power.values.data(), power.values.size()});
      const auto forecast = forecaster.forecast(60);
      analytics::detect_power_swings({forecast.data(), forecast.size()},
                                     analytics::NotificationRule{});
    }
  }
  if (due("pred.runtime") && !records.empty()) {
    runtime_predictor_->predict(records.back().spec);
  }

  // Prescriptive row (dvfs and set-point run in control.tick()).
  if (due("presc.recommend") && !records.empty()) {
    analytics::recommend_for_job(*store_, records.back(), node_prefixes_);
  }
  if (due("presc.placement")) {
    sim::JobSpec spec;
    spec.nodes_requested = 8;
    placement_->place(spec, cluster_->scheduler().node_busy());
  }
}

double Facility::tick() {
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  Clock::duration excluded{};
  {
    ODA_TRACE_SPAN_CAT("bench.tick", "bench");
    {
      ODA_TRACE_SPAN_CAT("bench.sim", "bench");
      cluster_->step();
    }
    collect_checked();
    const auto c0 = Clock::now();
    const double cpu0 = thread_cpu_s();
    {
      ODA_TRACE_SPAN_CAT("bench.check", "bench");
      check_reads();
    }
    excluded = Clock::now() - c0;
    check_cpu_s_ += thread_cpu_s() - cpu0;
    {
      ODA_TRACE_SPAN_CAT("bench.cells", "bench");
      run_cells();
    }
    {
      ODA_TRACE_SPAN_CAT("bench.control", "bench");
      control_->tick();
    }
  }
  return std::chrono::duration<double>(Clock::now() - t0 - excluded).count();
}

double Facility::close_wal() {
  const auto t0 = std::chrono::steady_clock::now();
  const bool flushed = wal_->flush();
  const double flush_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  store_->set_wal(nullptr);
  wal_->stop();
  wal_open_ = false;
  if (!flushed) throw std::runtime_error("wal flush failed");
  return flush_s;
}

}  // namespace tickbench
