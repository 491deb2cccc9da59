// Integration tests: whole-pipeline scenarios wiring simulator -> telemetry
// -> analytics -> control and asserting closed-loop behaviour, plus the
// config binding and end-to-end compositions the examples are built from.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "analytics/descriptive/kpi.hpp"
#include "analytics/diagnostic/anomaly.hpp"
#include "analytics/diagnostic/fingerprint.hpp"
#include "analytics/predictive/spectral.hpp"
#include "analytics/prescriptive/controller.hpp"
#include "analytics/prescriptive/dvfs.hpp"
#include "analytics/prescriptive/response.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/bindings.hpp"
#include "core/oda_system.hpp"
#include "sim/cluster.hpp"
#include "sim/config.hpp"
#include "telemetry/bus.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/health.hpp"
#include "telemetry/store.hpp"

namespace oda {
namespace {

// -------------------------------------------------------------- sim config

TEST(SimConfig, AppliesRecognizedKeys) {
  const auto cfg = Config::from_text(
      "cluster.racks = 2\n"
      "cluster.nodes_per_rack = 4\n"
      "workload.miner_fraction = 0.25\n"
      "facility.supply_setpoint_c = 35\n"
      "weather.mean_temp_c = 22.5\n"
      "scheduler.backfill = false\n");
  const auto params = sim::cluster_params_from_config(cfg);
  EXPECT_EQ(params.racks, 2u);
  EXPECT_EQ(params.nodes_per_rack, 4u);
  EXPECT_DOUBLE_EQ(params.workload.miner_fraction, 0.25);
  EXPECT_DOUBLE_EQ(params.facility.supply_setpoint_c, 35.0);
  EXPECT_DOUBLE_EQ(params.weather.mean_temp_c, 22.5);
  EXPECT_EQ(params.scheduler.discipline, sim::QueueDiscipline::kFcfs);
}

TEST(SimConfig, UnknownKeyThrows) {
  const auto cfg = Config::from_text("cluster.rackz = 3\n");
  EXPECT_THROW(sim::cluster_params_from_config(cfg), ConfigError);
}

TEST(SimConfig, ConfigDrivenClusterRuns) {
  const auto params = sim::cluster_params_from_config(Config::from_text(
      "cluster.racks = 1\ncluster.nodes_per_rack = 2\ncluster.seed = 5\n"));
  sim::ClusterSimulation cluster(params);
  cluster.run_for(kHour);
  EXPECT_GT(cluster.it_power_w(), 0.0);
}

// --------------------------------------------------- collector parallel path

// The stored output depends on seed and config only: a collector without a
// pool and one on a pool of any size read the same values, open the same
// breakers and publish the same stream, with read faults and fault overlays
// active. Two groups run, one under the 64-sensor fan-out threshold and one
// over it, so both the direct and the pooled read branch take part.
struct PoolSizeCase {
  const char* name;
  bool faulted;
  std::size_t threads;  // 0 = no pool
};

void PrintTo(const PoolSizeCase& c, std::ostream* os) { *os << c.name; }

struct CollectorRun {
  std::vector<std::string> paths;
  std::vector<std::vector<TimePoint>> times;
  std::vector<std::vector<std::uint64_t>> value_bits;
  std::vector<telemetry::BreakerState> breakers;  // per sensor, at the end
  std::vector<std::size_t> open_breakers;  // per collect pass
  std::vector<std::tuple<std::string, TimePoint, std::uint64_t>> published;
  std::uint64_t expected = 0, collected = 0, gaps = 0, retries = 0;
};

std::vector<std::uint64_t> bits_of(const std::vector<double>& values) {
  std::vector<std::uint64_t> out;
  for (const double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

CollectorRun run_collector(bool faulted, std::size_t threads) {
  sim::ClusterParams params;
  params.racks = 2;
  params.nodes_per_rack = 8;
  params.seed = 5;
  sim::ClusterSimulation cluster(params);
  if (faulted) {
    // Seeded schedule over both groups: every kind, overlapping windows,
    // and two sensors dropped outright long enough to open their breakers.
    std::vector<std::string> facility, racks;
    for (const auto& s : cluster.sensors()) {
      if (s.path.starts_with("facility/")) facility.push_back(s.path);
      if (s.path.starts_with("rack")) racks.push_back(s.path);
    }
    Rng chaos(0xFA017ULL);
    const sim::FaultKind kinds[4] = {
        sim::FaultKind::kSensorDropout, sim::FaultKind::kSensorStall,
        sim::FaultKind::kSensorSpike, sim::FaultKind::kSensorNoise};
    const double magnitudes[4] = {0.6, 4.0, 50.0, 2.0};
    for (int i = 0; i < 40; ++i) {
      const auto& pool = i % 2 == 0 ? facility : racks;
      const auto& target = pool[static_cast<std::size_t>(chaos.uniform_int(
          0, static_cast<std::int64_t>(pool.size()) - 1))];
      const TimePoint start = chaos.uniform_int(0, 15 * kMinute);
      const TimePoint end =
          start + chaos.uniform_int(5 * kMinute, 20 * kMinute);
      cluster.faults().schedule(
          {kinds[i % 4], target, start, end, magnitudes[i % 4]});
    }
    for (const auto* target : {&facility.front(), &racks.front()}) {
      cluster.faults().schedule(
          {sim::FaultKind::kSensorDropout, *target, 0, 10 * kMinute, 1.0});
    }
  }

  telemetry::TimeSeriesStore store;
  telemetry::MessageBus bus;
  CollectorRun run;
  bus.subscribe("*", [&run](const telemetry::Reading& r) {
    run.published.emplace_back(r.path, r.sample.time,
                               std::bit_cast<std::uint64_t>(r.sample.value));
  });
  telemetry::SensorHealthTracker tracker({}, &bus);
  std::optional<ThreadPool> pool;
  if (threads > 0) pool.emplace(threads);
  telemetry::Collector collector(cluster, &store, &bus,
                                 pool ? &*pool : nullptr);
  collector.set_health_tracker(&tracker);
  EXPECT_LT(collector.add_group({"facility", "facility/*", cluster.dt()}), 64u);
  EXPECT_GE(collector.add_group({"racks", "rack*", cluster.dt()}), 64u);
  while (cluster.now() < 30 * kMinute) {
    cluster.step();
    collector.collect();
    run.open_breakers.push_back(collector.open_breakers());
  }

  run.paths = store.paths();
  for (const auto& path : run.paths) {
    const auto slice = store.query_all(path);
    run.times.push_back(slice.times);
    run.value_bits.push_back(bits_of(slice.values));
  }
  for (const auto& s : cluster.sensors()) {
    run.breakers.push_back(collector.breaker_state(s.path));
  }
  run.expected = collector.samples_expected();
  run.collected = collector.samples_collected();
  run.gaps = collector.gaps_total();
  run.retries = collector.retries_total();
  return run;
}

class CollectorPoolSize : public ::testing::TestWithParam<PoolSizeCase> {};

TEST_P(CollectorPoolSize, MatchesSerial) {
  const CollectorRun serial = run_collector(GetParam().faulted, 0);
  const CollectorRun pooled =
      run_collector(GetParam().faulted, GetParam().threads);

  ASSERT_EQ(serial.paths, pooled.paths);
  for (std::size_t i = 0; i < serial.paths.size(); ++i) {
    EXPECT_EQ(serial.times[i], pooled.times[i]) << serial.paths[i];
    EXPECT_EQ(serial.value_bits[i], pooled.value_bits[i]) << serial.paths[i];
  }
  EXPECT_EQ(serial.expected, pooled.expected);
  EXPECT_EQ(serial.collected, pooled.collected);
  EXPECT_EQ(serial.gaps, pooled.gaps);
  EXPECT_EQ(serial.retries, pooled.retries);
  EXPECT_EQ(serial.breakers, pooled.breakers);
  EXPECT_EQ(serial.open_breakers, pooled.open_breakers);
  EXPECT_TRUE(serial.published == pooled.published);

  if (GetParam().faulted) {
    // The schedule must bite: gaps, retries, quarantine publishes and an
    // opened breaker all happen, so the equalities above cover them.
    EXPECT_GT(serial.gaps, 0u);
    EXPECT_GT(serial.retries, 0u);
    EXPECT_TRUE(std::any_of(
        serial.published.begin(), serial.published.end(),
        [](const auto& p) { return std::get<0>(p).starts_with("_health/"); }));
    EXPECT_GT(*std::max_element(serial.open_breakers.begin(),
                                serial.open_breakers.end()),
              0u);
  } else {
    EXPECT_EQ(serial.gaps, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoolSizes, CollectorPoolSize,
    ::testing::Values(PoolSizeCase{"fault_free_serial", false, 0},
                      PoolSizeCase{"fault_free_pool1", false, 1},
                      PoolSizeCase{"fault_free_pool2", false, 2},
                      PoolSizeCase{"fault_free_pool4", false, 4},
                      PoolSizeCase{"faulted_serial", true, 0},
                      PoolSizeCase{"faulted_pool1", true, 1},
                      PoolSizeCase{"faulted_pool2", true, 2},
                      PoolSizeCase{"faulted_pool4", true, 4}),
    [](const auto& suite_info) { return std::string(suite_info.param.name); });

// ------------------------------------------- diagnostic -> prescriptive loop

TEST(Integration, EniStyleDetectAndRespond) {
  sim::ClusterParams params;
  params.racks = 1;
  params.nodes_per_rack = 4;
  params.seed = 3;
  sim::ClusterSimulation cluster(params);
  telemetry::TimeSeriesStore store;
  telemetry::Collector collector(cluster, &store, nullptr);
  collector.add_all_sensors(60);

  analytics::EwmaDetector detector(0.05, 5.0);
  auto policy =
      analytics::ResponsePolicy::standard(analytics::ResponseMode::kAutomatic);
  std::vector<analytics::Actuation> log;

  const TimePoint fault_at = 12 * kHour;
  cluster.faults().schedule({sim::FaultKind::kPumpDegradation, "facility",
                             fault_at, fault_at + kDay, 1.7});

  bool responded = false;
  TimePoint detected_at = -1;
  while (cluster.now() < fault_at + 6 * kHour) {
    cluster.step();
    collector.collect();
    if (cluster.now() % (5 * kMinute) == 0) {
      const auto latest = store.latest("facility/pump_power");
      if (!latest) continue;
      detector.observe(latest->value);
      if (cluster.now() > 2 * kHour && detector.score() >= 1.0 && !responded) {
        responded = true;
        detected_at = cluster.now();
        policy.respond({"pump-degradation", "facility/cooling/pump", 1.0},
                       cluster, log);
      }
    }
  }
  ASSERT_TRUE(responded);
  EXPECT_GE(detected_at, fault_at);               // no false alarm before onset
  EXPECT_LE(detected_at, fault_at + 2 * kHour);   // detected promptly
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log[0].knob, "facility/pump_speed");
  EXPECT_GT(cluster.knobs().get("facility/pump_speed"), 1.0);
}

// --------------------------------------------- closed-loop DVFS on real sim

TEST(Integration, EnergyGovernorSavesEnergyOnMemoryBoundWork) {
  const auto run = [](bool governed) {
    sim::ClusterParams params;
    params.racks = 1;
    params.nodes_per_rack = 4;
    params.seed = 17;
    sim::ClusterSimulation cluster(params);
    cluster.set_workload_enabled(false);
    for (std::size_t i = 0; i < cluster.node_count(); ++i) {
      sim::JobSpec spec;
      spec.id = 100 + i;
      spec.user = "u";
      spec.nodes_requested = 1;
      sim::JobPhase phase;
      phase.nominal_duration = 48 * kHour;
      phase.cpu_util = 0.6;
      phase.mem_bw_util = 0.9;
      phase.mem_boundedness = 0.85;  // frequency buys almost nothing
      spec.phases = {phase};
      spec.walltime_requested = 96 * kHour;
      cluster.scheduler().submit(spec);
    }
    telemetry::TimeSeriesStore store;
    telemetry::Collector collector(cluster, &store, nullptr);
    collector.add_all_sensors(60);
    analytics::ControlLoop loop(cluster, store);
    if (governed) {
      analytics::DvfsGovernor::Params gp;
      gp.mode = analytics::DvfsGovernor::Mode::kEnergy;
      loop.add(std::make_shared<analytics::DvfsGovernor>(gp));
    }
    while (cluster.now() < 8 * kHour) {
      cluster.step();
      collector.collect();
      loop.tick();
    }
    double progress = 0.0;
    for (const auto& job : cluster.scheduler().running()) {
      progress += job.progress_s;
    }
    return std::pair<double, double>(cluster.it_energy_j(), progress);
  };
  const auto [baseline_energy, baseline_progress] = run(false);
  const auto [governed_energy, governed_progress] = run(true);
  EXPECT_LT(governed_energy, baseline_energy * 0.93);      // real saving
  EXPECT_GT(governed_progress, baseline_progress * 0.90);  // little slowdown
}

// -------------------------------------------------- spectral on live trace

TEST(Integration, SpectralForecastTracksDiurnalPower) {
  sim::ClusterParams params;
  params.seed = 83;
  params.dt = 60;
  params.workload.peak_arrival_rate_per_hour = 4.0;
  params.workload.seed = 83;
  sim::ClusterSimulation cluster(params);
  telemetry::TimeSeriesStore store(1 << 17);
  telemetry::Collector collector(cluster, &store, nullptr);
  collector.add_group({"power", "facility/total_power", 5 * kMinute});
  while (cluster.now() < 6 * kDay) {
    cluster.step();
    collector.collect();
  }
  const auto series = store.query_aggregated(
      "facility/total_power", 0, cluster.now(), 15 * kMinute,
      telemetry::Aggregation::kMean);
  analytics::SpectralForecaster spectral(6);
  spectral.fit(series.values);
  // The daily cycle must be among the dominant recovered components.
  bool found_daily = false;
  for (const auto& c : spectral.components()) {
    const double period_h = c.frequency > 0.0 ? 0.25 / c.frequency : 0.0;
    if (period_h > 20.0 && period_h < 28.0) found_daily = true;
  }
  EXPECT_TRUE(found_daily);
}

// -------------------------------------------- fingerprint on live job trace

TEST(Integration, MinerDetectionOnLiveCluster) {
  sim::ClusterParams params;
  params.seed = 43;
  params.dt = 30;
  params.workload.peak_arrival_rate_per_hour = 70.0;
  params.workload.max_duration = kHour;
  params.workload.min_duration = 20 * kMinute;
  params.workload.miner_fraction = 0.15;
  sim::ClusterSimulation cluster(params);
  telemetry::TimeSeriesStore store(1 << 16);
  telemetry::Collector collector(cluster, &store, nullptr);
  collector.add_all_sensors(60);
  while (cluster.now() < kDay) {
    cluster.step();
    collector.collect();
  }
  std::vector<std::string> prefixes;
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    prefixes.push_back(cluster.node(i).path());
  }
  const auto& completed = cluster.scheduler().completed();
  ASSERT_GT(completed.size(), 60u);

  analytics::ApplicationFingerprinter fp;
  Rng rng(47);
  const std::size_t split = completed.size() / 2;
  for (std::size_t i = 0; i < split; ++i) {
    if (completed[i].run_time() < 10 * kMinute) continue;
    fp.add_training(completed[i].spec.job_class == sim::JobClass::kCryptoMiner
                        ? "miner"
                        : "regular",
                    analytics::job_signature(store, completed[i], prefixes));
  }
  fp.train(rng);
  std::size_t correct = 0, total = 0;
  for (std::size_t i = split; i < completed.size(); ++i) {
    if (completed[i].run_time() < 10 * kMinute) continue;
    const bool truth =
        completed[i].spec.job_class == sim::JobClass::kCryptoMiner;
    const auto pred = fp.predict_forest(
        analytics::job_signature(store, completed[i], prefixes));
    correct += (pred.label == "miner") == truth;
    ++total;
  }
  ASSERT_GT(total, 20u);
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(total), 0.9);
}

// ----------------------------------------------------- framework extensions

TEST(Core, SystemSimilarityAndComprehensiveness) {
  const auto systems = core::published_example_systems();
  // GEOPM and DRAS-CQSim both occupy predictive+prescriptive (different
  // pillars) -> zero cell overlap; GEOPM vs PowerStack overlap strongly.
  const auto find = [&](const char* name) {
    for (const auto& s : systems) {
      if (s.name.find(name) != std::string::npos) return s;
    }
    throw ContractError("system not found");
  };
  EXPECT_DOUBLE_EQ(core::system_similarity(find("GEOPM"), find("GEOPM")), 1.0);
  EXPECT_GT(core::system_similarity(find("GEOPM"), find("PowerStack")), 0.3);
  EXPECT_DOUBLE_EQ(core::system_similarity(find("GEOPM"), find("ClusterCockpit")),
                   0.0);
  EXPECT_GT(core::comprehensiveness(find("PowerStack")),
            core::comprehensiveness(find("ClusterCockpit")));
  const auto matrix = core::render_similarity_matrix(systems);
  EXPECT_NE(matrix.find("1.00"), std::string::npos);
}

TEST(Core, RoadmapRenderForPartialSite) {
  core::FrameworkGrid site;
  core::CapabilityDescriptor dash;
  dash.id = "d";
  dash.name = "dashboards";
  dash.cells = {{core::Pillar::kSystemHardware, core::AnalyticsType::kDescriptive}};
  site.register_capability(dash);
  const auto report = site.render_roadmap();
  EXPECT_NE(report.find("diagnostic"), std::string::npos);
  EXPECT_NE(report.find("applications"), std::string::npos);

  const auto full = core::implemented_capabilities().render_roadmap();
  EXPECT_NE(full.find("already covered"), std::string::npos);
}

}  // namespace
}  // namespace oda
