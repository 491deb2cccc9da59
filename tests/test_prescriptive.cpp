// Tests for the prescriptive pillar: control plumbing, cooling optimization,
// DVFS governors, placement policies, power capping, auto-tuning, and
// anomaly response — each verified against the live simulated facility.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <deque>

#include "analytics/prescriptive/autotune.hpp"
#include "analytics/prescriptive/controller.hpp"
#include "analytics/prescriptive/cooling.hpp"
#include "analytics/prescriptive/dvfs.hpp"
#include "analytics/prescriptive/placement.hpp"
#include "analytics/prescriptive/powercap.hpp"
#include "analytics/prescriptive/recommend.hpp"
#include "analytics/prescriptive/response.hpp"
#include "sim/cluster.hpp"
#include "telemetry/collector.hpp"

namespace oda::analytics {
namespace {

struct Rig {
  explicit Rig(sim::ClusterParams params) {
    cluster = std::make_unique<sim::ClusterSimulation>(params);
    store = std::make_unique<telemetry::TimeSeriesStore>();
    collector =
        std::make_unique<telemetry::Collector>(*cluster, store.get(), nullptr);
    collector->add_all_sensors(60);
    loop = std::make_unique<ControlLoop>(*cluster, *store);
  }

  void run_for(Duration d) {
    const TimePoint end = cluster->now() + d;
    while (cluster->now() < end) {
      cluster->step();
      collector->collect();
      loop->tick();
    }
  }

  /// Submits one steady 1-node job per node.
  void steady_load(double cpu_util = 0.9, double mem_bw = 0.3,
                   double mem_boundedness = 0.2) {
    cluster->set_workload_enabled(false);
    for (std::size_t i = 0; i < cluster->node_count(); ++i) {
      sim::JobSpec spec;
      spec.id = 5000 + i;
      spec.user = "steady";
      spec.nodes_requested = 1;
      sim::JobPhase phase;
      phase.nominal_duration = 200 * kHour;
      phase.cpu_util = cpu_util;
      phase.mem_bw_util = mem_bw;
      phase.mem_boundedness = mem_boundedness;
      spec.phases = {phase};
      spec.walltime_requested = 400 * kHour;
      cluster->scheduler().submit(spec);
    }
  }

  std::unique_ptr<sim::ClusterSimulation> cluster;
  std::unique_ptr<telemetry::TimeSeriesStore> store;
  std::unique_ptr<telemetry::Collector> collector;
  std::unique_ptr<ControlLoop> loop;
};

sim::ClusterParams small_cluster(std::uint64_t seed = 3) {
  sim::ClusterParams params;
  params.racks = 2;
  params.nodes_per_rack = 4;
  params.seed = seed;
  return params;
}

// ------------------------------------------------------------- control loop

TEST(ControlLoop, ActuateRecordsAudit) {
  Rig rig(small_cluster());
  std::vector<Actuation> log;
  actuate(*rig.cluster, log, "test", "facility/supply_setpoint", 35.0, "probe");
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].knob, "facility/supply_setpoint");
  EXPECT_DOUBLE_EQ(log[0].new_value, 35.0);
  EXPECT_DOUBLE_EQ(rig.cluster->knobs().get("facility/supply_setpoint"), 35.0);
  // No-op changes are not logged.
  actuate(*rig.cluster, log, "test", "facility/supply_setpoint", 35.0, "same");
  EXPECT_EQ(log.size(), 1u);
}

TEST(ControlLoop, ClampsToKnobRange) {
  Rig rig(small_cluster());
  std::vector<Actuation> log;
  actuate(*rig.cluster, log, "test", "facility/supply_setpoint", 500.0, "over");
  EXPECT_LE(rig.cluster->knobs().get("facility/supply_setpoint"), 45.0);
}

TEST(ControlLoop, PeriodGating) {
  class CountingController : public Controller {
   public:
    const char* name() const override { return "counter"; }
    Duration period() const override { return 60; }
    void act(sim::ClusterSimulation&, const telemetry::TimeSeriesStore&,
             std::vector<Actuation>&) override {
      ++calls;
    }
    int calls = 0;
  };
  Rig rig(small_cluster());
  auto counter = std::make_shared<CountingController>();
  rig.loop->add(counter);
  rig.run_for(10 * kMinute);  // dt=15s, period=60s -> every 4th step
  EXPECT_EQ(counter->calls, 10);
}

TEST(ControlLoop, AuditLogIsBounded) {
  // Logs three numbered actuations per call; the loop must keep only the
  // newest kAuditCapacity of them while counting every one.
  class ChattyController : public Controller {
   public:
    const char* name() const override { return "chatty"; }
    Duration period() const override { return 60; }
    void act(sim::ClusterSimulation&, const telemetry::TimeSeriesStore&,
             std::vector<Actuation>& log) override {
      for (int i = 0; i < 3; ++i) {
        Actuation a;
        a.controller = name();
        a.new_value = static_cast<double>(next++);
        log.push_back(std::move(a));
      }
    }
    int next = 0;
  };
  Rig rig(small_cluster());
  rig.loop->add(std::make_shared<ChattyController>());
  constexpr int kCalls = 2000;  // now == 0 is due on every tick()
  for (int i = 0; i < kCalls; ++i) rig.loop->tick();

  const std::size_t total = 3 * kCalls;
  EXPECT_EQ(rig.loop->actuation_count(), total);
  const auto& audit = rig.loop->audit_log();
  ASSERT_EQ(audit.size(), ControlLoop::kAuditCapacity);
  EXPECT_DOUBLE_EQ(audit.front().new_value,
                   static_cast<double>(total - ControlLoop::kAuditCapacity));
  EXPECT_DOUBLE_EQ(audit.back().new_value, static_cast<double>(total - 1));
}

// ----------------------------------------------------------------- cooling

TEST(Cooling, SetpointOptimizerReducesFacilityPower) {
  // Start from a deliberately bad (cold) setpoint in chiller conditions;
  // the optimizer should walk the setpoint up and cut facility power.
  auto params = small_cluster(11);
  params.facility.supply_setpoint_c = 19.0;
  // Warm *constant* weather: a probing optimizer needs the outdoor
  // conditions held still or COP variability swamps the per-move signal
  // (the same control-of-variables the E1 bench applies).
  params.weather.mean_temp_c = 26.0;
  params.weather.seasonal_amplitude = 0.0;
  params.weather.diurnal_amplitude = 0.0;
  params.weather.front_stddev = 0.0;

  // Baseline without control.
  Rig baseline(params);
  baseline.steady_load();
  baseline.run_for(36 * kHour);

  Rig controlled(params);
  controlled.steady_load();
  CoolingSetpointOptimizer::Params op;
  op.period = kHour;  // faster moves for the test
  controlled.loop->add(std::make_shared<CoolingSetpointOptimizer>(op));
  controlled.run_for(36 * kHour);

  EXPECT_GT(controlled.cluster->knobs().get("facility/supply_setpoint"), 20.0);
  EXPECT_LT(controlled.cluster->facility_energy_j(),
            baseline.cluster->facility_energy_j());
}

TEST(Cooling, ModeSwitcherFollowsWetbulb) {
  auto params = small_cluster(13);
  params.facility.supply_setpoint_c = 28.0;
  params.weather.mean_temp_c = 26.0;     // wet-bulb straddles the free limit:
  params.weather.diurnal_amplitude = 8.0;  // nights free-cool, afternoons not
  params.weather.seasonal_amplitude = 1.0;
  params.weather.front_stddev = 1.0;
  Rig rig(params);
  rig.steady_load();
  auto switcher = std::make_shared<CoolingModeSwitcher>();
  rig.loop->add(switcher);
  rig.run_for(3 * kDay);
  EXPECT_GE(switcher->switches(), 2u);  // at least one full day cycle
}

TEST(Cooling, OptimizerBacksOffWhenNodesHot) {
  auto params = small_cluster(17);
  params.facility.supply_setpoint_c = 44.0;  // near max: nodes run very hot
  params.node.fan_target_temp_c = 95.0;      // lazy fans to force heat
  Rig rig(params);
  rig.steady_load(1.0, 0.3);
  CoolingSetpointOptimizer::Params op;
  op.period = kHour;
  op.cpu_temp_limit_c = 80.0;
  rig.loop->add(std::make_shared<CoolingSetpointOptimizer>(op));
  rig.run_for(12 * kHour);
  EXPECT_LT(rig.cluster->knobs().get("facility/supply_setpoint"), 44.0);
}

/// FNV-1a over an audit log's fields, floats by their bits: equal hashes
/// mean the same actuations, at the same times, with the same values.
std::uint64_t audit_hash(const std::deque<Actuation>& log) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const Actuation& a : log) {
    mix(&a.time, sizeof a.time);
    mix(a.knob.data(), a.knob.size());
    mix(&a.old_value, sizeof a.old_value);
    mix(&a.new_value, sizeof a.new_value);
    mix(a.reason.data(), a.reason.size());
  }
  return h;
}

TEST(Dvfs, EnergyActuationsPinnedBitForBit) {
  // The live scheduler's mix of jobs moves nodes between memory- and
  // compute-bound phases, so the governor's window means decide often.
  Rig rig(small_cluster(31));
  DvfsGovernor::Params gp;
  gp.mode = DvfsGovernor::Mode::kEnergy;
  rig.loop->add(std::make_shared<DvfsGovernor>(gp));
  rig.run_for(4 * kHour);
  const auto& log = rig.loop->audit_log();
  // Taken when each window was copied out with query() and averaged: the
  // in-place window means must reproduce them exactly.
  EXPECT_EQ(log.size(), 26u);
  EXPECT_EQ(audit_hash(log), 0xba4cc08930470f50ULL) << std::hex << audit_hash(log);
}

TEST(Cooling, SetpointActuationsPinnedBitForBit) {
  Rig rig(small_cluster(37));
  CoolingSetpointOptimizer::Params op;
  op.period = 30 * kMinute;
  rig.loop->add(std::make_shared<CoolingSetpointOptimizer>(op));
  rig.run_for(8 * kHour);
  const auto& log = rig.loop->audit_log();
  // Taken when the power window was copied out with query() and each
  // cpu_temp series looked up by path: reading in place by id must
  // reproduce them exactly.
  const std::vector<double> want = {
      0x1p+5,
      0x1.ec395810624ddp+4,
      0x1.f87210be9424ep+4,
      0x1.f0e483fce90e1p+4,
      0x1.f58f730a19f4cp+4,
      0x1.fa3a62174adb7p+4,
      0x1.fee551247bc22p+4,
      0x1.01c82018d6546p+5,
      0x1.041d979f6ec7cp+5,
      0x1.06730f26073b2p+5,
      0x1.04730f26073b2p+5,
      0x1.02730f26073b2p+5,
      0x1.00730f26073b2p+5,
      0x1.fce61e4c0e764p+4,
      0x1.00730f26073b2p+5,
      0x1.02730f26073b2p+5,
  };
  ASSERT_EQ(log.size(), want.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].new_value, want[i])
        << i << " " << std::hexfloat << log[i].new_value;
  }
  EXPECT_EQ(audit_hash(log), 0x4dfda661927c529bULL) << std::hex << audit_hash(log);
}

// -------------------------------------------------------------------- DVFS

TEST(Dvfs, EnergyModeDownclocksMemoryBound) {
  Rig rig(small_cluster(19));
  rig.steady_load(/*cpu=*/0.6, /*mem_bw=*/0.9, /*mem_boundedness=*/0.8);
  DvfsGovernor::Params gp;
  gp.mode = DvfsGovernor::Mode::kEnergy;
  rig.loop->add(std::make_shared<DvfsGovernor>(gp));
  rig.run_for(2 * kHour);
  for (std::size_t i = 0; i < rig.cluster->node_count(); ++i) {
    EXPECT_NEAR(rig.cluster->knobs().get(rig.cluster->node(i).path() +
                                         "/freq_setpoint"),
                gp.energy_freq_ghz, 1e-9);
  }
}

TEST(Dvfs, EnergyModeKeepsComputeBoundAtNominal) {
  Rig rig(small_cluster(23));
  rig.steady_load(/*cpu=*/0.95, /*mem_bw=*/0.2, /*mem_boundedness=*/0.1);
  DvfsGovernor::Params gp;
  gp.mode = DvfsGovernor::Mode::kEnergy;
  rig.loop->add(std::make_shared<DvfsGovernor>(gp));
  rig.run_for(2 * kHour);
  for (std::size_t i = 0; i < rig.cluster->node_count(); ++i) {
    EXPECT_NEAR(rig.cluster->knobs().get(rig.cluster->node(i).path() +
                                         "/freq_setpoint"),
                rig.cluster->node(i).params().freq_nominal_ghz, 1e-9);
  }
}

TEST(Dvfs, ThermalGovernorLimitsTemperature) {
  auto params = small_cluster(29);
  params.facility.supply_setpoint_c = 43.0;  // hot loop: thermal stress
  params.node.fan_target_temp_c = 90.0;      // weak fan response
  Rig uncontrolled(params);
  uncontrolled.steady_load(1.0, 0.3);
  uncontrolled.run_for(6 * kHour);
  double max_temp_uncontrolled = 0.0;
  for (std::size_t i = 0; i < uncontrolled.cluster->node_count(); ++i) {
    max_temp_uncontrolled = std::max(max_temp_uncontrolled,
                                     uncontrolled.cluster->node(i).cpu_temp_c());
  }

  Rig governed(params);
  governed.steady_load(1.0, 0.3);
  DvfsGovernor::Params gp;
  gp.mode = DvfsGovernor::Mode::kThermalReactive;
  gp.temp_limit_c = 78.0;
  governed.loop->add(std::make_shared<DvfsGovernor>(gp));
  governed.run_for(6 * kHour);
  for (std::size_t i = 0; i < governed.cluster->node_count(); ++i) {
    EXPECT_LT(governed.cluster->node(i).cpu_temp_c(), 80.5);
  }
  EXPECT_GT(max_temp_uncontrolled, 80.5);  // the governor made the difference
}

// -------------------------------------------------------------- placement

TEST(Placement, ThermalAwareSpreadsAcrossRacks) {
  Rig rig(small_cluster(31));
  rig.cluster->set_workload_enabled(false);
  rig.cluster->scheduler().set_placement(make_thermal_placement(*rig.cluster));
  // Four 2-node jobs: thermal-aware placement should alternate racks.
  for (int j = 0; j < 2; ++j) {
    sim::JobSpec spec;
    spec.id = 100 + j;
    spec.user = "u";
    spec.nodes_requested = 2;
    sim::JobPhase phase;
    phase.nominal_duration = 10 * kHour;
    phase.cpu_util = 1.0;
    spec.phases = {phase};
    spec.walltime_requested = 20 * kHour;
    rig.cluster->scheduler().submit(spec);
    rig.run_for(kHour);  // let rack power differentiate between placements
  }
  // Each rack should hold exactly one job's nodes.
  std::size_t rack0 = 0, rack1 = 0;
  for (const auto& job : rig.cluster->scheduler().running()) {
    for (std::size_t n : job.nodes) {
      (rig.cluster->rack_of(n) == 0 ? rack0 : rack1) += 1;
    }
  }
  EXPECT_EQ(rack0, 2u);
  EXPECT_EQ(rack1, 2u);
}

TEST(Placement, PackConcentratesButStaysRackLocal) {
  PackPlacement pack(4);
  std::vector<bool> busy(8, false);
  busy[0] = true;  // rack 0 partially used
  // A job that fits the partially-used rack goes there (packing).
  sim::JobSpec small;
  small.nodes_requested = 3;
  const auto local = pack.place(small, busy);
  ASSERT_TRUE(local.has_value());
  for (std::size_t n : *local) EXPECT_LT(n, 4u);
  // A job too big for rack 0 is placed whole in rack 1 rather than split —
  // locality beats packing (cross-rack splits cost network contention).
  sim::JobSpec big;
  big.nodes_requested = 4;
  const auto whole = pack.place(big, busy);
  ASSERT_TRUE(whole.has_value());
  for (std::size_t n : *whole) EXPECT_GE(n, 4u);
  // When no single rack fits, the job spills across racks.
  sim::JobSpec huge;
  huge.nodes_requested = 7;
  const auto spilled = pack.place(huge, busy);
  ASSERT_TRUE(spilled.has_value());
  EXPECT_EQ(spilled->size(), 7u);
}

TEST(Placement, ReturnsNulloptWhenFull) {
  sim::JobSpec spec;
  spec.nodes_requested = 2;
  std::vector<bool> busy(4, true);
  PackPlacement pack(4);
  EXPECT_FALSE(pack.place(spec, busy).has_value());
  ThermalAwarePlacement thermal([](std::size_t) { return 0.0; }, 1, 4);
  EXPECT_FALSE(thermal.place(spec, busy).has_value());
}

// --------------------------------------------------------------- powercap

TEST(PowerCap, EnforcesCapByShedding) {
  auto params = small_cluster(37);
  Rig rig(params);
  rig.steady_load(1.0, 0.3);
  rig.run_for(kHour);
  const double unconstrained = rig.cluster->facility().facility_power_w();

  auto governed_params = small_cluster(37);
  Rig governed(governed_params);
  governed.steady_load(1.0, 0.3);
  PowerCapGovernor::Params pp;
  pp.cap_w = unconstrained * 0.85;  // force a binding cap
  pp.period = 2 * kMinute;
  auto governor = std::make_shared<PowerCapGovernor>(pp);
  governed.loop->add(governor);
  governed.run_for(8 * kHour);
  // Once settled, power stays near/below the cap.
  EXPECT_LT(governed.cluster->facility().facility_power_w(), pp.cap_w * 1.02);
  // And at least one node was actually downclocked.
  bool any_shed = false;
  for (std::size_t i = 0; i < governed.cluster->node_count(); ++i) {
    if (governed.cluster->knobs().get(governed.cluster->node(i).path() +
                                      "/freq_setpoint") <
        governed.cluster->node(i).params().freq_nominal_ghz - 1e-9) {
      any_shed = true;
    }
  }
  EXPECT_TRUE(any_shed);
}

TEST(PowerCap, RestoresWhenHeadroom) {
  auto params = small_cluster(41);
  Rig rig(params);
  rig.cluster->set_workload_enabled(false);  // idle machine
  // Pre-shed every node, then let the governor restore.
  for (std::size_t i = 0; i < rig.cluster->node_count(); ++i) {
    rig.cluster->knobs().set(rig.cluster->node(i).path() + "/freq_setpoint", 1.2);
  }
  PowerCapGovernor::Params pp;
  pp.cap_w = 1e9;  // never binding
  pp.period = 2 * kMinute;
  rig.loop->add(std::make_shared<PowerCapGovernor>(pp));
  rig.run_for(2 * kHour);
  for (std::size_t i = 0; i < rig.cluster->node_count(); ++i) {
    EXPECT_NEAR(rig.cluster->knobs().get(rig.cluster->node(i).path() +
                                         "/freq_setpoint"),
                rig.cluster->node(i).params().freq_nominal_ghz, 1e-9);
  }
}

// --------------------------------------------------------------- autotune

TEST(AutoTune, AllStrategiesImproveOnDefault) {
  const std::vector<TunableParam> space{
      {"tile_size", 8.0, 256.0, {}},
      {"threads", 1.0, 64.0, {}},
      {"blocking", 0.0, 1.0, {}},
  };
  const auto surface = synthetic_app_surface(space, 120.0, /*seed=*/5, 0.005);
  AutoTuner::Params tp;
  tp.budget = 120;
  AutoTuner tuner(space, surface, tp);
  for (const auto& result : tuner.tune_all()) {
    EXPECT_GT(result.improvement, -0.05) << result.strategy;
    EXPECT_GT(result.evaluations, 1u);
    EXPECT_EQ(result.best_config.size(), space.size());
  }
  // The best strategy should find a clearly better configuration.
  const auto results = tuner.tune_all();
  EXPECT_GT(results.front().improvement, 0.05);
}

TEST(AutoTune, RespectsBounds) {
  const std::vector<TunableParam> space{{"x", 0.0, 1.0, {}}};
  const auto surface = synthetic_app_surface(space, 10.0, 7);
  AutoTuner tuner(space, surface);
  for (const auto& r : tuner.tune_all()) {
    EXPECT_GE(r.best_config[0], 0.0);
    EXPECT_LE(r.best_config[0], 1.0);
  }
}

TEST(AutoTune, SurfaceDeterministicPerConfig) {
  const std::vector<TunableParam> space{{"x", 0.0, 1.0, {}}};
  const auto surface = synthetic_app_surface(space, 10.0, 9);
  const std::vector<double> config{0.42};
  EXPECT_DOUBLE_EQ(surface(config), surface(config));
}

// --------------------------------------------------------------- response

TEST(Response, AutomaticFanFailureHandling) {
  Rig rig(small_cluster(43));
  auto policy = ResponsePolicy::standard(ResponseMode::kAutomatic);
  std::vector<Actuation> log;
  const auto action = policy.respond(
      {"fan-failure", rig.cluster->node(0).path(), 0.9}, *rig.cluster, log);
  EXPECT_TRUE(action.executed);
  EXPECT_FALSE(log.empty());
  EXPECT_NEAR(rig.cluster->knobs().get(rig.cluster->node(0).path() +
                                       "/freq_setpoint"),
              rig.cluster->node(0).params().freq_min_ghz, 1e-9);
}

TEST(Response, RecommendModeDoesNotActuate) {
  Rig rig(small_cluster(47));
  auto policy = ResponsePolicy::standard(ResponseMode::kRecommend);
  std::vector<Actuation> log;
  const double before = rig.cluster->knobs().get("facility/pump_speed");
  const auto action =
      policy.respond({"pump-degradation", "facility/cooling/pump", 0.7},
                     *rig.cluster, log);
  EXPECT_FALSE(action.executed);
  EXPECT_TRUE(log.empty());
  EXPECT_DOUBLE_EQ(rig.cluster->knobs().get("facility/pump_speed"), before);
}

TEST(Response, UnknownConditionFallsBack) {
  Rig rig(small_cluster(53));
  auto policy = ResponsePolicy::standard(ResponseMode::kAutomatic);
  std::vector<Actuation> log;
  const auto action =
      policy.respond({"alien-invasion", "facility", 1.0}, *rig.cluster, log);
  EXPECT_FALSE(action.executed);
  EXPECT_NE(action.action.find("no handler"), std::string::npos);
}


// ---------------------------------------------------------- recommendations

TEST(Recommend, MemoryBoundJobGetsLocalityAdvice) {
  JobProfile p;
  p.cpu_util = 0.6;
  p.mem_bw_util = 0.9;
  p.boundedness = Boundedness::kMemory;
  const auto recs = recommend(p);
  ASSERT_FALSE(recs.empty());
  EXPECT_EQ(recs[0].category, "memory");
  EXPECT_NE(recs[0].advice.find("locality"), std::string::npos);
}

TEST(Recommend, ImbalanceAndOverRequestStack) {
  JobProfile p;
  p.cpu_util = 0.8;
  p.boundedness = Boundedness::kCompute;
  p.cpu_util_stddev = 0.3;
  p.walltime_request_ratio = 6.0;
  const auto recs = recommend(p);
  ASSERT_GE(recs.size(), 2u);
  EXPECT_EQ(recs[0].category, "imbalance");   // priority 1 before priority 3
  EXPECT_EQ(recs.back().category, "sizing");
}

TEST(Recommend, IdleAllocationFlagged) {
  JobProfile p;  // all utilizations zero
  const auto recs = recommend(p);
  ASSERT_FALSE(recs.empty());
  EXPECT_EQ(recs[0].category, "sizing");
}

TEST(Recommend, EndToEndOnLiveJob) {
  Rig rig(small_cluster(59));
  rig.cluster->set_workload_enabled(false);
  sim::JobSpec spec;
  spec.id = 1;
  spec.user = "dev";
  spec.nodes_requested = 2;
  sim::JobPhase phase;
  phase.nominal_duration = 2 * kHour;
  phase.cpu_util = 0.6;
  phase.mem_bw_util = 0.92;
  phase.mem_boundedness = 0.8;
  spec.phases = {phase};
  spec.walltime_requested = 12 * kHour;  // 6x over-request
  rig.cluster->scheduler().submit(spec);
  rig.run_for(2 * kHour + 10 * kMinute);
  ASSERT_FALSE(rig.cluster->scheduler().completed().empty());
  const auto& record = rig.cluster->scheduler().completed().front();
  std::vector<std::string> prefixes;
  for (std::size_t i = 0; i < rig.cluster->node_count(); ++i) {
    prefixes.push_back(rig.cluster->node(i).path());
  }
  const auto recs = recommend_for_job(*rig.store, record, prefixes);
  ASSERT_FALSE(recs.empty());
  EXPECT_EQ(recs[0].category, "memory");
  bool sizing = false;
  for (const auto& r : recs) sizing |= r.category == "sizing";
  EXPECT_TRUE(sizing);  // the 6x walltime over-request
  const auto report = render_recommendations(record, recs);
  EXPECT_NE(report.find("RECOMMENDATIONS"), std::string::npos);
}

}  // namespace
}  // namespace oda::analytics
