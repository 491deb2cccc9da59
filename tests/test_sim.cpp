// Tests for the data-center simulator: weather, workload, node physics,
// network contention, scheduler invariants, facility plant, fault injection,
// and whole-cluster integration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "sim/cluster.hpp"

namespace oda::sim {
namespace {

// ---------------------------------------------------------------- weather

TEST(Weather, DiurnalCycleVisible) {
  Weather w({}, Rng(1));
  double t_day = 0.0, t_night = 0.0;
  w.step(15 * kHour, 0);  // afternoon
  t_day = w.drybulb_c();
  w.step(3 * kHour, 0);  // night
  t_night = w.drybulb_c();
  EXPECT_GT(t_day, t_night);
}

TEST(Weather, WetbulbBelowDrybulb) {
  Weather w({}, Rng(2));
  for (TimePoint t = 0; t < 2 * kDay; t += kHour) {
    w.step(t, kHour);
    EXPECT_LT(w.wetbulb_c(), w.drybulb_c());
  }
}

TEST(Weather, SensorsExported) {
  Weather w({}, Rng(3));
  std::vector<SensorDef> sensors;
  w.enumerate_sensors(sensors);
  ASSERT_EQ(sensors.size(), 2u);
  EXPECT_EQ(sensors[0].path, "weather/drybulb_temp");
}

// --------------------------------------------------------------- workload

TEST(Workload, DeterministicForSeed) {
  WorkloadParams params;
  WorkloadGenerator a(params), b(params);
  const auto ta = a.generate_trace(50);
  const auto tb = b.generate_trace(50);
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].user, tb[i].user);
    EXPECT_EQ(ta[i].nominal_duration(), tb[i].nominal_duration());
  }
}

TEST(Workload, RespectsSizeAndDurationLimits) {
  WorkloadParams params;
  params.max_nodes_per_job = 8;
  WorkloadGenerator gen(params);
  for (const auto& job : gen.generate_trace(300)) {
    EXPECT_GE(job.nodes_requested, 1u);
    EXPECT_LE(job.nodes_requested, 8u);
    EXPECT_GE(job.nominal_duration(), params.min_duration);
    EXPECT_LE(job.nominal_duration(), params.max_duration);
    EXPECT_GT(job.walltime_requested, job.nominal_duration());
  }
}

TEST(Workload, MinerFractionRespected) {
  WorkloadParams params;
  params.miner_fraction = 0.2;
  WorkloadGenerator gen(params);
  std::size_t miners = 0;
  const auto trace = gen.generate_trace(1000);
  for (const auto& job : trace) {
    if (job.job_class == JobClass::kCryptoMiner) ++miners;
  }
  EXPECT_NEAR(static_cast<double>(miners) / 1000.0, 0.2, 0.05);
}

TEST(Workload, MinerSignatureSinglePhaseHighCpu) {
  Rng rng(5);
  const auto phases =
      WorkloadGenerator::make_phases(JobClass::kCryptoMiner, kHour, rng);
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_GT(phases[0].cpu_util, 0.9);
  EXPECT_LT(phases[0].mem_bw_util, 0.2);
}

TEST(Workload, RegularJobsHavePhaseStructure) {
  Rng rng(7);
  const auto phases =
      WorkloadGenerator::make_phases(JobClass::kComputeBound, 2 * kHour, rng);
  EXPECT_GE(phases.size(), 2u);
  Duration total = 0;
  for (const auto& p : phases) total += p.nominal_duration;
  EXPECT_EQ(total, 2 * kHour);
}

TEST(Workload, ArrivalRateFollowsDiurnalPattern) {
  WorkloadParams params;
  params.peak_arrival_rate_per_hour = 60.0;
  WorkloadGenerator gen(params);
  std::size_t afternoon = 0, night = 0;
  for (int day = 0; day < 20; ++day) {
    const TimePoint base = day * kDay;
    afternoon += gen.generate(base + 14 * kHour, kHour).size();
    night += gen.generate(base + 3 * kHour, kHour).size();
  }
  EXPECT_GT(afternoon, night);
}

// ------------------------------------------------------------------- node

NodeDemand busy_demand(double cpu = 0.9, double mem = 0.3) {
  NodeDemand d;
  d.busy = true;
  d.cpu_util = cpu;
  d.mem_bw_util = mem;
  d.mem_boundedness = 0.2;
  return d;
}

TEST(Node, PowerIncreasesWithUtilization) {
  Node idle("n0", {});
  Node busy("n1", {});
  for (int i = 0; i < 100; ++i) {
    idle.step({}, 25.0, 15);
    busy.step(busy_demand(), 25.0, 15);
  }
  EXPECT_GT(busy.power_w(), idle.power_w() + 50.0);
}

TEST(Node, TemperatureRisesUnderLoad) {
  Node node("n0", {});
  for (int i = 0; i < 50; ++i) node.step({}, 25.0, 15);
  const double idle_temp = node.cpu_temp_c();
  for (int i = 0; i < 400; ++i) node.step(busy_demand(), 25.0, 15);
  EXPECT_GT(node.cpu_temp_c(), idle_temp + 10.0);
}

TEST(Node, DvfsReducesPowerAndProgress) {
  NodeParams params;
  Node fast("f", params), slow("s", params);
  std::vector<KnobDef> knobs;
  slow.enumerate_knobs(knobs);
  knobs[0].set(params.freq_min_ghz);
  for (int i = 0; i < 200; ++i) {
    fast.step(busy_demand(), 25.0, 15);
    slow.step(busy_demand(), 25.0, 15);
  }
  EXPECT_LT(slow.power_w(), fast.power_w());
  EXPECT_LT(slow.progress_rate(), fast.progress_rate());
}

TEST(Node, MemoryBoundJobLessFrequencySensitive) {
  NodeParams params;
  Node a("a", params), b("b", params);
  std::vector<KnobDef> ka, kb;
  a.enumerate_knobs(ka);
  b.enumerate_knobs(kb);
  ka[0].set(params.freq_min_ghz);
  kb[0].set(params.freq_min_ghz);
  NodeDemand compute = busy_demand();
  compute.mem_boundedness = 0.0;
  NodeDemand memory = busy_demand();
  memory.mem_boundedness = 0.9;
  a.step(compute, 25.0, 15);
  b.step(memory, 25.0, 15);
  EXPECT_LT(a.progress_rate(), b.progress_rate());
}

TEST(Node, ThrottlesAtLimit) {
  NodeParams params;
  params.throttle_temp_c = 60.0;  // force easy throttling
  Node node("n", params);
  for (int i = 0; i < 500; ++i) node.step(busy_demand(1.0, 0.2), 45.0, 15);
  EXPECT_TRUE(node.throttled());
  EXPECT_DOUBLE_EQ(node.frequency_ghz(), params.freq_min_ghz);
}

TEST(Node, FanFailureRaisesTemperature) {
  Node healthy("h", {}), failed("f", {});
  failed.set_fan_failed(true);
  for (int i = 0; i < 400; ++i) {
    healthy.step(busy_demand(), 30.0, 15);
    failed.step(busy_demand(), 30.0, 15);
  }
  EXPECT_GT(failed.cpu_temp_c(), healthy.cpu_temp_c() + 5.0);
}

TEST(Node, HotterInletRaisesLeakagePower) {
  Node cool("c", {}), warm("w", {});
  for (int i = 0; i < 400; ++i) {
    cool.step(busy_demand(), 22.0, 15);
    warm.step(busy_demand(), 45.0, 15);
  }
  EXPECT_GT(warm.power_w(), cool.power_w());
}

TEST(Node, EnergyAccumulates) {
  Node node("n", {});
  node.step(busy_demand(), 25.0, 100);
  EXPECT_NEAR(node.energy_j(), node.power_w() * 100.0, 1e-6);
}

// ---------------------------------------------------------------- network

TEST(Network, IntraRackTrafficNoContention) {
  Network net({2, 4, 100.0, 100.0});
  net.begin_step();
  net.add_job_traffic(1, {0, 1, 2, 3}, 90.0);  // all in rack 0
  net.finalize_step();
  EXPECT_DOUBLE_EQ(net.contention(1), 1.0);
  EXPECT_DOUBLE_EQ(net.uplink_utilization(0), 0.0);
}

TEST(Network, CrossRackOversubscriptionSlowsJob) {
  Network net({2, 4, 100.0, 50.0});  // skinny uplinks
  net.begin_step();
  net.add_job_traffic(1, {0, 1, 4, 5}, 80.0);  // spans both racks
  net.finalize_step();
  EXPECT_LT(net.contention(1), 1.0);
  EXPECT_GT(net.uplink_utilization(0), 1.0);
}

TEST(Network, VictimJobSlowedByAggressor) {
  Network net({2, 8, 100.0, 200.0});
  net.begin_step();
  net.add_job_traffic(1, {0, 8}, 30.0);              // modest cross-rack job
  net.add_job_traffic(2, {1, 2, 3, 9, 10, 11}, 95.0);  // heavy neighbour
  net.finalize_step();
  EXPECT_LT(net.contention(1), 1.0);  // slowed by shared uplink load
}

TEST(Network, DegradationReducesCapacity) {
  Network net({2, 4, 100.0, 400.0});
  net.begin_step();
  net.add_job_traffic(1, {0, 4}, 90.0);
  net.finalize_step();
  const double before = net.contention(1);
  net.set_uplink_degradation(0, 0.1);
  net.begin_step();
  net.add_job_traffic(1, {0, 4}, 90.0);
  net.finalize_step();
  EXPECT_LT(net.contention(1), before);
}

// -------------------------------------------------------------- scheduler

JobSpec make_job(std::uint64_t id, std::size_t nodes, Duration duration,
                 TimePoint submit = 0, Duration walltime = 0) {
  JobSpec spec;
  spec.id = id;
  spec.user = "u";
  spec.submit_time = submit;
  spec.nodes_requested = nodes;
  JobPhase phase;
  phase.nominal_duration = duration;
  phase.cpu_util = 0.9;
  spec.phases = {phase};
  spec.walltime_requested = walltime ? walltime : duration * 2;
  return spec;
}

TEST(Scheduler, StartsJobWhenNodesFree) {
  Scheduler sched(4, {});
  sched.submit(make_job(1, 2, kHour));
  sched.schedule(0);
  ASSERT_EQ(sched.running().size(), 1u);
  EXPECT_EQ(sched.free_node_count(), 2u);
}

TEST(Scheduler, NoDoubleAllocation) {
  Scheduler sched(4, {});
  sched.submit(make_job(1, 3, kHour));
  sched.submit(make_job(2, 3, kHour));
  sched.schedule(0);
  EXPECT_EQ(sched.running().size(), 1u);  // second job does not fit
  std::set<std::size_t> used;
  for (const auto& job : sched.running()) {
    for (std::size_t n : job.nodes) EXPECT_TRUE(used.insert(n).second);
  }
}

TEST(Scheduler, JobFinishesAfterProgress) {
  Scheduler sched(2, {});
  sched.submit(make_job(1, 1, 100));
  sched.schedule(0);
  sched.advance_job(1, 100.0, 5000.0);
  const auto reaped = sched.reap(100, 1e9);
  ASSERT_EQ(reaped.size(), 1u);
  EXPECT_EQ(reaped[0].outcome, JobOutcome::kFinished);
  EXPECT_DOUBLE_EQ(reaped[0].energy_j, 5000.0);
  EXPECT_EQ(sched.free_node_count(), 2u);
}

TEST(Scheduler, WalltimeKill) {
  Scheduler sched(1, {});
  auto job = make_job(1, 1, 10 * kHour, 0, kHour);  // runs longer than request
  sched.submit(job);
  sched.schedule(0);
  sched.advance_job(1, 60.0, 0.0);
  const auto reaped = sched.reap(kHour + 1, 1e9);
  ASSERT_EQ(reaped.size(), 1u);
  EXPECT_EQ(reaped[0].outcome, JobOutcome::kKilledWalltime);
}

TEST(Scheduler, OomKill) {
  Scheduler sched(1, {});
  auto job = make_job(1, 1, 10 * kHour);
  job.job_class = JobClass::kMemoryLeak;
  sched.submit(job);
  sched.schedule(0);
  // After ~3 hours the leak (1.5 GB/min) exceeds a 64 GB node.
  const auto reaped = sched.reap(3 * kHour, 64.0);
  ASSERT_EQ(reaped.size(), 1u);
  EXPECT_EQ(reaped[0].outcome, JobOutcome::kFailedOom);
}

TEST(Scheduler, FcfsBlocksBehindBigJob) {
  SchedulerParams params;
  params.discipline = QueueDiscipline::kFcfs;
  Scheduler sched(4, params);
  sched.submit(make_job(1, 3, kHour));   // running
  sched.schedule(0);
  sched.submit(make_job(2, 2, kHour));   // head, cannot fit (only 1 free)
  sched.submit(make_job(3, 1, kMinute)); // would fit but FCFS blocks it
  sched.schedule(0);
  EXPECT_EQ(sched.running().size(), 1u);
}

TEST(Scheduler, BackfillRunsSmallJob) {
  SchedulerParams params;
  params.discipline = QueueDiscipline::kEasyBackfill;
  Scheduler sched(4, params);
  sched.submit(make_job(1, 3, kHour, 0, kHour));
  sched.schedule(0);
  sched.submit(make_job(2, 2, kHour, 0, kHour));     // head reservation
  sched.submit(make_job(3, 1, kMinute, 0, 2 * kMinute));  // backfillable
  sched.schedule(0);
  EXPECT_EQ(sched.running().size(), 2u);  // big + backfilled small
}

TEST(Scheduler, BackfillNeverDelaysHead) {
  SchedulerParams params;
  params.discipline = QueueDiscipline::kEasyBackfill;
  Scheduler sched(4, params);
  sched.submit(make_job(1, 3, kHour, 0, kHour));
  sched.schedule(0);
  sched.submit(make_job(2, 2, kHour, 0, kHour));
  // This job's walltime exceeds the head's reservation window: must wait.
  sched.submit(make_job(3, 1, 3 * kHour, 0, 3 * kHour));
  sched.schedule(0);
  EXPECT_EQ(sched.running().size(), 1u);
}

TEST(Scheduler, RejectsOversizedJob) {
  Scheduler sched(2, {});
  EXPECT_THROW(sched.submit(make_job(1, 5, kHour)), ContractError);
}

// --------------------------------------------------------------- facility

TEST(Facility, PueAboveOne) {
  Facility f({});
  for (int i = 0; i < 100; ++i) f.step(15000.0, 10.0, 15);
  EXPECT_GT(f.pue(), 1.0);
  EXPECT_LT(f.pue(), 2.0);
}

TEST(Facility, FreeCoolingWhenCold) {
  Facility f({});
  for (int i = 0; i < 100; ++i) f.step(15000.0, 5.0, 15);
  EXPECT_TRUE(f.free_cooling_active());
  EXPECT_DOUBLE_EQ(f.chiller_power_w(), 0.0);
}

TEST(Facility, ChillerWhenHot) {
  Facility f({});
  for (int i = 0; i < 100; ++i) f.step(15000.0, 35.0, 15);
  EXPECT_FALSE(f.free_cooling_active());
  EXPECT_GT(f.chiller_power_w(), 0.0);
}

TEST(Facility, HigherSetpointImprovesCop) {
  Facility cold({}), warm({});
  cold.set_supply_setpoint_c(20.0);
  warm.set_supply_setpoint_c(40.0);
  cold.set_cooling_mode(CoolingMode::kChillerOnly);
  warm.set_cooling_mode(CoolingMode::kChillerOnly);
  for (int i = 0; i < 100; ++i) {
    cold.step(15000.0, 18.0, 15);
    warm.step(15000.0, 18.0, 15);
  }
  EXPECT_GT(warm.chiller_cop(), cold.chiller_cop());
  EXPECT_LT(warm.chiller_power_w(), cold.chiller_power_w());
}

TEST(Facility, SupplyTempApproachesSetpoint) {
  Facility f({});
  f.set_supply_setpoint_c(25.0);
  for (int i = 0; i < 1000; ++i) f.step(15000.0, 5.0, 15);
  EXPECT_NEAR(f.supply_temp_c(), 25.0, 0.5);
}

TEST(Facility, PumpDegradationCostsPower) {
  Facility healthy({}), degraded({});
  degraded.set_pump_degradation(1.5);
  healthy.step(15000.0, 10.0, 15);
  degraded.step(15000.0, 10.0, 15);
  EXPECT_GT(degraded.pump_power_w(), healthy.pump_power_w());
}

TEST(Facility, KnobsClampToRange) {
  Facility f({});
  std::vector<KnobDef> knobs;
  f.enumerate_knobs(knobs);
  KnobRegistry registry;
  for (auto& k : knobs) registry.add(std::move(k));
  registry.set("facility/supply_setpoint", 999.0);
  EXPECT_LE(registry.get("facility/supply_setpoint"), f.params().supply_max_c);
}

// ----------------------------------------------------------------- faults

// Binds `paths` to the sensor handles 0..paths.size()-1, in order.
void bind_paths(FaultInjector& inj, std::vector<std::string> paths) {
  const std::size_t count = paths.size();
  inj.bind_sensors(count, [paths = std::move(paths)](const std::string& path)
                              -> std::optional<std::size_t> {
    for (std::size_t i = 0; i < paths.size(); ++i) {
      if (paths[i] == path) return i;
    }
    return std::nullopt;
  });
}

TEST(Faults, StuckSensorFreezesValue) {
  FaultInjector inj;
  bind_paths(inj, {"s"});
  inj.schedule({FaultKind::kSensorStuck, "s", 100, 200, 0.0});
  Rng rng(1);
  const double frozen = inj.apply_sensor_faults(0, 5.0, 100, rng);
  EXPECT_DOUBLE_EQ(frozen, 5.0);
  EXPECT_DOUBLE_EQ(inj.apply_sensor_faults(0, 77.0, 150, rng), 5.0);
  EXPECT_DOUBLE_EQ(inj.apply_sensor_faults(0, 77.0, 250, rng), 77.0);
}

TEST(Faults, DriftGrowsOverTime) {
  FaultInjector inj;
  bind_paths(inj, {"s"});
  inj.schedule({FaultKind::kSensorDrift, "s", 0, 10 * kHour, 2.0});  // 2/h
  Rng rng(1);
  EXPECT_NEAR(inj.apply_sensor_faults(0, 10.0, 2 * kHour, rng), 14.0, 1e-9);
}

TEST(Faults, OtherSensorsUnaffected) {
  FaultInjector inj;
  bind_paths(inj, {"a", "b"});
  inj.schedule({FaultKind::kSensorNoise, "a", 0, kHour, 10.0});
  Rng rng(1);
  EXPECT_DOUBLE_EQ(inj.apply_sensor_faults(1, 3.0, 100, rng), 3.0);
}

TEST(Faults, ComponentHookFiredOnWindow) {
  FaultInjector inj;
  int activations = 0, deactivations = 0;
  inj.set_component_hook([&](const FaultEvent&, bool on) {
    on ? ++activations : ++deactivations;
  });
  inj.schedule({FaultKind::kFanFailure, "rack00/node00", 100, 200, 1.0});
  inj.step(0, 50);
  EXPECT_EQ(activations, 0);
  inj.step(50, 150);
  EXPECT_EQ(activations, 1);
  inj.step(150, 180);
  EXPECT_EQ(activations, 1);  // not re-fired
  inj.step(180, 250);
  EXPECT_EQ(deactivations, 1);
}

TEST(Faults, GroundTruthQuery) {
  // Ground truth is read off the schedule: an event active at t whose
  // target starts with the queried path.
  FaultInjector inj;
  inj.schedule({FaultKind::kFanFailure, "rack00/node03", 100, 200, 1.0});
  const auto any_active = [&](TimePoint t, const std::string& prefix) {
    return std::any_of(inj.events().begin(), inj.events().end(),
                       [&](const FaultEvent& e) {
                         return e.active_at(t) && e.target.starts_with(prefix);
                       });
  };
  EXPECT_TRUE(any_active(150, "rack00/node03"));
  EXPECT_FALSE(any_active(50, "rack00/node03"));
  EXPECT_FALSE(any_active(150, "rack01"));
}

// The per-target event index must answer exactly as the linear scan over
// every event that it replaced. This is that scan, kept as the reference
// model (single-threaded, so the stuck state needs no lock).
class LinearScanFaults {
 public:
  void schedule(const FaultEvent& event) {
    events_.push_back(event);
    stuck_values_.push_back(0.0);
    stuck_captured_.push_back(false);
  }

  double apply(const std::string& path, double raw, TimePoint now, Rng& rng) {
    double value = raw;
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const FaultEvent& e = events_[i];
      if (!is_sensor_fault(e.kind) || is_read_fault(e.kind) ||
          e.target != path) {
        continue;
      }
      if (!e.active_at(now)) {
        if (e.kind == FaultKind::kSensorStuck) stuck_captured_[i] = false;
        continue;
      }
      switch (e.kind) {
        case FaultKind::kSensorStuck:
          if (!stuck_captured_[i]) {
            stuck_values_[i] = value;
            stuck_captured_[i] = true;
          }
          value = stuck_values_[i];
          break;
        case FaultKind::kSensorDrift: {
          const double hours = static_cast<double>(now - e.start) /
                               static_cast<double>(kHour);
          value += e.magnitude * hours;
          break;
        }
        case FaultKind::kSensorSpike:
          if (rng.bernoulli(0.05)) value += e.magnitude;
          break;
        case FaultKind::kSensorNoise:
          value += rng.normal(0.0, e.magnitude);
          break;
        default:
          break;
      }
    }
    return value;
  }

  ReadFault read_fault(const std::string& path, TimePoint now, Rng& rng) const {
    ReadFault out;
    for (const auto& e : events_) {
      if (!is_read_fault(e.kind) || e.target != path || !e.active_at(now)) {
        continue;
      }
      if (e.kind == FaultKind::kSensorDropout) {
        if (rng.bernoulli(std::min(1.0, std::max(0.0, e.magnitude)))) {
          out.dropout = true;
        }
      } else {
        out.stall_seconds += e.magnitude * rng.uniform(0.8, 1.2);
      }
    }
    return out;
  }

 private:
  std::vector<FaultEvent> events_;
  std::vector<double> stuck_values_;
  std::vector<bool> stuck_captured_;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Randomized schedules: several events per target, overlapping windows,
// stuck windows that close and re-arm (the read clock sometimes steps back
// into a window it has left, so a re-armed stuck fault captures afresh),
// targets no sensor has, component kinds aimed at sensor paths (ignored by
// the read path), events scheduled before bind_sensors() and after reads
// have begun. Every sensor is read by handle; every read must give
// bit-equal values, equal ReadFaults, and leave both Rngs in the same
// state.
TEST(Faults, IndexedLookupMatchesLinearScan) {
  constexpr std::size_t kSensors = 10;
  std::vector<std::string> targets;
  for (std::size_t i = 0; i < kSensors; ++i) {
    targets.push_back("rack00/node0" + std::to_string(i) + "/power");
  }
  targets.emplace_back("ghost/a");  // match no sensor
  targets.emplace_back("ghost/b");
  const FaultKind kKinds[] = {
      FaultKind::kSensorStuck,   FaultKind::kSensorDrift,
      FaultKind::kSensorSpike,   FaultKind::kSensorNoise,
      FaultKind::kSensorDropout, FaultKind::kSensorStall,
      FaultKind::kFanFailure};

  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng gen(seed);
    auto random_event = [&] {
      FaultEvent e;
      // Skewed towards the first targets, so several events share one.
      const auto pick = static_cast<std::size_t>(
          gen.uniform_int(0, static_cast<std::int64_t>(targets.size()) - 1));
      e.target = targets[pick % (gen.bernoulli(0.5) ? 4 : targets.size())];
      e.kind = kKinds[gen.uniform_int(0, 6)];
      e.start = 15 * gen.uniform_int(0, 40);
      e.end = e.start + 15 * gen.uniform_int(1, 20);
      e.magnitude = e.kind == FaultKind::kSensorDropout
                        ? gen.uniform(-0.2, 1.2)
                        : gen.uniform(0.5, 20.0);
      return e;
    };

    FaultInjector indexed;
    LinearScanFaults reference;
    const auto pre_bind = gen.uniform_int(0, 4);
    for (std::int64_t k = 0; k < pre_bind; ++k) {
      const FaultEvent e = random_event();
      indexed.schedule(e);
      reference.schedule(e);
    }
    indexed.bind_sensors(kSensors, [&](const std::string& path)
                                       -> std::optional<std::size_t> {
      for (std::size_t i = 0; i < kSensors; ++i) {
        if (targets[i] == path) return i;
      }
      return std::nullopt;
    });

    Rng rng_indexed(seed * 977);
    Rng rng_reference(seed * 977);
    TimePoint now = 0;
    for (int step = 0; step < 80; ++step) {
      now = gen.bernoulli(0.15) ? 15 * gen.uniform_int(0, now / 15)
                                : now + 15;
      if (gen.bernoulli(0.3)) {
        const auto more = gen.uniform_int(1, 3);
        for (std::int64_t k = 0; k < more; ++k) {
          const FaultEvent e = random_event();
          indexed.schedule(e);
          reference.schedule(e);
        }
      }
      for (std::size_t t = 0; t < kSensors; ++t) {
        const std::string& path = targets[t];
        const double raw = gen.uniform(-50.0, 50.0);
        const ReadFault got = indexed.read_fault_at(t, now, rng_indexed);
        const ReadFault want = reference.read_fault(path, now, rng_reference);
        ASSERT_EQ(got.dropout, want.dropout) << path << " t=" << now;
        ASSERT_TRUE(same_bits(got.stall_seconds, want.stall_seconds))
            << path << " t=" << now;
        const double value =
            indexed.apply_sensor_faults(t, raw, now, rng_indexed);
        const double expected = reference.apply(path, raw, now, rng_reference);
        ASSERT_TRUE(same_bits(value, expected))
            << path << " t=" << now << ": " << value << " vs " << expected;
      }
    }
    // Same final Rng state, including the cached second normal variate.
    EXPECT_EQ(rng_indexed.normal(), rng_reference.normal()) << "seed " << seed;
    EXPECT_EQ(rng_indexed.next(), rng_reference.next()) << "seed " << seed;
  }
}

TEST(Faults, UnboundHandleThrows) {
  FaultInjector inj;
  Rng rng(1);
  EXPECT_THROW(inj.apply_sensor_faults(std::size_t{0}, 1.0, 0, rng),
               ContractError);
}

// ---------------------------------------------------------------- cluster

TEST(Cluster, RunsAndAccumulatesEnergy) {
  ClusterParams params;
  params.racks = 2;
  params.nodes_per_rack = 4;
  ClusterSimulation cluster(params);
  cluster.run_for(kHour);
  EXPECT_EQ(cluster.now(), kHour);
  EXPECT_GT(cluster.it_power_w(), 0.0);
  EXPECT_GT(cluster.facility_energy_j(), cluster.it_energy_j());
}

TEST(Cluster, DeterministicForSeed) {
  ClusterParams params;
  params.racks = 2;
  params.nodes_per_rack = 4;
  ClusterSimulation a(params), b(params);
  a.run_for(2 * kHour);
  b.run_for(2 * kHour);
  EXPECT_DOUBLE_EQ(a.it_power_w(), b.it_power_w());
  EXPECT_EQ(a.scheduler().completed().size(), b.scheduler().completed().size());
}

// Reads sensor `path` through the fault overlay with a fixed caller stream.
double read_path(const ClusterSimulation& cluster, const std::string& path) {
  Rng rng(1);
  return cluster.read_sensor(cluster.find_sensor(path).value(), rng);
}

TEST(Cluster, SensorReadMatchesDirectState) {
  ClusterParams params;
  params.racks = 1;
  params.nodes_per_rack = 4;
  ClusterSimulation cluster(params);
  cluster.run_for(30 * kMinute);
  EXPECT_DOUBLE_EQ(read_path(cluster, "cluster/it_power"),
                   cluster.it_power_w());
  EXPECT_DOUBLE_EQ(read_path(cluster, "rack00/node00/power"),
                   cluster.node(0).power_w());
}

TEST(Cluster, UnknownSensorThrows) {
  ClusterParams params;
  params.racks = 1;
  params.nodes_per_rack = 2;
  ClusterSimulation cluster(params);
  Rng rng(1);
  EXPECT_THROW(cluster.read_sensor(cluster.sensors().size(), rng),
               ContractError);
  EXPECT_FALSE(cluster.has_sensor("no/such/sensor"));
  EXPECT_TRUE(cluster.has_sensor("facility/pue"));
}

TEST(Cluster, HandleIsIndexIntoSensors) {
  ClusterParams params;
  params.racks = 1;
  params.nodes_per_rack = 2;
  ClusterSimulation cluster(params);
  for (std::size_t h = 0; h < cluster.sensors().size(); ++h) {
    ASSERT_EQ(cluster.find_sensor(cluster.sensors()[h].path), h);
  }
  EXPECT_FALSE(cluster.find_sensor("no/such/sensor").has_value());
  Rng rng(1);
  EXPECT_THROW(cluster.try_read_sensor(cluster.sensors().size(), rng),
               ContractError);
}

// A read depends only on the simulated state and the caller's Rng: the
// simulation keeps no stream of its own, so a path resolved on every read
// and a cached handle read between unrelated reads agree, with overlay and
// read faults active.
TEST(Cluster, PathAndHandleReadsAgree) {
  ClusterParams params;
  params.racks = 1;
  params.nodes_per_rack = 2;
  ClusterSimulation by_path(params), by_handle(params);
  for (ClusterSimulation* c : {&by_path, &by_handle}) {
    c->faults().schedule({FaultKind::kSensorNoise, "facility/pue", 0, kHour, 0.5});
    c->faults().schedule(
        {FaultKind::kSensorDropout, "facility/pue", 0, kHour, 0.5});
    c->run_for(15 * kMinute);
  }
  const std::size_t pue = *by_handle.find_sensor("facility/pue");
  Rng rng_a(7), rng_b(7), unrelated(99);
  int dropouts = 0;
  for (int i = 0; i < 50; ++i) {
    const SensorReadResult a =
        by_path.try_read_sensor(*by_path.find_sensor("facility/pue"), rng_a);
    for (std::size_t h = 0; h < by_handle.sensors().size(); ++h) {
      by_handle.read_sensor(h, unrelated);
    }
    const SensorReadResult b = by_handle.try_read_sensor(pue, rng_b);
    ASSERT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.value, b.value);
    dropouts += a.ok ? 0 : 1;
  }
  EXPECT_GT(dropouts, 0);
}

TEST(Cluster, KnobChangesPropagate) {
  ClusterParams params;
  params.racks = 1;
  params.nodes_per_rack = 2;
  ClusterSimulation cluster(params);
  cluster.knobs().set("facility/supply_setpoint", 40.0);
  cluster.run_for(2 * kHour);
  EXPECT_NEAR(cluster.facility().supply_temp_c(), 40.0, 2.0);
}

TEST(Cluster, RackInletTracksLoadCoupling) {
  ClusterParams params;
  params.racks = 2;
  params.nodes_per_rack = 4;
  params.workload.peak_arrival_rate_per_hour = 0.0;  // idle machine
  ClusterSimulation cluster(params);
  cluster.run_for(kHour);
  const double idle_inlet = cluster.rack_inlet_temp_c(0);
  // Manually saturate rack 0 with jobs.
  cluster.set_workload_enabled(false);
  JobSpec spec;
  spec.id = 9999;
  spec.user = "u";
  spec.nodes_requested = 4;
  JobPhase phase;
  phase.nominal_duration = 4 * kHour;
  phase.cpu_util = 1.0;
  spec.phases = {phase};
  spec.walltime_requested = 8 * kHour;
  cluster.scheduler().submit(spec);
  cluster.run_for(kHour);
  EXPECT_GT(cluster.rack_inlet_temp_c(0), idle_inlet + 1.0);
}

TEST(Cluster, FanFailureFaultPropagatesToTelemetry) {
  ClusterParams params;
  params.racks = 1;
  params.nodes_per_rack = 2;
  params.workload.peak_arrival_rate_per_hour = 0.0;
  ClusterSimulation cluster(params);
  cluster.set_workload_enabled(false);
  // Keep node 0 busy so the fan matters.
  JobSpec spec;
  spec.id = 1;
  spec.user = "u";
  spec.nodes_requested = 1;
  JobPhase phase;
  phase.nominal_duration = 6 * kHour;
  phase.cpu_util = 1.0;
  spec.phases = {phase};
  spec.walltime_requested = 12 * kHour;
  cluster.scheduler().submit(spec);
  cluster.run_for(kHour);
  const double before = read_path(cluster, "rack00/node00/cpu_temp");
  cluster.faults().schedule({FaultKind::kFanFailure, "rack00/node00",
                             cluster.now(), cluster.now() + 6 * kHour, 1.0});
  cluster.run_for(kHour);
  EXPECT_GT(read_path(cluster, "rack00/node00/cpu_temp"), before + 3.0);
}

TEST(Cluster, JobsCompleteOverDay) {
  ClusterParams params;
  params.racks = 2;
  params.nodes_per_rack = 8;
  params.workload.peak_arrival_rate_per_hour = 30.0;
  params.workload.max_duration = 2 * kHour;
  ClusterSimulation cluster(params);
  cluster.run_for(kDay);
  EXPECT_GT(cluster.scheduler().completed().size(), 20u);
  // Energy accounted on completed jobs.
  for (const auto& r : cluster.scheduler().completed()) {
    if (r.outcome == JobOutcome::kFinished) {
      EXPECT_GT(r.energy_j, 0.0);
    }
  }
}

}  // namespace
}  // namespace oda::sim
