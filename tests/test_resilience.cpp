// Resilient-pipeline tests (docs/RESILIENCE.md): failable sensor reads,
// retry/backoff determinism, circuit-breaker lifecycle, sensor-health
// quarantine scored against injected ground truth, the analytics quality
// overlay, and a randomized chaos campaign over the full pipeline with exact
// gap accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "analytics/descriptive/aggregation.hpp"
#include "analytics/descriptive/kpi.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "sim/cluster.hpp"
#include "sim/faults.hpp"
#include "telemetry/bus.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/health.hpp"
#include "telemetry/store.hpp"

namespace oda::telemetry {
namespace {

sim::ClusterParams small_params(std::uint64_t seed = 1) {
  sim::ClusterParams params;
  params.racks = 1;
  params.nodes_per_rack = 4;
  params.dt = 15;
  params.seed = seed;
  return params;
}

// ------------------------------------------------------------ read faults

TEST(ReadFaults, DropoutFailsReadsAtScheduledWindow) {
  sim::ClusterSimulation cluster(small_params());
  cluster.faults().schedule(
      {sim::FaultKind::kSensorDropout, "facility/pue", 30, 90, 1.0});
  const std::size_t pue = *cluster.find_sensor("facility/pue");
  Rng rng(1);
  for (int i = 0; i < 8; ++i) {
    cluster.step();
    const auto r = cluster.try_read_sensor(pue, rng);
    const bool faulted = cluster.now() >= 30 && cluster.now() < 90;
    EXPECT_EQ(r.ok, !faulted) << "t=" << cluster.now();
    EXPECT_DOUBLE_EQ(r.latency_s, 0.0);
  }
}

TEST(ReadFaults, StallChargesSimulatedLatency) {
  sim::ClusterSimulation cluster(small_params());
  cluster.faults().schedule(
      {sim::FaultKind::kSensorStall, "facility/pue", 0, kHour, 10.0});
  cluster.step();
  Rng rng(1);
  const auto r =
      cluster.try_read_sensor(*cluster.find_sensor("facility/pue"), rng);
  EXPECT_TRUE(r.ok);  // a stall delays the value, it does not drop it
  EXPECT_GE(r.latency_s, 8.0);   // magnitude jittered +/-20%
  EXPECT_LE(r.latency_s, 12.0);
  // An unaffected sensor costs nothing.
  const auto other =
      cluster.try_read_sensor(*cluster.find_sensor("weather/drybulb_temp"), rng);
  EXPECT_TRUE(other.ok);
  EXPECT_DOUBLE_EQ(other.latency_s, 0.0);
}

TEST(ReadFaults, IsReadFaultClassification) {
  EXPECT_TRUE(sim::is_read_fault(sim::FaultKind::kSensorDropout));
  EXPECT_TRUE(sim::is_read_fault(sim::FaultKind::kSensorStall));
  EXPECT_FALSE(sim::is_read_fault(sim::FaultKind::kSensorStuck));
  EXPECT_FALSE(sim::is_read_fault(sim::FaultKind::kFanFailure));
  // Read faults are sensor-targeted.
  EXPECT_TRUE(sim::is_sensor_fault(sim::FaultKind::kSensorDropout));
  EXPECT_TRUE(sim::is_sensor_fault(sim::FaultKind::kSensorStall));
}

// --------------------------------------------------------------- backoff

TEST(RetryBackoff, DeterministicForFixedSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(retry_backoff_s(i, a), retry_backoff_s(i, b));
  }
}

TEST(RetryBackoff, ExponentialWithBoundedJitter) {
  // The shipped schedule: 0.25 s doubling per retry, +/-25% jitter.
  Rng rng(7);
  for (int i = 0; i < 6; ++i) {
    const double nominal = 0.25 * std::pow(2.0, i);
    const double b = retry_backoff_s(i, rng);
    EXPECT_GE(b, nominal * 0.75);
    EXPECT_LE(b, nominal * 1.25);
  }
  // Exact exponential: the nominal 2.0 s of retry 3 scaled by exactly the
  // one jitter draw the read's Rng supplies.
  Rng drawn(1), probe(1);
  EXPECT_DOUBLE_EQ(retry_backoff_s(3, drawn),
                   2.0 * (1.0 + 0.25 * probe.uniform(-1.0, 1.0)));
}

// ---------------------------------------------------------------- breaker

TEST(CircuitBreaker, OpensHalfOpensAndRecloses) {
  sim::ClusterSimulation cluster(small_params());
  // Total dropout on one sensor for [15, 300): the breaker must open (after
  // the fifth failed pass, t=75), probe while the fault lasts (t=195 fails
  // and re-opens), and re-close once reads succeed again (probes at 315 and
  // 330).
  cluster.faults().schedule(
      {sim::FaultKind::kSensorDropout, "facility/pue", 15, 300, 1.0});
  TimeSeriesStore store;
  Collector collector(cluster, &store, nullptr);
  collector.add_group({"pue", "facility/pue", 15});

  bool saw_open = false;
  TimePoint opened_at = -1;
  TimePoint reclosed_at = -1;
  while (cluster.now() < 600) {
    cluster.step();
    collector.collect();
    const BreakerState state = collector.breaker_state("facility/pue");
    if (state == BreakerState::kOpen) {
      if (!saw_open) opened_at = cluster.now();
      saw_open = true;
      EXPECT_EQ(collector.open_breakers(), 1u);
    } else if (saw_open && state == BreakerState::kClosed &&
               reclosed_at < 0) {
      reclosed_at = cluster.now();
    }
  }
  EXPECT_TRUE(saw_open);
  // The shipped constants pass by pass: each of the five closed-state
  // reads took 3 attempts (2 retries); a half-open probe does not retry.
  EXPECT_EQ(opened_at, 75);
  EXPECT_EQ(reclosed_at, 330);
  EXPECT_EQ(collector.retries_total(), 10u);
  // Fault is long gone: breaker closed again and samples flowing.
  EXPECT_EQ(collector.breaker_state("facility/pue"), BreakerState::kClosed);
  EXPECT_EQ(collector.open_breakers(), 0u);
  EXPECT_GT(store.sample_count(SeriesInterner::global().intern("facility/pue")),
            0u);
  EXPECT_GT(collector.retries_total(), 0u);
  // Exact conservation: every expected sample is either ingested or an
  // accounted gap.
  EXPECT_EQ(collector.samples_expected(),
            collector.samples_collected() + collector.gaps_total());
  EXPECT_EQ(store.total_inserted(), collector.samples_collected());
}

TEST(CircuitBreaker, DeadlineBoundsStalledSensor) {
  sim::ClusterSimulation cluster(small_params());
  // Stall far beyond the deadline: every read must give up at the budget
  // (never block) and the breaker must open.
  cluster.faults().schedule(
      {sim::FaultKind::kSensorStall, "facility/pue", 15, kHour, 60.0});
  // The breaker opens after the fifth timed-out pass (t=75); its 120 s
  // cooldown outlasts the remaining passes.
  TimeSeriesStore store;
  Collector collector(cluster, &store, nullptr);
  collector.add_group({"pue", "facility/pue", 15});

  for (int i = 0; i < 10; ++i) {
    cluster.step();
    collector.collect();
  }
  EXPECT_EQ(store.sample_count(SeriesInterner::global().intern("facility/pue")),
            0u);
  EXPECT_EQ(collector.breaker_state("facility/pue"), BreakerState::kOpen);
  EXPECT_EQ(collector.samples_expected(),
            collector.samples_collected() + collector.gaps_total());
  EXPECT_EQ(collector.gaps_total(), 10u);
}

// ----------------------------------------------------------------- health

HealthPolicy outcome_only_policy() {
  HealthPolicy policy;
  policy.flatline_run = 0;      // value heuristics off: these tests score
  policy.out_of_range_run = 0;  // the read-outcome path in isolation
  policy.staleness = 0;
  return policy;
}

TEST(SensorHealth, UnknownSeriesReportsHealthy) {
  SensorHealthTracker tracker;
  EXPECT_EQ(tracker.state("never/seen"), SensorState::kHealthy);
  EXPECT_TRUE(tracker.usable("never/seen"));
  EXPECT_EQ(tracker.counts().tracked, 0u);
}

TEST(SensorHealth, FailureRateDrivesFlakyAndQuarantine) {
  SensorHealthTracker tracker(outcome_only_policy());
  const SeriesId id = SeriesInterner::global().intern("hx/sensor");
  // 4 failures in a row: rate 1.0 => quarantined (min_observations = 4).
  for (int i = 0; i < 4; ++i) {
    tracker.record_failure(id, "hx/sensor", 15 * (i + 1), ReadOutcome::kDropout);
  }
  EXPECT_EQ(tracker.state("hx/sensor"), SensorState::kQuarantined);
  EXPECT_FALSE(tracker.usable("hx/sensor"));
  EXPECT_EQ(tracker.quarantined(), std::vector<std::string>{"hx/sensor"});
  // Recovery: policy.recovery_successes clean reads return it to healthy.
  TimePoint t = 100;
  for (std::size_t i = 0; i < tracker.policy().recovery_successes; ++i) {
    tracker.record_success(id, "hx/sensor", t, 1.0 + 0.1 * static_cast<double>(i));
    t += 15;
  }
  EXPECT_EQ(tracker.state("hx/sensor"), SensorState::kHealthy);
  EXPECT_TRUE(tracker.usable("hx/sensor"));
  EXPECT_GE(tracker.transitions(), 2u);
}

TEST(SensorHealth, FlatlineAfterVariationQuarantines) {
  HealthPolicy policy;
  policy.flatline_run = 5;
  SensorHealthTracker tracker(policy);
  const SeriesId born_flat = SeriesInterner::global().intern("hx/constant");
  const SeriesId went_flat = SeriesInterner::global().intern("hx/stuck");
  TimePoint t = 0;
  for (int i = 0; i < 20; ++i) {
    t += 15;
    // A sensor that never varied is not "stuck", it is just constant.
    tracker.record_success(born_flat, "hx/constant", t, 42.0);
    // One that varied and then froze is stuck.
    const double v = i < 4 ? static_cast<double>(i) : 99.0;
    tracker.record_success(went_flat, "hx/stuck", t, v);
  }
  EXPECT_EQ(tracker.state("hx/constant"), SensorState::kHealthy);
  EXPECT_EQ(tracker.state("hx/stuck"), SensorState::kQuarantined);
}

TEST(SensorHealth, OutOfRangeRunQuarantines) {
  HealthPolicy policy;
  policy.out_of_range_run = 3;
  policy.flatline_run = 0;
  SensorHealthTracker tracker(policy);
  tracker.set_range("hx/temp*", -20.0, 120.0);
  const SeriesId id = SeriesInterner::global().intern("hx/temp0");
  tracker.record_success(id, "hx/temp0", 15, 55.0);
  for (int i = 0; i < 3; ++i) {
    tracker.record_success(id, "hx/temp0", 30 + 15 * i, 4000.0 + i);
  }
  EXPECT_EQ(tracker.state("hx/temp0"), SensorState::kQuarantined);
}

TEST(SensorHealth, StalenessSweepQuarantines) {
  HealthPolicy policy;
  policy.staleness = 10 * kMinute;
  SensorHealthTracker tracker(policy);
  const SeriesId id = SeriesInterner::global().intern("hx/stale");
  tracker.record_success(id, "hx/stale", 60, 1.0);
  tracker.step(5 * kMinute);
  EXPECT_EQ(tracker.state("hx/stale"), SensorState::kHealthy);
  tracker.step(20 * kMinute);
  EXPECT_EQ(tracker.state("hx/stale"), SensorState::kQuarantined);
}

TEST(SensorHealth, QuarantineTransitionsPublishOnBus) {
  MessageBus bus;
  std::vector<std::string> events;
  bus.subscribe("_health/*", [&](const Reading& r) { events.push_back(r.path); });
  SensorHealthTracker tracker(outcome_only_policy(), &bus);
  const SeriesId id = SeriesInterner::global().intern("hx/pub");
  for (int i = 0; i < 4; ++i) {
    tracker.record_failure(id, "hx/pub", 15 * (i + 1), ReadOutcome::kDeadline);
  }
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front(), "_health/hx/pub");
}

// Quarantine scored against injected ground truth: precision and recall of
// the quarantined set vs the sensors that actually had read faults.
TEST(SensorHealth, QuarantinePrecisionRecallAgainstGroundTruth) {
  sim::ClusterParams params = small_params(11);
  params.nodes_per_rack = 8;
  sim::ClusterSimulation cluster(params);
  TimeSeriesStore store;
  SensorHealthTracker tracker(outcome_only_policy());
  Collector collector(cluster, &store, nullptr);
  collector.set_health_tracker(&tracker);
  collector.add_all_sensors(15);

  // Fault every 10th sensor with total dropout for the rest of the run.
  const auto& sensors = cluster.sensors();
  ASSERT_GT(sensors.size(), 30u);
  std::set<std::string> truth;
  for (std::size_t i = 0; i < sensors.size(); i += 10) {
    truth.insert(sensors[i].path);
    cluster.faults().schedule(
        {sim::FaultKind::kSensorDropout, sensors[i].path, 60, 2 * kHour, 1.0});
  }
  ASSERT_GE(truth.size(), 3u);

  while (cluster.now() < 30 * kMinute) {
    cluster.step();
    collector.collect();
  }

  const auto quarantined = tracker.quarantined();
  std::size_t true_positives = 0;
  for (const auto& path : quarantined) {
    if (truth.count(path) > 0) ++true_positives;
  }
  const double precision =
      quarantined.empty()
          ? 0.0
          : static_cast<double>(true_positives) /
                static_cast<double>(quarantined.size());
  const double recall = static_cast<double>(true_positives) /
                        static_cast<double>(truth.size());
  EXPECT_GE(precision, 0.8) << "quarantined " << quarantined.size()
                            << " sensors, " << true_positives << " correct";
  EXPECT_GE(recall, 0.8) << "found " << true_positives << " of "
                         << truth.size() << " faulted sensors";
}

// -------------------------------------------------------- quality overlay

TEST(QualityOverlay, AggregationSkipsQuarantinedAndReportsCoverage) {
  TimeSeriesStore store;
  for (TimePoint t = 0; t < 100; t += 10) {
    store.insert("rack00/node00/power", {t, 100.0});
    store.insert("rack00/node01/power", {t, 100.0});
    store.insert("rack00/node02/power", {t, 1e9});  // poisoned
  }
  SensorHealthTracker tracker(outcome_only_policy());
  const SeriesId bad = SeriesInterner::global().intern("rack00/node02/power");
  for (int i = 0; i < 4; ++i) {
    tracker.record_failure(bad, "rack00/node02/power", 15 * (i + 1),
                           ReadOutcome::kDropout);
  }
  ASSERT_FALSE(tracker.usable("rack00/node02/power"));

  const auto plain = analytics::quantile_transport(store, "rack00/node*/power",
                                                   0, 100, 1);
  ASSERT_EQ(plain.size(), 1u);
  EXPECT_GT(plain[0].max, 1e8);  // poisoned value leaks without the overlay
  EXPECT_DOUBLE_EQ(plain[0].coverage, 1.0);

  const auto guarded = analytics::quantile_transport(
      store, "rack00/node*/power", 0, 100, 1, &tracker);
  ASSERT_EQ(guarded.size(), 1u);
  EXPECT_EQ(guarded[0].sensors, 2u);
  EXPECT_EQ(guarded[0].skipped, 1u);
  EXPECT_NEAR(guarded[0].coverage, 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(guarded[0].max, 100.0);

  const auto snaps = analytics::snapshot_sensors(store, "rack00/node*/power",
                                                 0, 100, &tracker);
  EXPECT_EQ(snaps.size(), 2u);
}

TEST(QualityOverlay, KpisReportCoverageAndNanOnQuarantine) {
  TimeSeriesStore store;
  for (TimePoint t = 0; t < 100; t += 10) {
    store.insert("facility/total_power", {t, 1200.0});
    store.insert("cluster/it_power", {t, 1000.0});
    store.insert("facility/cooling_power", {t, 150.0});
    store.insert("facility/pdu_loss", {t, 50.0});
    store.insert("scheduler/utilization", {t, 0.7});
  }
  SensorHealthTracker tracker(outcome_only_policy());
  for (const char* path : {"facility/cooling_power", "scheduler/utilization"}) {
    const SeriesId id = SeriesInterner::global().intern(path);
    for (int i = 0; i < 4; ++i) {
      tracker.record_failure(id, path, 15 * (i + 1), ReadOutcome::kDropout);
    }
  }

  const auto plain = analytics::compute_pue(store, 0, 100);
  EXPECT_DOUBLE_EQ(plain.coverage, 1.0);
  EXPECT_GT(plain.cooling_energy_kwh, 0.0);

  const auto guarded = analytics::compute_pue(store, 0, 100, &tracker);
  EXPECT_DOUBLE_EQ(guarded.coverage, 0.75);
  EXPECT_DOUBLE_EQ(guarded.cooling_energy_kwh, 0.0);
  EXPECT_DOUBLE_EQ(guarded.it_energy_kwh, plain.it_energy_kwh);

  EXPECT_NEAR(analytics::compute_utilization(store, 0, 100), 0.7, 1e-12);
  EXPECT_TRUE(std::isnan(analytics::compute_utilization(store, 0, 100, &tracker)));

  const std::vector<std::string> sensors = {
      "facility/total_power", "cluster/it_power", "scheduler/utilization"};
  const auto sie = analytics::compute_sie(store, sensors, 0, 100, 10, 4, &tracker);
  EXPECT_EQ(sie.sensors_used, 2u);
  EXPECT_NEAR(sie.coverage, 2.0 / 3.0, 1e-12);
}

// ------------------------------------------------- no-fault equivalence

// The whole resilience layer is a strict overlay: with no faults scheduled,
// a collector with a health tracker ingests a bit-identical stream to a
// plain one, and the retry/breaker path takes no retry and leaves no gap.
TEST(NoFaultEquivalence, ResilienceLayerIsBitIdenticalOverlay) {
  constexpr std::uint64_t kSeed = 99;
  sim::ClusterSimulation plain_cluster(small_params(kSeed));
  TimeSeriesStore plain_store;
  Collector plain(plain_cluster, &plain_store, nullptr);
  plain.add_all_sensors(15);

  sim::ClusterSimulation guarded_cluster(small_params(kSeed));
  TimeSeriesStore guarded_store;
  SensorHealthTracker tracker;
  Collector guarded(guarded_cluster, &guarded_store, nullptr);
  guarded.set_health_tracker(&tracker);
  guarded.add_all_sensors(15);

  for (int i = 0; i < 40; ++i) {
    plain_cluster.step();
    plain.collect();
    guarded_cluster.step();
    guarded.collect();
  }

  EXPECT_EQ(guarded.gaps_total(), 0u);
  EXPECT_EQ(guarded.retries_total(), 0u);
  ASSERT_EQ(plain_store.total_inserted(), guarded_store.total_inserted());
  for (const auto& path : plain_store.match("*")) {
    const auto a = plain_store.query_all(path);
    const auto b = guarded_store.query_all(path);
    ASSERT_EQ(a.size(), b.size()) << path;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a.times[i], b.times[i]) << path;
      // Bit-identical, not approximately equal.
      ASSERT_EQ(a.values[i], b.values[i]) << path << " @" << a.times[i];
    }
  }
  EXPECT_EQ(tracker.counts().quarantined, 0u);
  EXPECT_EQ(tracker.counts().flaky, 0u);
}

// ---------------------------------------------------------------- chaos

// Randomized full-pipeline campaign: a seeded schedule of dropout, stall,
// and overlay faults across the fleet; the pipeline must survive (no crash,
// no hang), account every sample exactly, and keep analytics runnable.
TEST(Chaos, RandomizedFaultCampaignConservesSamples) {
  sim::ClusterParams params;
  params.racks = 2;
  params.nodes_per_rack = 8;
  params.dt = 15;
  params.seed = 2026;
  sim::ClusterSimulation cluster(params);
  TimeSeriesStore store;
  MessageBus bus;
  ThreadPool pool(4);
  SensorHealthTracker tracker({}, &bus);
  Collector collector(cluster, &store, &bus, &pool);
  collector.set_health_tracker(&tracker);
  const std::size_t matched = collector.add_all_sensors(15);
  ASSERT_GE(matched, 64u);  // exercises the parallel read path

  // Seeded random fault schedule: kind, target, window, magnitude.
  Rng chaos(params.seed ^ 0xC4A05ULL);
  const auto& sensors = cluster.sensors();
  constexpr TimePoint kHorizon = 45 * kMinute;
  constexpr int kFaults = 24;
  for (int i = 0; i < kFaults; ++i) {
    const auto& target =
        sensors[static_cast<std::size_t>(chaos.uniform_int(
                    0, static_cast<std::int64_t>(sensors.size()) - 1))]
            .path;
    const TimePoint start = chaos.uniform_int(0, kHorizon / 2);
    const TimePoint end =
        start + chaos.uniform_int(2 * kMinute, kHorizon - start);
    switch (chaos.uniform_int(0, 3)) {
      case 0:
        cluster.faults().schedule(
            {sim::FaultKind::kSensorDropout, target, start, end,
             chaos.uniform(0.3, 1.0)});
        break;
      case 1:
        cluster.faults().schedule(
            {sim::FaultKind::kSensorStall, target, start, end,
             chaos.uniform(0.5, 12.0)});
        break;
      case 2:
        cluster.faults().schedule(
            {sim::FaultKind::kSensorStuck, target, start, end, 0.0});
        break;
      default:
        cluster.faults().schedule(
            {sim::FaultKind::kSensorNoise, target, start, end,
             chaos.uniform(1.0, 20.0)});
        break;
    }
  }

  while (cluster.now() < kHorizon) {
    cluster.step();
    collector.collect();
  }

  // Exact conservation under chaos: nothing lost, nothing double-counted.
  EXPECT_EQ(collector.samples_expected(),
            collector.samples_collected() + collector.gaps_total());
  EXPECT_EQ(store.total_inserted(), collector.samples_collected());
  EXPECT_GT(collector.gaps_total(), 0u);  // the campaign actually bit
  EXPECT_GT(collector.samples_collected(), 0u);  // and did not kill the feed

  // Analytics stay runnable over the damaged data, with the quality overlay
  // reporting (not hiding) the damage.
  const auto summaries = analytics::quantile_transport(
      store, "rack*/node*/power", 0, kHorizon, 1, &tracker);
  for (const auto& s : summaries) {
    EXPECT_GE(s.coverage, 0.0);
    EXPECT_LE(s.coverage, 1.0);
    EXPECT_TRUE(std::isfinite(s.mean));
  }
  const auto pue = analytics::compute_pue(store, 0, kHorizon, &tracker);
  EXPECT_GE(pue.coverage, 0.0);
  EXPECT_LE(pue.coverage, 1.0);
  EXPECT_TRUE(std::isfinite(pue.pue));

  const auto counts = tracker.counts();
  EXPECT_EQ(counts.tracked,
            counts.healthy + counts.flaky + counts.quarantined);
}

}  // namespace
}  // namespace oda::telemetry
