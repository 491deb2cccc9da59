// Tests for the telemetry pipeline: bus, store, collector, alerts,
// and derived sensors — including the sim -> store integration path.
#include <gtest/gtest.h>
#include <time.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/string_util.hpp"
#include "obs/metrics.hpp"
#include "sim/cluster.hpp"
#include "telemetry/alerts.hpp"
#include "telemetry/bus.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/sample.hpp"
#include "telemetry/series_id.hpp"
#include "telemetry/store.hpp"

namespace oda::telemetry {
namespace {

// -------------------------------------------------------------------- bus

TEST(MessageBus, DeliversToMatchingSubscribers) {
  MessageBus bus;
  int node_hits = 0, all_hits = 0;
  bus.subscribe("rack*/node*/power", [&](const Reading&) { ++node_hits; });
  bus.subscribe("*", [&](const Reading&) { ++all_hits; });
  bus.publish(Reading{"rack00/node01/power", {10, 150.0}});
  bus.publish(Reading{"facility/pue", {10, 1.3}});
  EXPECT_EQ(node_hits, 1);
  EXPECT_EQ(all_hits, 2);
  EXPECT_EQ(bus.published_count(), 2u);
  EXPECT_EQ(bus.delivered_count(), 3u);
}

TEST(MessageBus, UnsubscribeStopsDelivery) {
  MessageBus bus;
  int hits = 0;
  const auto id = bus.subscribe("*", [&](const Reading&) { ++hits; });
  bus.publish(Reading{"x", {0, 1.0}});
  bus.unsubscribe(id);
  bus.publish(Reading{"x", {0, 1.0}});
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(bus.subscriber_count(), 0u);
}

TEST(MessageBus, ReentrantPublishDoesNotDeadlock) {
  MessageBus bus;
  int secondary = 0;
  bus.subscribe("primary", [&](const Reading& r) {
    bus.publish(
        Reading{"secondary", {r.sample.time, r.sample.value * 2.0}});
  });
  bus.subscribe("secondary", [&](const Reading&) { ++secondary; });
  bus.publish(Reading{"primary", {0, 1.0}});
  EXPECT_EQ(secondary, 1);
}

/// One delivery as a subscriber saw it: (subscriber, path, time, value).
struct Delivered {
  int subscriber;
  std::string path;
  TimePoint time;
  double value;
  friend bool operator==(const Delivered&, const Delivered&) = default;
};

/// A bus whose subscriptions, one per pattern, append to `log`.
void subscribe_recorders(MessageBus& bus,
                         const std::vector<std::string>& patterns,
                         std::vector<Delivered>& log) {
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    bus.subscribe(patterns[i], [&log, i](const Reading& r) {
      log.push_back({static_cast<int>(i), r.path, r.sample.time,
                     r.sample.value});
    });
  }
}

std::vector<IdReading> interned(const std::vector<std::string>& paths) {
  std::vector<IdReading> out;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    out.push_back({SeriesInterner::global().intern(paths[i]),
                   {static_cast<TimePoint>(10 + i), 0.5 * static_cast<double>(i)}});
  }
  return out;
}

TEST(MessageBus, BatchMatchesSinglePublishes) {
  const std::vector<IdReading> batch = interned(
      {"rack00/node01/power", "facility/pue", "rack00/node01/cpu_temp",
       "rack01/node07/power", "facility/supply_temp", "orphan/metric",
       "rack00/node01/power"});
  // With "*" every reading is routed; without it some are not, so the
  // unrouted count is compared too.
  for (const std::vector<std::string>& patterns :
       {std::vector<std::string>{"*", "rack*/node*/power", "facility/*"},
        std::vector<std::string>{"rack*/node*/power", "facility/*"}}) {
    std::vector<Delivered> batched, single;
    MessageBus a, b;
    subscribe_recorders(a, patterns, batched);
    subscribe_recorders(b, patterns, single);
    a.publish_batch(batch);
    for (const IdReading& r : batch) {
      b.publish(Reading{SeriesInterner::global().path(r.id), r.sample});
    }
    EXPECT_FALSE(batched.empty());
    EXPECT_EQ(batched, single);
    EXPECT_EQ(a.published_count(), batch.size());
    EXPECT_EQ(a.published_count(), b.published_count());
    EXPECT_EQ(a.delivered_count(), b.delivered_count());
    EXPECT_EQ(a.delivered_count(), batched.size());
    EXPECT_EQ(a.unrouted_count(), b.unrouted_count());
  }
}

TEST(MessageBus, RoutesFollowSubscriptionChanges) {
  MessageBus bus;
  std::vector<Delivered> log;
  const auto power = bus.subscribe("rack*/node*/power", [&](const Reading& r) {
    log.push_back({0, r.path, r.sample.time, r.sample.value});
  });
  std::vector<IdReading> batch =
      interned({"rack02/node03/power", "facility/routes_pue"});

  bus.publish_batch(batch);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].path, "rack02/node03/power");
  EXPECT_EQ(bus.unrouted_count(), 1u);

  // Swap the subscription set between batches: the next batch routes by
  // the new set, not by routes resolved for the old one.
  bus.subscribe("facility/*", [&](const Reading& r) {
    log.push_back({1, r.path, r.sample.time, r.sample.value});
  });
  bus.unsubscribe(power);
  log.clear();
  bus.publish_batch(batch);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].subscriber, 1);
  EXPECT_EQ(log[0].path, "facility/routes_pue");
  EXPECT_EQ(bus.unrouted_count(), 2u);

  // An id interned after the routes were resolved is routed on first use.
  batch.push_back({SeriesInterner::global().intern("facility/routes_late"),
                   {99, 7.0}});
  log.clear();
  bus.publish_batch(batch);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[1], (Delivered{1, "facility/routes_late", 99, 7.0}));
  EXPECT_EQ(bus.unrouted_count(), 3u);
  EXPECT_EQ(bus.published_count(), 7u);
  EXPECT_EQ(bus.delivered_count(), 4u);
}

TEST(MessageBus, SubscribeFromCallbackAppliesToNextPublish) {
  MessageBus bus;
  int late_hits = 0;
  bool subscribed = false;
  bus.subscribe("cb/*", [&](const Reading&) {
    if (subscribed) return;
    subscribed = true;
    bus.subscribe("cb/*", [&](const Reading&) { ++late_hits; });
  });
  // The first reading's callback subscribes; the rest of this batch still
  // routes by the set it started with.
  bus.publish_batch(interned({"cb/one", "cb/two", "cb/three"}));
  EXPECT_TRUE(subscribed);
  EXPECT_EQ(late_hits, 0);
  EXPECT_EQ(bus.delivered_count(), 3u);
  bus.publish_batch(interned({"cb/one", "cb/two"}));
  EXPECT_EQ(late_hits, 2);
  bus.publish(Reading{"cb/one", {0, 1.0}});
  EXPECT_EQ(late_hits, 3);
}

// ------------------------------------------------------------------ store

TEST(Store, InsertAndQueryRange) {
  TimeSeriesStore store;
  for (TimePoint t = 0; t < 100; t += 10) {
    store.insert("s", {t, static_cast<double>(t)});
  }
  const auto slice = store.query("s", 20, 60);
  ASSERT_EQ(slice.size(), 4u);
  EXPECT_EQ(slice.times.front(), 20);
  EXPECT_EQ(slice.times.back(), 50);
  EXPECT_EQ(store.sample_count(SeriesInterner::global().intern("s")), 10u);
}

TEST(Store, LatestAndMissing) {
  TimeSeriesStore store;
  EXPECT_FALSE(store.latest("nope").has_value());
  store.insert("s", {5, 1.5});
  store.insert("s", {6, 2.5});
  EXPECT_DOUBLE_EQ(store.latest("s")->value, 2.5);
  EXPECT_TRUE(store.query("nope", 0, 100).empty());
}

TEST(Store, CapacityBoundsRetention) {
  TimeSeriesStore store(4);
  for (TimePoint t = 0; t < 10; ++t) store.insert("s", {t, 0.0});
  EXPECT_EQ(store.sample_count(SeriesInterner::global().intern("s")), 4u);
  const auto slice = store.query_all("s");
  EXPECT_EQ(slice.times.front(), 6);
}

TEST(Store, AggregatedBuckets) {
  TimeSeriesStore store;
  for (TimePoint t = 0; t < 60; ++t) {
    store.insert("s", {t, static_cast<double>(t < 30 ? 10 : 20)});
  }
  const auto agg = store.query_aggregated("s", 0, 60, 30, Aggregation::kMean);
  ASSERT_EQ(agg.size(), 2u);
  EXPECT_DOUBLE_EQ(agg.values[0], 10.0);
  EXPECT_DOUBLE_EQ(agg.values[1], 20.0);
  const auto mx = store.query_aggregated("s", 0, 60, 60, Aggregation::kMax);
  EXPECT_DOUBLE_EQ(mx.values[0], 20.0);
  const auto cnt = store.query_aggregated("s", 0, 60, 60, Aggregation::kCount);
  EXPECT_DOUBLE_EQ(cnt.values[0], 60.0);
}

TEST(Store, FrameAlignsMultipleSensors) {
  TimeSeriesStore store;
  for (TimePoint t = 0; t < 40; t += 10) {
    store.insert("a", {t, 1.0});
    if (t < 20) store.insert("b", {t, 2.0});  // b stops early
  }
  const auto f = store.frame({"a", "b"}, 0, 40, 10);
  ASSERT_EQ(f.rows(), 4u);
  ASSERT_EQ(f.cols(), 2u);
  EXPECT_DOUBLE_EQ(f.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(f.at(0, 1), 2.0);
  EXPECT_TRUE(std::isnan(f.at(3, 1)));  // missing data is NaN
  EXPECT_EQ(f.column_values(1).size(), 4u);
  EXPECT_DOUBLE_EQ(f.column_values(1)[1], 2.0);
}

TEST(Store, MatchGlob) {
  TimeSeriesStore store;
  store.insert("rack00/node00/power", {0, 1.0});
  store.insert("rack00/node01/power", {0, 1.0});
  store.insert("facility/pue", {0, 1.0});
  EXPECT_EQ(store.match("rack*/node*/power").size(), 2u);
}

TEST(Store, MatchFollowsTheCatalog) {
  TimeSeriesStore store;
  const auto fresh = [&](const std::string& pattern) {
    std::vector<std::string> out;
    for (const auto& p : store.paths()) {
      if (glob_match(pattern, p)) out.push_back(p);
    }
    return out;
  };
  const std::string pattern = "match-memo/rack*/temp";
  store.insert("match-memo/rack1/temp", {0, 1.0});
  store.insert("match-memo/rack0/temp", {0, 1.0});
  store.insert("match-memo/rack0/power", {0, 1.0});
  EXPECT_EQ(store.match(pattern),
            (std::vector<std::string>{"match-memo/rack0/temp",
                                      "match-memo/rack1/temp"}));
  // A new matching series shows up in the next call; a new sample in a
  // known series or a new non-matching series changes nothing.
  store.insert("match-memo/rack2/temp", {0, 1.0});
  EXPECT_EQ(store.match(pattern).size(), 3u);
  EXPECT_EQ(store.match(pattern), fresh(pattern));
  store.insert("match-memo/rack2/temp", {10, 2.0});
  store.insert("match-memo/rack2/power", {0, 1.0});
  EXPECT_EQ(store.match(pattern), fresh(pattern));
  EXPECT_EQ(store.match("match-memo/*"), fresh("match-memo/*"));
  store.insert("match-memo/rack3/temp", {0, 1.0});
  EXPECT_EQ(store.match(pattern), fresh(pattern));
  EXPECT_EQ(store.match(pattern).size(), 4u);
  // Another store has its own catalog.
  TimeSeriesStore other;
  EXPECT_TRUE(other.match(pattern).empty());
}

TEST(Store, IdFrameMatchesStringFrame) {
  TimeSeriesStore store;
  for (TimePoint t = 0; t < 40; t += 5) {
    store.insert("id-frame/a", {t, static_cast<double>(t)});
    store.insert("id-frame/b", {t, 2.0 * static_cast<double>(t)});
  }
  const std::vector<std::string> paths = {"id-frame/b", "id-frame/none",
                                          "id-frame/a"};
  const std::vector<SeriesId> ids = {
      SeriesInterner::global().intern("id-frame/b"), SeriesId{},
      SeriesInterner::global().intern("id-frame/a")};
  const Frame by_path = store.frame(paths, 0, 40, 10);
  const Frame by_id = store.frame(std::span<const SeriesId>(ids), 0, 40, 10);
  ASSERT_EQ(by_id.rows(), by_path.rows());
  ASSERT_EQ(by_id.cols(), 3u);
  EXPECT_EQ(by_id.columns,
            (std::vector<std::string>{"id-frame/b", "", "id-frame/a"}));
  EXPECT_EQ(by_path.columns, paths);
  EXPECT_EQ(by_id.times, by_path.times);
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t r = 0; r < by_id.rows(); ++r) {
      if (c == 1) {
        EXPECT_TRUE(std::isnan(by_id.at(r, c)));
        EXPECT_TRUE(std::isnan(by_path.at(r, c)));
      } else {
        EXPECT_EQ(by_id.at(r, c), by_path.at(r, c));
      }
    }
  }
  EXPECT_EQ(by_id.at(1, 0), 25.0);  // mean of b at t = 10, 15
}

// -------------------------------------------------------------- collector

TEST(Collector, SamplesIntoStoreAtPeriod) {
  sim::ClusterParams params;
  params.racks = 1;
  params.nodes_per_rack = 2;
  params.dt = 15;
  sim::ClusterSimulation cluster(params);
  TimeSeriesStore store;
  Collector collector(cluster, &store, nullptr);
  collector.add_group({"facility", "facility/*", 30});
  for (int i = 0; i < 8; ++i) {  // 2 minutes at dt=15
    cluster.step();
    collector.collect();
  }
  // period 30 with dt 15 -> every other step.
  SeriesInterner& interner = SeriesInterner::global();
  EXPECT_EQ(store.sample_count(interner.intern("facility/pue")), 4u);
  // not in group
  EXPECT_EQ(store.sample_count(interner.intern("weather/drybulb_temp")), 0u);
}

TEST(Collector, PublishesToBus) {
  sim::ClusterParams params;
  params.racks = 1;
  params.nodes_per_rack = 2;
  sim::ClusterSimulation cluster(params);
  MessageBus bus;
  std::atomic<int> readings{0};
  bus.subscribe("rack00/*", [&](const Reading&) { ++readings; });
  Collector collector(cluster, nullptr, &bus);
  collector.add_all_sensors(15);
  cluster.step();
  collector.collect();
  EXPECT_GT(readings.load(), 0);
}

TEST(Collector, GroupReportsMatchedCount) {
  sim::ClusterParams params;
  params.racks = 2;
  params.nodes_per_rack = 4;
  sim::ClusterSimulation cluster(params);
  Collector collector(cluster, nullptr, nullptr);
  EXPECT_EQ(collector.add_group({"power", "rack*/node*/power", 60}), 8u);
}

// ----------------------------------------------------------------- alerts

TEST(Alerts, FiresAfterHoldAndClearsWithHysteresis) {
  AlertEngine engine;
  AlertRule rule;
  rule.name = "hot";
  rule.sensor_pattern = "t";
  rule.threshold = 80.0;
  rule.hold = 20;
  rule.hysteresis = 5.0;
  engine.add_rule(rule);

  engine.observe({"t", {0, 85.0}});   // violation starts
  EXPECT_EQ(engine.active_count(), 0u);  // hold not elapsed
  engine.observe({"t", {10, 86.0}});
  EXPECT_EQ(engine.active_count(), 0u);
  engine.observe({"t", {25, 87.0}});
  EXPECT_EQ(engine.active_count(), 1u);  // fired
  engine.observe({"t", {30, 78.0}});     // below threshold but inside hysteresis
  EXPECT_EQ(engine.active_count(), 1u);
  engine.observe({"t", {35, 74.0}});     // below threshold - hysteresis
  EXPECT_EQ(engine.active_count(), 0u);
  ASSERT_EQ(engine.history().size(), 1u);
  EXPECT_TRUE(engine.history()[0].cleared);
}

TEST(Alerts, ViolationInterruptedResetsHold) {
  AlertEngine engine;
  AlertRule rule;
  rule.name = "hot";
  rule.sensor_pattern = "t";
  rule.threshold = 80.0;
  rule.hold = 20;
  engine.add_rule(rule);
  engine.observe({"t", {0, 85.0}});
  engine.observe({"t", {10, 70.0}});  // back to normal
  engine.observe({"t", {15, 85.0}});
  engine.observe({"t", {30, 85.0}});  // only 15s of continuous violation
  EXPECT_EQ(engine.active_count(), 0u);
  engine.observe({"t", {40, 85.0}});
  EXPECT_EQ(engine.active_count(), 1u);
}

TEST(Alerts, BelowComparisonAndCallback) {
  AlertEngine engine;
  AlertRule rule;
  rule.name = "flow-low";
  rule.sensor_pattern = "flow";
  rule.comparison = AlertComparison::kBelow;
  rule.threshold = 1.0;
  rule.severity = AlertSeverity::kCritical;
  engine.add_rule(rule);
  int callbacks = 0;
  engine.set_callback([&](const Alert& a) {
    ++callbacks;
    EXPECT_EQ(a.severity, AlertSeverity::kCritical);
  });
  engine.observe({"flow", {0, 0.2}});
  EXPECT_EQ(engine.active_count(), 1u);
  EXPECT_EQ(callbacks, 1);
}

TEST(Alerts, PerSensorStateIndependent) {
  AlertEngine engine;
  AlertRule rule;
  rule.name = "hot";
  rule.sensor_pattern = "rack*/temp";
  rule.threshold = 50.0;
  engine.add_rule(rule);
  engine.observe({"rack0/temp", {0, 60.0}});
  engine.observe({"rack1/temp", {0, 40.0}});
  EXPECT_EQ(engine.active_count(), 1u);
  EXPECT_EQ(engine.active()[0].sensor, "rack0/temp");
}

// Hysteresis edge cases: the threshold itself is not a violation (strict
// compare), and the clear band is exclusive at threshold - hysteresis.
TEST(Alerts, ValueExactlyAtThresholdEdges) {
  AlertEngine engine;
  AlertRule rule;
  rule.name = "hot";
  rule.sensor_pattern = "t";
  rule.threshold = 80.0;
  rule.hold = 0;
  rule.hysteresis = 5.0;
  engine.add_rule(rule);

  engine.observe({"t", {0, 80.0}});  // exactly at threshold: no violation
  EXPECT_EQ(engine.active_count(), 0u);
  engine.observe({"t", {10, std::nextafter(80.0, 81.0)}});  // one ulp above
  EXPECT_EQ(engine.active_count(), 1u);
  engine.observe({"t", {20, 75.0}});  // exactly threshold - hysteresis: holds
  EXPECT_EQ(engine.active_count(), 1u);
  engine.observe({"t", {30, std::nextafter(75.0, 74.0)}});  // one ulp below
  EXPECT_EQ(engine.active_count(), 0u);
}

// A collection gap (no readings for a while) must not reset the hold timer:
// the violation window straddles the gap.
TEST(Alerts, HoldWindowStraddlesCollectionGap) {
  AlertEngine engine;
  AlertRule rule;
  rule.name = "hot";
  rule.sensor_pattern = "t";
  rule.threshold = 80.0;
  rule.hold = 60;
  engine.add_rule(rule);

  engine.observe({"t", {0, 85.0}});  // violation starts
  EXPECT_EQ(engine.active_count(), 0u);
  // Sensor quarantined / breaker open: nothing arrives until t = 300.
  engine.observe({"t", {300, 85.0}});  // still violating after the gap
  EXPECT_EQ(engine.active_count(), 1u);
  ASSERT_EQ(engine.history().size(), 1u);
  EXPECT_EQ(engine.history()[0].raised_at, 300);
}

TEST(Alerts, RefiresAfterClear) {
  AlertEngine engine;
  AlertRule rule;
  rule.name = "hot";
  rule.sensor_pattern = "t";
  rule.threshold = 80.0;
  rule.hold = 20;
  rule.hysteresis = 5.0;
  engine.add_rule(rule);

  engine.observe({"t", {0, 85.0}});
  engine.observe({"t", {20, 85.0}});
  EXPECT_EQ(engine.active_count(), 1u);
  engine.observe({"t", {40, 70.0}});  // clears
  EXPECT_EQ(engine.active_count(), 0u);
  engine.observe({"t", {60, 85.0}});  // second episode: hold starts fresh
  EXPECT_EQ(engine.active_count(), 0u);
  engine.observe({"t", {80, 85.0}});
  EXPECT_EQ(engine.active_count(), 1u);
  ASSERT_EQ(engine.history().size(), 2u);
  EXPECT_TRUE(engine.history()[0].cleared);
  EXPECT_FALSE(engine.history()[1].cleared);
}

TEST(Alerts, HistoryCapEvictsOldestClearedAndKeepsActiveValid) {
  AlertEngine engine;
  AlertRule rule;
  rule.name = "hot";
  rule.sensor_pattern = "*";
  rule.threshold = 1.0;
  rule.hysteresis = 0.0;
  engine.add_rule(rule);

  // One alert stays active the whole time (pinned in history).
  engine.observe({"pinned", {0, 5.0}});
  EXPECT_EQ(engine.active_count(), 1u);

  // Churn far more fire/clear episodes than the cap on another sensor.
  TimePoint t = 10;
  for (std::size_t i = 0; i < 2 * AlertEngine::kHistoryCapacity; ++i) {
    engine.observe({"churn", {t, 5.0}});
    engine.observe({"churn", {t + 1, 0.0}});
    t += 10;
  }
  EXPECT_LE(engine.history().size(), AlertEngine::kHistoryCapacity);
  EXPECT_GT(engine.history_evicted(), 0u);
  // The long-lived alert's record survived eviction and still clears
  // correctly through its remapped history index.
  ASSERT_EQ(engine.active_count(), 1u);
  EXPECT_EQ(engine.active()[0].sensor, "pinned");
  engine.observe({"pinned", {t, 0.0}});
  EXPECT_EQ(engine.active_count(), 0u);
  bool found_cleared_pinned = false;
  for (const auto& a : engine.history()) {
    if (a.sensor == "pinned" && a.cleared) found_cleared_pinned = true;
  }
  EXPECT_TRUE(found_cleared_pinned);
}

// ------------------------------------------------------------- unrouted

TEST(MessageBus, CountsUnroutedPublishes) {
  MessageBus bus;
  bus.subscribe("rack0/*", [](const Reading&) {});
  const auto before = bus.unrouted_count();
  bus.publish(Reading{"rack0/power", {0, 1.0}});    // routed
  bus.publish(Reading{"orphan/metric", {0, 1.0}});  // no subscriber
  // Same prefix: counted, logged once.
  bus.publish(Reading{"orphan/other", {0, 1.0}});
  EXPECT_EQ(bus.unrouted_count(), before + 2);
}

// ------------------------------------------------------- slow deliveries

// A delivery is slow by the CPU it uses, not by the wall time it spans: a
// subscriber that is off the CPU for 20 ms (as a descheduled publisher
// thread would be) is not slow; one that computes for 20 ms is.
TEST(MessageBus, SlowCheckCountsCpuNotWallTime) {
  const auto slow = [] {
    return obs::MetricsRegistry::global().snapshot().total(
        "oda_bus_slow_deliveries_total");
  };
  const auto thread_cpu_s = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  };
  MessageBus bus;
  bus.subscribe("idle/*", [](const Reading&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  bus.subscribe("busy/*", [&](const Reading&) {
    const double start = thread_cpu_s();
    while (thread_cpu_s() - start < 0.020) {
    }
  });
  const double before = slow();
  bus.publish(Reading{"idle/x", {0, 1.0}});
  EXPECT_EQ(slow(), before);
  bus.publish(Reading{"busy/x", {0, 1.0}});
  EXPECT_EQ(slow(), before + 1);
}

// ---------------------------------------------------------- empty groups

TEST(Collector, WarnsOnPatternMatchingNothing) {
  sim::ClusterParams params;
  params.racks = 1;
  params.nodes_per_rack = 2;
  sim::ClusterSimulation cluster(params);
  Collector collector(cluster, nullptr, nullptr);
  CaptureSink capture;
  EXPECT_EQ(collector.add_group({"typo", "rak*/node*/power", 60}), 0u);
  bool warned = false;
  for (const auto& line : capture.lines()) {
    if (line.find("matched no sensors") != std::string::npos) warned = true;
  }
  EXPECT_TRUE(warned);
}

}  // namespace
}  // namespace oda::telemetry
