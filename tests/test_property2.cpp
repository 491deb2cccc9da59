// Second property-test suite: physical-model monotonicity laws, telemetry
// thread-safety under concurrent load, seasonal-forecast structure, and
// workload-generator invariants — parameterized over the relevant input
// families.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>

#include "analytics/predictive/forecaster.hpp"
#include "common/rng.hpp"
#include "sim/cluster.hpp"
#include "telemetry/bus.hpp"
#include "telemetry/store.hpp"

namespace oda {
namespace {

// ----------------------------------------- node physics monotonicity laws

class NodeUtilProperty : public ::testing::TestWithParam<double> {};

TEST_P(NodeUtilProperty, PowerMonotoneInUtilization) {
  const double util = GetParam();
  const auto settle = [](double u) {
    sim::Node node("n", {});
    sim::NodeDemand demand;
    demand.busy = true;
    demand.cpu_util = u;
    demand.mem_bw_util = 0.2;
    for (int i = 0; i < 600; ++i) node.step(demand, 25.0, 15);
    return node.power_w();
  };
  // Power at this utilization strictly exceeds power one notch below.
  EXPECT_GT(settle(util), settle(std::max(0.0, util - 0.2)) + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Utils, NodeUtilProperty,
                         ::testing::Values(0.3, 0.5, 0.7, 0.9),
                         [](const auto& suite_info) {
                           return "util" + std::to_string(static_cast<int>(
                                               suite_info.param * 100));
                         });

class NodeFreqProperty : public ::testing::TestWithParam<double> {};

TEST_P(NodeFreqProperty, ProgressAndPowerMonotoneInFrequency) {
  const double freq = GetParam();
  const auto settle = [](double f) {
    sim::NodeParams params;
    sim::Node node("n", params);
    std::vector<sim::KnobDef> knobs;
    node.enumerate_knobs(knobs);
    knobs[0].set(f);
    sim::NodeDemand demand;
    demand.busy = true;
    demand.cpu_util = 0.9;
    demand.mem_boundedness = 0.2;
    for (int i = 0; i < 600; ++i) node.step(demand, 25.0, 15);
    return std::pair<double, double>(node.power_w(), node.progress_rate());
  };
  const auto [p_hi, r_hi] = settle(freq);
  const auto [p_lo, r_lo] = settle(freq - 0.4);
  EXPECT_GT(p_hi, p_lo);
  EXPECT_GT(r_hi, r_lo);
}

INSTANTIATE_TEST_SUITE_P(Freqs, NodeFreqProperty,
                         ::testing::Values(1.8, 2.2, 2.6, 3.0),
                         [](const auto& suite_info) {
                           // Appended, not "f" + ...: GCC 12 at -O3 flags
                           // that with a false -Werror=restrict.
                           std::string name = "f";
                           name += std::to_string(
                               static_cast<int>(suite_info.param * 10));
                           return name;
                         });

// ---------------------------------------------- facility monotonicity laws

class FacilitySetpointProperty : public ::testing::TestWithParam<double> {};

TEST_P(FacilitySetpointProperty, ChillerPowerFallsWithSetpoint) {
  const double setpoint = GetParam();
  // Hot wet-bulb (34 C) keeps the condenser above the evaporator across the
  // whole setpoint sweep, so the COP-vs-lift law is actually in play (at low
  // wet-bulb the lift clamps and chiller power saturates).
  const auto chiller_power = [](double sp) {
    sim::Facility facility({});
    facility.set_cooling_mode(sim::CoolingMode::kChillerOnly);
    facility.set_supply_setpoint_c(sp);
    for (int i = 0; i < 400; ++i) facility.step(15000.0, 34.0, 15);
    return facility.chiller_power_w();
  };
  EXPECT_LT(chiller_power(setpoint), chiller_power(setpoint - 4.0));
}

INSTANTIATE_TEST_SUITE_P(Setpoints, FacilitySetpointProperty,
                         ::testing::Values(26.0, 30.0, 34.0, 38.0),
                         [](const auto& suite_info) {
                           return "sp" + std::to_string(static_cast<int>(
                                             suite_info.param));
                         });

TEST(FacilityProperty, CoolingPowerScalesWithHeat) {
  sim::Facility a({}), b({});
  a.set_cooling_mode(sim::CoolingMode::kChillerOnly);
  b.set_cooling_mode(sim::CoolingMode::kChillerOnly);
  for (int i = 0; i < 200; ++i) {
    a.step(10000.0, 20.0, 15);
    b.step(20000.0, 20.0, 15);
  }
  EXPECT_NEAR(b.chiller_power_w() / a.chiller_power_w(), 2.0, 0.05);
}

// ----------------------------------------------- store concurrency safety

TEST(StoreConcurrency, ParallelWritersAndReadersStayConsistent) {
  telemetry::TimeSeriesStore store(1 << 14);
  constexpr int kWriters = 4;
  constexpr int kSamplesPerWriter = 20000;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> read_errors{0};
  // Appended, not "w" + ...: GCC 12 at -O3 flags that with a false
  // -Werror=restrict.
  const auto writer_path = [](int w) {
    std::string path = "w";
    path += std::to_string(w);
    return path;
  };

  std::thread reader([&] {
    while (!stop.load()) {
      for (int w = 0; w < kWriters; ++w) {
        const auto slice = store.query_all(writer_path(w));
        // Values are the timestamps: any retained sample must satisfy that.
        for (std::size_t i = 0; i < slice.size(); ++i) {
          if (slice.values[i] != static_cast<double>(slice.times[i])) {
            ++read_errors;
          }
        }
      }
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&store, &writer_path, w] {
      const std::string path = writer_path(w);
      for (int i = 0; i < kSamplesPerWriter; ++i) {
        store.insert(path, {i, static_cast<double>(i)});
      }
    });
  }
  for (auto& t : writers) t.join();
  stop = true;
  reader.join();

  EXPECT_EQ(read_errors.load(), 0u);
  EXPECT_EQ(store.total_inserted(),
            static_cast<std::uint64_t>(kWriters) * kSamplesPerWriter);
  for (int w = 0; w < kWriters; ++w) {
    const auto slice = store.query_all(writer_path(w));
    // Retained window is the tail and strictly ordered.
    for (std::size_t i = 1; i < slice.size(); ++i) {
      EXPECT_EQ(slice.times[i], slice.times[i - 1] + 1);
    }
  }
}

TEST(BusConcurrency, ParallelPublishersDeliverEverything) {
  telemetry::MessageBus bus;
  std::atomic<std::uint64_t> received{0};
  bus.subscribe("*", [&](const telemetry::Reading&) { ++received; });
  constexpr int kPublishers = 4;
  constexpr int kEach = 10000;
  std::vector<std::thread> pubs;
  for (int p = 0; p < kPublishers; ++p) {
    pubs.emplace_back([&bus, p] {
      for (int i = 0; i < kEach; ++i) {
        bus.publish(telemetry::Reading{"topic" + std::to_string(p), {i, 1.0}});
      }
    });
  }
  for (auto& t : pubs) t.join();
  EXPECT_EQ(received.load(), static_cast<std::uint64_t>(kPublishers) * kEach);
}

// ------------------------------------------ seasonal forecast periodicity

class SeasonProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SeasonProperty, HoltWintersForecastRepeatsWithPeriod) {
  const std::size_t period = GetParam();
  std::vector<double> xs;
  for (std::size_t i = 0; i < period * 12; ++i) {
    xs.push_back(50.0 + 10.0 * std::sin(2.0 * M_PI * static_cast<double>(i) /
                                        static_cast<double>(period)));
  }
  analytics::HoltWintersForecaster hw(period);
  hw.fit(xs);
  const auto fc = hw.forecast(2 * period);
  for (std::size_t h = 0; h < period; ++h) {
    EXPECT_NEAR(fc[h], fc[h + period], 1.0) << "period " << period;
  }
}

INSTANTIATE_TEST_SUITE_P(Periods, SeasonProperty,
                         ::testing::Values(8, 12, 24, 96));

// ----------------------------------------------- workload trace invariants

class TraceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceProperty, TraceWellFormed) {
  sim::WorkloadParams wp;
  wp.seed = GetParam();
  sim::WorkloadGenerator gen(wp);
  const auto trace = gen.generate_trace(200);
  ASSERT_EQ(trace.size(), 200u);
  std::set<std::uint64_t> ids;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto& job = trace[i];
    EXPECT_TRUE(ids.insert(job.id).second);  // unique ids
    if (i > 0) {
      EXPECT_GE(job.submit_time, trace[i - 1].submit_time);
    }
    EXPECT_FALSE(job.phases.empty());
    EXPECT_FALSE(job.user.empty());
    Duration total = 0;
    for (const auto& phase : job.phases) {
      EXPECT_GT(phase.nominal_duration, 0);
      EXPECT_GE(phase.cpu_util, 0.0);
      EXPECT_LE(phase.cpu_util, 1.0);
      EXPECT_GE(phase.mem_boundedness, 0.0);
      EXPECT_LE(phase.mem_boundedness, 1.0);
      total += phase.nominal_duration;
    }
    EXPECT_EQ(total, job.nominal_duration());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceProperty,
                         ::testing::Values(1, 7, 42, 1337));

// ------------------------------------------------- cluster scaling property

class ClusterSizeProperty
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(ClusterSizeProperty, SensorCountMatchesGeometry) {
  const auto [racks, nodes_per_rack] = GetParam();
  sim::ClusterParams params;
  params.racks = racks;
  params.nodes_per_rack = nodes_per_rack;
  params.gpu_node_fraction = 0.0;  // uniform nodes: exact sensor arithmetic
  sim::ClusterSimulation cluster(params);
  // weather(2) + facility(11) + network(racks+1) + scheduler(6)
  // + nodes(10 each, no gpu) + cluster it_power(1) + per-rack power+inlet(2).
  const std::size_t expected = 2 + 11 + (racks + 1) + 6 +
                               racks * nodes_per_rack * 10 + 1 + 2 * racks;
  EXPECT_EQ(cluster.sensors().size(), expected);
  // One frequency knob per node + three facility knobs.
  EXPECT_EQ(cluster.knobs().paths().size(), racks * nodes_per_rack + 3);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ClusterSizeProperty,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 2},
                      std::pair<std::size_t, std::size_t>{2, 4},
                      std::pair<std::size_t, std::size_t>{3, 16}),
    [](const auto& suite_info) {
      return std::to_string(suite_info.param.first) + "x" +
             std::to_string(suite_info.param.second);
    });

}  // namespace
}  // namespace oda
