// Coverage for corners not exercised elsewhere: knob registry contracts,
// logging sinks, table alignment, queue wraparound, facility pump law,
// network sensors, and guard rails on model misuse.
#include <gtest/gtest.h>

#include <cmath>

#include "analytics/predictive/whatif.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/table.hpp"
#include "math/ar_model.hpp"
#include "sim/cluster.hpp"

namespace oda {
namespace {

// ------------------------------------------------------------ knob registry

TEST(KnobRegistry, DuplicateAndUnknownThrow) {
  sim::KnobRegistry reg;
  sim::KnobDef knob;
  knob.path = "k";
  knob.min_value = 0.0;
  knob.max_value = 1.0;
  double value = 0.5;
  knob.get = [&value] { return value; };
  knob.set = [&value](double v) { value = v; };
  reg.add(knob);
  EXPECT_THROW(reg.add(knob), ContractError);
  EXPECT_THROW(reg.get("nope"), ContractError);
  EXPECT_EQ(reg.paths().size(), 1u);
  reg.set("k", 5.0);  // clamped
  EXPECT_DOUBLE_EQ(reg.get("k"), 1.0);
  reg.set("k", -3.0);
  EXPECT_DOUBLE_EQ(reg.get("k"), 0.0);
}

// ----------------------------------------------------------------- logging

TEST(Log, SinkReceivesFilteredMessages) {
  std::vector<std::pair<LogLevel, std::string>> captured;
  Log::set_sink([&](LogLevel level, const std::string& msg) {
    captured.emplace_back(level, msg);
  });
  Log::set_level(LogLevel::kWarn);
  ODA_LOG_DEBUG << "dropped " << 1;
  ODA_LOG_WARN << "kept " << 2;
  ODA_LOG_ERROR << "kept " << 3;
  Log::set_sink(nullptr);
  Log::set_level(LogLevel::kWarn);
  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0].second, "kept 2");
  EXPECT_EQ(captured[1].first, LogLevel::kError);
}

TEST(Log, LevelNames) {
  EXPECT_STREQ(log_level_name(LogLevel::kDebug), "DEBUG");
  EXPECT_STREQ(log_level_name(LogLevel::kError), "ERROR");
}

TEST(Log, ThreadIdIsStableAndNonzero) {
  const std::size_t id = Log::thread_id();
  EXPECT_GT(id, 0u);
  EXPECT_EQ(Log::thread_id(), id);  // stable within a thread
}

TEST(CaptureSink, CapturesLevelsAndMessages) {
  CaptureSink sink;
  Log::set_level(LogLevel::kWarn);
  ODA_LOG_DEBUG << "below threshold";
  ODA_LOG_WARN << "slow subscriber " << 7;
  ODA_LOG_ERROR << "boom";
  ASSERT_EQ(sink.size(), 2u);
  const auto lines = sink.lines();
  EXPECT_EQ(lines[0], "[WARN] slow subscriber 7");
  EXPECT_EQ(lines[1], "[ERROR] boom");
  EXPECT_TRUE(sink.contains("slow subscriber"));
  EXPECT_FALSE(sink.contains("below threshold"));
  EXPECT_EQ(sink.count(LogLevel::kWarn), 1u);
  EXPECT_EQ(sink.count(LogLevel::kError), 1u);
  EXPECT_EQ(sink.count(LogLevel::kDebug), 0u);
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
}

TEST(CaptureSink, RingKeepsOnlyMostRecent) {
  CaptureSink sink(/*capacity=*/3);
  Log::set_level(LogLevel::kWarn);
  for (int i = 0; i < 5; ++i) {
    ODA_LOG_WARN << "line " << i;
  }
  ASSERT_EQ(sink.size(), 3u);
  const auto lines = sink.lines();
  EXPECT_EQ(lines.front(), "[WARN] line 2");  // oldest retained
  EXPECT_EQ(lines.back(), "[WARN] line 4");
  EXPECT_FALSE(sink.contains("line 0"));
}

TEST(CaptureSink, RestoresDefaultSinkOnDestruction) {
  std::vector<std::string> outer;
  { CaptureSink sink; }
  // After destruction the custom sink below must receive writes again.
  Log::set_sink([&outer](LogLevel, const std::string& msg) {
    outer.push_back(msg);
  });
  Log::set_level(LogLevel::kWarn);
  ODA_LOG_WARN << "after capture";
  Log::set_sink(nullptr);
  ASSERT_EQ(outer.size(), 1u);
  EXPECT_EQ(outer[0], "after capture");
}

// ------------------------------------------------------------------- table

TEST(TextTable, AlignmentModes) {
  TextTable t({"l", "r", "c"});
  t.set_align(1, Align::kRight);
  t.set_align(2, Align::kCenter);
  t.add_row({"a", "b", "c"});
  t.add_row({"longer", "row", "xx"});
  const auto out = t.render();
  // Column widths: "longer"=6, "row"=3, "xx"=2. Right-aligned "b" pads in
  // front; centered "c" pads both sides.
  EXPECT_NE(out.find("| a      |   b | c  |"), std::string::npos) << out;
}

TEST(TextTable, SeparatorAndTitle) {
  TextTable t({"x"});
  t.set_title("TITLE");
  t.add_row({"1"});
  t.add_separator();
  t.add_row({"2"});
  const auto out = t.render();
  EXPECT_NE(out.find("TITLE"), std::string::npos);
  EXPECT_EQ(t.row_count(), 3u);  // two rows + separator marker
}

// ---------------------------------------------------------------- facility

TEST(Facility, PumpPowerFollowsAffinityLaw) {
  sim::Facility f({});
  std::vector<sim::KnobDef> knobs;
  f.enumerate_knobs(knobs);
  const auto pump_knob = [&]() -> sim::KnobDef& {
    for (auto& k : knobs) {
      if (k.path == "facility/pump_speed") return k;
    }
    throw ContractError("pump knob missing");
  };
  pump_knob().set(1.0);
  f.step(10000.0, 10.0, 15);
  const double p1 = f.pump_power_w();
  pump_knob().set(0.5);
  f.step(10000.0, 10.0, 15);
  const double p_half = f.pump_power_w();
  EXPECT_NEAR(p_half / p1, 0.125, 0.01);  // cube law
}

TEST(Facility, ForcedFreeCoolingTracksWetbulbFloor) {
  sim::Facility f({});
  f.set_cooling_mode(sim::CoolingMode::kFreeOnly);
  f.set_supply_setpoint_c(20.0);
  // Hot wet-bulb: the tower cannot reach 20 C; supply floats up to
  // wetbulb + approach.
  for (int i = 0; i < 2000; ++i) f.step(10000.0, 28.0, 15);
  EXPECT_NEAR(f.supply_temp_c(), 28.0 + f.params().tower_approach_k, 0.5);
}

// ----------------------------------------------------------------- network

TEST(Network, SensorsEnumerate) {
  sim::Network net({3, 4, 100.0, 400.0});
  std::vector<sim::SensorDef> sensors;
  net.enumerate_sensors(sensors);
  EXPECT_EQ(sensors.size(), 4u);  // 3 uplinks + total traffic
  EXPECT_EQ(sensors[0].path, "network/rack00/uplink_util");
  EXPECT_DOUBLE_EQ(sensors[3].read(), 0.0);
}

// ------------------------------------------------------------- guard rails

TEST(GuardRails, ArModelRejectsTinyHistory) {
  const std::vector<double> tiny{1.0, 2.0};
  EXPECT_THROW(math::ArModel::fit_yule_walker(tiny, 4), ContractError);
  std::vector<double> xs(100, 0.0);
  const auto model = math::ArModel::fit_yule_walker(
      std::vector<double>{1, 2, 3, 4, 5, 6, 7, 8}, 2);
  EXPECT_THROW(model.predict_next(std::vector<double>{1.0}), ContractError);
  (void)xs;
}

TEST(GuardRails, WhatIfRespectsMaxSimTime) {
  // A job that can never finish (progress never reaches an impossible
  // nominal duration is not constructible; instead give a machine smaller
  // than needed to drain the queue within the cap).
  sim::JobSpec spec;
  spec.id = 1;
  spec.user = "u";
  spec.nodes_requested = 1;
  sim::JobPhase phase;
  phase.nominal_duration = 10 * kDay;
  spec.phases = {phase};
  spec.walltime_requested = 20 * kDay;
  analytics::WhatIfParams params;
  params.node_count = 1;
  params.max_sim_time = kDay;  // cap below the job runtime
  params.step = kHour;
  const auto result =
      analytics::simulate_policy(std::vector<sim::JobSpec>{spec}, params);
  EXPECT_EQ(result.jobs_completed, 0u);
  EXPECT_LE(result.makespan, kDay + kHour);
}

TEST(GuardRails, ClusterRejectsBadGeometry) {
  sim::ClusterParams params;
  params.racks = 0;
  EXPECT_THROW(sim::ClusterSimulation{params}, ContractError);
  params.racks = 1;
  params.dt = 0;
  EXPECT_THROW(sim::ClusterSimulation{params}, ContractError);
}

TEST(GuardRails, FaultWindowMustBeNonEmpty) {
  sim::FaultInjector inj;
  EXPECT_THROW(inj.schedule({sim::FaultKind::kFanFailure, "x", 100, 100, 1.0}),
               ContractError);
}

}  // namespace
}  // namespace oda
