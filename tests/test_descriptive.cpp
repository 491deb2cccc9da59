// Tests for the descriptive analytics pillar: KPIs, aggregation pipelines,
// and dashboards, driven by the live simulator where integration matters.
#include <gtest/gtest.h>

#include <cmath>

#include "analytics/descriptive/aggregation.hpp"
#include "analytics/descriptive/dashboard.hpp"
#include "analytics/descriptive/kpi.hpp"
#include "obs/cell.hpp"
#include "sim/cluster.hpp"
#include "telemetry/collector.hpp"

namespace oda::analytics {
namespace {

class DescriptiveFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::ClusterParams params;
    params.racks = 2;
    params.nodes_per_rack = 4;
    params.seed = 9;
    params.workload.peak_arrival_rate_per_hour = 60.0;
    params.workload.max_duration = 2 * kHour;
    cluster_ = std::make_unique<sim::ClusterSimulation>(params);
    store_ = std::make_unique<telemetry::TimeSeriesStore>();
    collector_ = std::make_unique<telemetry::Collector>(*cluster_, store_.get(),
                                                        nullptr);
    collector_->add_all_sensors(60);
    while (cluster_->now() < 6 * kHour) {
      cluster_->step();
      collector_->collect();
    }
  }

  std::unique_ptr<sim::ClusterSimulation> cluster_;
  std::unique_ptr<telemetry::TimeSeriesStore> store_;
  std::unique_ptr<telemetry::Collector> collector_;
};

TEST_F(DescriptiveFixture, PueMatchesSimulatorEnergy) {
  const auto pue = compute_pue(*store_, 0, cluster_->now());
  EXPECT_GT(pue.pue, 1.0);
  EXPECT_LT(pue.pue, 2.0);
  // Integrated store energy should be within a few percent of the
  // simulator's exact accounting (sampling at 60s vs stepping at 15s).
  const double exact_kwh =
      cluster_->facility_energy_j() / units::kJoulesPerKilowattHour;
  EXPECT_NEAR(pue.facility_energy_kwh, exact_kwh, exact_kwh * 0.05);
  EXPECT_GT(pue.cooling_energy_kwh, 0.0);
  EXPECT_GT(pue.loss_energy_kwh, 0.0);
}

TEST_F(DescriptiveFixture, ItueAboveOneAndTueAbovePue) {
  const auto itue = compute_itue(*store_, 0, cluster_->now());
  EXPECT_GT(itue.itue, 1.0);
  EXPECT_LT(itue.itue, 1.5);
  const auto pue = compute_pue(*store_, 0, cluster_->now());
  EXPECT_GT(itue.tue, pue.pue);
}

TEST_F(DescriptiveFixture, ItueReportIsBitExact) {
  // The seeded store's report, bit for bit: the step integration's
  // arithmetic order is part of the contract.
  const auto itue = compute_itue(*store_, 0, cluster_->now());
  EXPECT_EQ(itue.itue, 0x1.0e4495a75b57ap+0);
  EXPECT_EQ(itue.tue, 0x1.4b4c8002ceec1p+0);
  EXPECT_EQ(itue.fan_energy_kwh, 0x1.da5755b950503p-6);
  EXPECT_EQ(itue.it_energy_kwh, 0x1.4bdae9bf90852p+3);
}

TEST_F(DescriptiveFixture, ItueRunsNoPueCell) {
  // TUE needs only the facility/IT energy ratio, so kpi.itue must not
  // account a kpi.pue run of its own.
  const obs::Histogram& pue_runs = obs::CellScope::seconds_for("kpi.pue");
  const std::uint64_t before = pue_runs.count();
  compute_itue(*store_, 0, cluster_->now());
  EXPECT_EQ(pue_runs.count(), before);
}

TEST_F(DescriptiveFixture, EreBelowPueWithReuse) {
  const auto pue = compute_pue(*store_, 0, cluster_->now());
  EXPECT_LT(compute_ere(pue, 0.3), pue.pue);
  EXPECT_DOUBLE_EQ(compute_ere(pue, 0.0), pue.pue);
}

TEST_F(DescriptiveFixture, UtilizationInRange) {
  const double u = compute_utilization(*store_, 0, cluster_->now());
  EXPECT_GE(u, 0.0);
  EXPECT_LE(u, 1.0);
}

TEST_F(DescriptiveFixture, SieDetectsRicherDynamics) {
  const std::vector<std::string> sensors{"cluster/it_power",
                                         "scheduler/running_jobs"};
  const auto sie = compute_sie(*store_, sensors, 0, cluster_->now(), 10 * kMinute);
  EXPECT_GT(sie.transitions, 10u);
  // A constant sensor alone gives (near) zero entropy.
  const auto flat = compute_sie(*store_, {"facility/free_cooling"}, 0,
                                cluster_->now(), 10 * kMinute);
  EXPECT_LE(flat.entropy_bits, sie.entropy_bits + 1e-9);
}

TEST_F(DescriptiveFixture, DashboardsRenderKeyContent) {
  const auto fac = facility_dashboard(*store_, 0, cluster_->now());
  EXPECT_NE(fac.find("PUE"), std::string::npos);
  EXPECT_NE(fac.find("IT power"), std::string::npos);

  const auto sys = system_dashboard(*store_, 0, cluster_->now());
  EXPECT_NE(sys.find("rack00"), std::string::npos);
  EXPECT_NE(sys.find("median"), std::string::npos);

  const auto sched = scheduler_dashboard(
      *store_, cluster_->scheduler().completed(), 0, cluster_->now());
  EXPECT_NE(sched.find("slowdown"), std::string::npos);

  const auto jobs = job_dashboard(cluster_->scheduler().completed());
  EXPECT_NE(jobs.find("JOB DASHBOARD"), std::string::npos);
}

TEST_F(DescriptiveFixture, QuantileTransportGroupsByRack) {
  const auto summaries =
      quantile_transport(*store_, "rack*/node*/power", 0, cluster_->now(), 1);
  ASSERT_EQ(summaries.size(), 2u);  // two racks
  for (const auto& s : summaries) {
    EXPECT_EQ(s.sensors, 4u);
    EXPECT_LE(s.q10, s.q50);
    EXPECT_LE(s.q50, s.q90);
    EXPECT_LE(s.min, s.q10);
    EXPECT_GE(s.max, s.q90);
  }
}

TEST(Slowdown, KnownValues) {
  sim::JobRecord r1;
  r1.spec.submit_time = 0;
  r1.start_time = 100;     // wait 100
  r1.end_time = 200;       // run 100
  sim::JobRecord r2;
  r2.spec.submit_time = 0;
  r2.start_time = 0;
  r2.end_time = 400;       // no wait
  const std::vector<sim::JobRecord> records{r1, r2};
  const auto report = compute_slowdown(records, /*tau=*/50);
  EXPECT_EQ(report.jobs, 2u);
  EXPECT_NEAR(report.mean_slowdown, (2.0 + 1.0) / 2.0, 1e-12);
  EXPECT_NEAR(report.mean_wait_s, 50.0, 1e-12);
}

TEST(Slowdown, BoundedFloorsShortJobs) {
  sim::JobRecord r;
  r.spec.submit_time = 0;
  r.start_time = 1000;
  r.end_time = 1001;  // 1s job, 1000s wait -> raw slowdown 1001
  const std::vector<sim::JobRecord> records{r};
  const auto report = compute_slowdown(records, /*tau=*/600);
  EXPECT_GT(report.mean_slowdown, 500.0);
  EXPECT_LT(report.mean_bounded_slowdown, 3.0);
}

TEST(Roofline, MemoryVsComputeBound) {
  // Low arithmetic intensity -> memory bound.
  const auto mem = roofline(1000.0, 100.0, 50.0, 1.0);  // AI = 1 flop/byte
  EXPECT_TRUE(mem.memory_bound);
  EXPECT_DOUBLE_EQ(mem.attainable_gflops, 100.0);
  EXPECT_DOUBLE_EQ(mem.efficiency, 0.5);
  // High arithmetic intensity -> compute bound.
  const auto comp = roofline(1000.0, 100.0, 900.0, 0.05);  // AI = 20
  EXPECT_FALSE(comp.memory_bound);
  EXPECT_DOUBLE_EQ(comp.attainable_gflops, 1000.0);
}

TEST(OutlierRemoval, DropsExtremes) {
  std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8, 1000};
  const auto cleaned = remove_outliers_iqr(xs);
  EXPECT_EQ(cleaned.size(), 8u);
  EXPECT_EQ(std::count(cleaned.begin(), cleaned.end(), 1000.0), 0);
}

TEST(OutlierRemoval, KeepsSmallSamples) {
  const std::vector<double> xs{1, 100};
  EXPECT_EQ(remove_outliers_iqr(xs).size(), 2u);
}

TEST(Sparkline, ShapeAndBounds) {
  std::vector<double> rising;
  for (int i = 0; i < 100; ++i) rising.push_back(static_cast<double>(i));
  const auto line = sparkline(rising, 20);
  EXPECT_EQ(line.size(), 20u);
  EXPECT_LT(line.front(), line.back());  // ASCII levels are ordered by density
  EXPECT_EQ(sparkline({}, 10), std::string(10, ' '));
}

TEST(SensorSnapshots, ZScoreOfSpike) {
  telemetry::TimeSeriesStore store;
  for (TimePoint t = 0; t < 100; ++t) store.insert("s", {t, 10.0 + (t % 3)});
  store.insert("s", {100, 50.0});
  const auto snaps = snapshot_sensors(store, "s", 0, 101);
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_GT(snaps[0].zscore, 3.0);
}

}  // namespace
}  // namespace oda::analytics
