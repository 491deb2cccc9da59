// Tests for the diagnostic pillar: streaming/multivariate anomaly detection
// (scored against injected-fault ground truth), application fingerprinting,
// and software diagnostics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "analytics/diagnostic/anomaly.hpp"
#include "analytics/diagnostic/fingerprint.hpp"
#include "analytics/diagnostic/software.hpp"
#include "analytics/diagnostic/stress_test.hpp"
#include "math/fft.hpp"
#include "sim/cluster.hpp"
#include "telemetry/collector.hpp"

namespace oda::analytics {
namespace {

// ------------------------------------------------------ streaming detectors

TEST(ZScoreDetector, FiresOnSpikeNotOnNoise) {
  Rng rng(1);
  ZScoreDetector det(64, 4.0);
  for (int i = 0; i < 200; ++i) {
    det.observe(rng.normal(100.0, 2.0));
    EXPECT_LT(det.score(), 1.0) << "false positive at i=" << i;
  }
  det.observe(150.0);
  EXPECT_GE(det.score(), 1.0);
}

TEST(MadDetector, SurvivesContaminatedWindow) {
  Rng rng(2);
  MadDetector det(64, 5.0);
  for (int i = 0; i < 100; ++i) det.observe(rng.normal(10.0, 0.5));
  // A burst of outliers: MAD keeps firing where stddev-based scores would
  // be swamped by the contamination.
  for (int i = 0; i < 10; ++i) {
    det.observe(30.0);
    EXPECT_GE(det.score(), 1.0);
  }
}

TEST(EwmaDetector, DetectsLevelShift) {
  Rng rng(3);
  EwmaDetector det(0.2, 4.0);
  for (int i = 0; i < 300; ++i) det.observe(rng.normal(50.0, 1.0));
  EXPECT_LT(det.score(), 1.0);
  for (int i = 0; i < 30; ++i) det.observe(rng.normal(56.0, 1.0));
  EXPECT_GE(det.score(), 1.0);
}

TEST(StuckSensorDetector, CountsConstantRun) {
  StuckSensorDetector det(10);
  Rng rng(4);
  for (int i = 0; i < 50; ++i) det.observe(rng.normal(3.0, 0.2));
  EXPECT_LT(det.score(), 0.5);
  for (int i = 0; i < 12; ++i) det.observe(7.77);
  EXPECT_GE(det.score(), 1.0);
}

// -------------------------------------------------------- detection scoring

TEST(DetectionMetrics, ConfusionMath) {
  const std::vector<bool> pred{true, true, false, false, true};
  const std::vector<bool> truth{true, false, false, true, true};
  const auto m = score_detection(pred, truth);
  EXPECT_EQ(m.true_positives, 2u);
  EXPECT_EQ(m.false_positives, 1u);
  EXPECT_EQ(m.false_negatives, 1u);
  EXPECT_EQ(m.true_negatives, 1u);
  EXPECT_NEAR(m.precision(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(m.recall(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(m.f1(), 2.0 / 3.0, 1e-12);
}

TEST(RocAuc, PerfectAndRandomScores) {
  const std::vector<double> perfect{0.1, 0.2, 0.8, 0.9};
  const std::vector<bool> truth{false, false, true, true};
  EXPECT_DOUBLE_EQ(roc_auc(perfect, truth), 1.0);
  const std::vector<double> inverted{0.9, 0.8, 0.2, 0.1};
  EXPECT_DOUBLE_EQ(roc_auc(inverted, truth), 0.0);
  const std::vector<double> ties{0.5, 0.5, 0.5, 0.5};
  EXPECT_DOUBLE_EQ(roc_auc(ties, truth), 0.5);
}

// --------------------------------------------------------- node monitor E2E

class MonitorFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::ClusterParams params;
    params.racks = 2;
    params.nodes_per_rack = 4;
    params.seed = 21;
    cluster_ = std::make_unique<sim::ClusterSimulation>(params);
    cluster_->set_workload_enabled(false);
    store_ = std::make_unique<telemetry::TimeSeriesStore>();
    collector_ = std::make_unique<telemetry::Collector>(*cluster_, store_.get(),
                                                        nullptr);
    collector_->add_all_sensors(60);
    for (std::size_t i = 0; i < cluster_->node_count(); ++i) {
      prefixes_.push_back(cluster_->node(i).path());
    }
    // Steady synthetic load: one long single-node job per node, so every
    // node has a stable busy signature the monitor can learn.
    Rng job_rng(77);
    for (std::size_t i = 0; i < cluster_->node_count(); ++i) {
      sim::JobSpec spec;
      spec.id = 1000 + i;
      spec.user = "steady";
      spec.nodes_requested = 1;
      spec.phases = sim::WorkloadGenerator::make_phases(
          sim::JobClass::kComputeBound, 48 * kHour, job_rng);
      spec.walltime_requested = 96 * kHour;
      cluster_->scheduler().submit(spec);
    }
  }

  void run_until(TimePoint t) {
    while (cluster_->now() < t) {
      cluster_->step();
      collector_->collect();
    }
  }

  std::unique_ptr<sim::ClusterSimulation> cluster_;
  std::unique_ptr<telemetry::TimeSeriesStore> store_;
  std::unique_ptr<telemetry::Collector> collector_;
  std::vector<std::string> prefixes_;
};

TEST_F(MonitorFixture, DetectsFanFailureLowFalsePositives) {
  run_until(8 * kHour);  // healthy training period
  Rng rng(5);
  NodeAnomalyMonitor monitor({}, prefixes_);
  monitor.train(*store_, kHour, 8 * kHour, rng);

  // Healthy scan: few (ideally zero) false positives.
  std::size_t false_pos = 0;
  for (const auto& v : monitor.scan(*store_, cluster_->now())) {
    if (v.anomalous) ++false_pos;
  }
  EXPECT_LE(false_pos, 1u);

  // Inject a fan failure on node 2 and a thermal degradation on node 5.
  cluster_->faults().schedule({sim::FaultKind::kFanFailure, prefixes_[2],
                               cluster_->now(), cluster_->now() + 4 * kHour, 1.0});
  cluster_->faults().schedule({sim::FaultKind::kThermalDegradation, prefixes_[5],
                               cluster_->now(), cluster_->now() + 4 * kHour, 2.0});
  run_until(cluster_->now() + 2 * kHour);

  const auto verdicts = monitor.scan(*store_, cluster_->now());
  EXPECT_TRUE(verdicts[2].anomalous) << "fan failure missed, score="
                                     << verdicts[2].score;
  EXPECT_TRUE(verdicts[5].anomalous) << "thermal degradation missed, score="
                                     << verdicts[5].score;
  // The faulty nodes must rank above every healthy node.
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    if (i == 2 || i == 5) continue;
    EXPECT_LT(verdicts[i].score, verdicts[2].score);
    EXPECT_LT(verdicts[i].score, verdicts[5].score);
  }
}

TEST_F(MonitorFixture, ScanScoresPinnedBitForBit) {
  run_until(3 * kHour);
  Rng rng(13);
  NodeAnomalyMonitor monitor({}, prefixes_);
  monitor.train(*store_, kHour, 3 * kHour, rng);
  cluster_->faults().schedule({sim::FaultKind::kFanFailure, prefixes_[6],
                               cluster_->now(), cluster_->now() + kHour, 1.0});
  run_until(cluster_->now() + 20 * kMinute);
  // Member scores of the monitor that rebuilt its paths on every scan and
  // scored a pointer-tree forest, printed with %a: resolving the inputs
  // once and scoring the flat forest must reproduce them exactly.
  const std::vector<std::pair<double, double>> want = {
      {0x1.df3cf992f71d3p-2, 0x1.25a8a46e7cdabp-2},
      {0x1.bf2d73d806936p-2, 0x1.5922111f80753p-7},
      {0x1.d8b48f56f810bp-2, 0x1.c22e6b88c2d23p-2},
      {0x1.d58900825f544p-2, 0x1.253cf601fc1dfp-3},
      {0x1.89ed8ddafd4cfp-1, 0x1.635d3785c77e9p-1},
      {0x1.42d610ab40a12p-1, 0x1.bdc62dc22d5c9p-2},
      {0x1.9f3bb688e916ep-1, 0x1.e1a3f773f919p+6},
      {0x1.5f68eefea9d73p-1, 0x1.06934952dd6a3p-3},
  };
  const auto verdicts = monitor.scan(*store_, cluster_->now());
  ASSERT_EQ(verdicts.size(), want.size());
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    EXPECT_EQ(verdicts[i].subject, prefixes_[i]);
    EXPECT_EQ(verdicts[i].forest_score, want[i].first) << prefixes_[i];
    EXPECT_EQ(verdicts[i].pca_score, want[i].second) << prefixes_[i];
    EXPECT_EQ(verdicts[i].score, std::max(want[i].first, want[i].second));
  }
  EXPECT_TRUE(verdicts[6].anomalous);  // the fan failure
}

// A seeded synthetic store shaped like diag.node's input at a smaller
// scale: 3 racks x 7 nodes (two full groups of the forest's interleaved
// walk and a tail), per-minute samples with dropped readings, flat
// sensors (all-equal Theil-Sen slopes) and one drifting node.
TEST(NodeAnomalyMonitor, SeededStoreVerdictsPinnedBitForBit) {
  const std::vector<std::string> leaves = {"power", "cpu_temp", "cpu_util",
                                           "fan_speed", "mem_bw_util"};
  const std::vector<double> base = {300.0, 55.0, 0.6, 0.4, 0.3};
  const std::vector<double> noise = {12.0, 1.5, 0.08, 0.03, 0.05};
  std::vector<std::string> prefixes;
  for (int r = 0; r < 3; ++r) {
    for (int n = 0; n < 7; ++n) {
      prefixes.push_back("pinmon/rack" + std::to_string(r) + "/node" +
                         std::to_string(n));
    }
  }
  telemetry::TimeSeriesStore store(1 << 10);
  Rng rng(4242);
  for (TimePoint t = 0; t < 3 * kHour + 20 * kMinute; t += kMinute) {
    for (std::size_t c = 0; c < prefixes.size(); ++c) {
      for (std::size_t s = 0; s < leaves.size(); ++s) {
        if (rng.uniform() < 0.08) continue;  // dropped reading
        double v = base[s] + 0.02 * base[s] * static_cast<double>(c % 5) +
                   rng.normal(0.0, noise[s]);
        if (c == 4 && s == 3) v = 0.5;  // stuck fan reading: flat window
        if (c == 9 && s == 2) v = 0.0;  // idle node: flat utilization
        if (c == 13 && s == 1 && t >= 3 * kHour) {
          v += 0.5 * static_cast<double>(t - 3 * kHour) / kMinute;
        }
        store.insert(prefixes[c] + "/" + leaves[s], {t, v});
      }
    }
  }
  NodeAnomalyMonitor monitor({}, prefixes);
  Rng train_rng(77);
  monitor.train(store, kHour, 3 * kHour, train_rng);
  const auto verdicts = monitor.scan(store, 3 * kHour + 20 * kMinute);
  // Member scores printed with %a by the per-row forest walk, sort-based
  // quantiles and frame() reads: the batched scoring, selection and
  // in-place window reads must reproduce them exactly.
  const std::vector<std::pair<double, double>> want = {
      {0x1.495bbe0c79e41p-1, 0x1.014a37ebf3dacp-1},
      {0x1.3d9ae6dd5036bp-1, 0x1.f805396d09de7p-2},
      {0x1.346e84331dbf9p-1, 0x1.828174c330c55p-2},
      {0x1.4f51f07662945p-1, 0x1.2b5b47ee662d3p-2},
      {0x1.8d474f042a155p-1, 0x1.20c1fb27bca57p-1},
      {0x1.4c9567832b944p-1, 0x1.f9376a05c6916p-2},
      {0x1.66b299c81a0d7p-1, 0x1.60a21c71ac24dp-1},
      {0x1.6311ae891a08cp-1, 0x1.a735e7b257829p-1},
      {0x1.70d09f2a4f3d3p-1, 0x1.e4a3c809e93f3p-2},
      {0x1.abb5e03ae081p-1, 0x1.7e60481ea0b91p-1},
      {0x1.65f65f291bab9p-1, 0x1.2a2d9752d181fp-1},
      {0x1.5933c56e64198p-1, 0x1.1cf18935e008fp-1},
      {0x1.44607d0f63b2p-1, 0x1.2cf2c12b3a155p-1},
      {0x1.444905cb35f1bp-1, 0x1.8a14ab31ef492p+0},
      {0x1.76284fb16f80fp-1, 0x1.6cc75ef56908ep-2},
      {0x1.80c0ee007841fp-1, 0x1.600f8398a2f35p-1},
      {0x1.6b9c56bee431dp-1, 0x1.9857f189c1e8p-1},
      {0x1.4474387ae56bdp-1, 0x1.d0c2a9c130e27p-2},
      {0x1.858d4112767d8p-1, 0x1.6ac425d2714cap-2},
      {0x1.4a485a28a4d77p-1, 0x1.9f0174dfc90c2p-2},
      {0x1.530d9ca819503p-1, 0x1.e411e85f5e9f2p-2},
  };
  ASSERT_EQ(verdicts.size(), want.size());
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    EXPECT_EQ(verdicts[i].subject, prefixes[i]);
    EXPECT_EQ(verdicts[i].forest_score, want[i].first)
        << prefixes[i] << " " << std::hexfloat << verdicts[i].forest_score;
    EXPECT_EQ(verdicts[i].pca_score, want[i].second)
        << prefixes[i] << " " << std::hexfloat << verdicts[i].pca_score;
  }
  EXPECT_TRUE(verdicts[13].anomalous);  // the drifting node
}

TEST(WindowFeatures, ShapeAndSlope) {
  telemetry::Frame frame;
  frame.columns = {"a", "b"};
  frame.times = {0, 1, 2, 3};
  frame.allocate(4, 2);
  for (std::size_t r = 0; r < 4; ++r) {
    frame.at(r, 0) = static_cast<double>(r);
    frame.at(r, 1) = 5.0;
  }
  std::vector<double> f(6, -1.0);
  FeatureScratch scratch;
  for (std::size_t c = 0; c < frame.cols(); ++c) {
    column_features(frame.column_values(c), scratch,
                    std::span<double, 3>(&f[c * 3], 3));
  }
  EXPECT_NEAR(f[0], 1.5, 1e-12);  // mean(a)
  EXPECT_NEAR(f[2], 1.0, 1e-12);  // slope(a)
  EXPECT_NEAR(f[5], 0.0, 1e-12);  // slope(b)
}

// ----------------------------------------------------------- fingerprinting

TEST(ApplicationFingerprinter, SeparatesSyntheticClasses) {
  ApplicationFingerprinter fp;
  Rng rng(8);
  // Miner: high cpu, low mem/net. HPC: moderate cpu, higher mem/net.
  for (int i = 0; i < 30; ++i) {
    fp.add_training("miner", {0.99 + rng.normal(0, 0.003), 0.02, 0.05, 0.01});
    fp.add_training("hpc", {0.8 + rng.normal(0, 0.05), 0.15,
                            0.5 + rng.normal(0, 0.1), 0.3});
  }
  fp.train(rng);
  EXPECT_EQ(fp.predict_forest({0.995, 0.02, 0.04, 0.01}).label, "miner");
  EXPECT_EQ(fp.predict_forest({0.78, 0.2, 0.6, 0.35}).label, "hpc");
  EXPECT_GT(fp.predict_forest({0.995, 0.02, 0.04, 0.01}).confidence, 0.7);
}

// --------------------------------------------------------------- software

TEST(OsNoise, FindsInjectedPeriod) {
  // One interference event every 0.1 s against 0.0105 s quanta: ~10% of
  // quanta are inflated.
  const auto trace = synthesize_fwq(1024, 0.01, /*noise_period=*/0.1,
                                    /*noise_cost=*/0.004,
                                    /*sample_period=*/0.0105, 99);
  const auto report = analyze_fwq(trace, 0.01, 0.0105);
  EXPECT_GT(report.noise_fraction, 0.05);
  ASSERT_TRUE(report.periodic);
  // An impulse train carries equal energy in all harmonics, so the dominant
  // bin may be any multiple of the fundamental: accept period = 0.1/k.
  const double ratio = 0.1 / report.dominant_period_s;
  EXPECT_NEAR(ratio, std::round(ratio), 0.15)
      << "dominant period " << report.dominant_period_s
      << " is not a harmonic of 0.1 s";
  EXPECT_LE(report.dominant_period_s, 0.11);
}

TEST(OsNoise, DominantComponentsPinnedBitForBit) {
  const auto trace = synthesize_fwq(2048, 1e-3, 0.1, 2e-4, 1e-3, 0xF00DULL);
  // The full-sort pick's components, printed with %a: the top-k pick
  // must reproduce them exactly.
  const auto comps = math::dominant_components(trace, 3);
  ASSERT_EQ(comps.size(), 3u);
  EXPECT_EQ(comps[0].frequency, 0x1p-1);
  EXPECT_EQ(comps[0].amplitude, 0x1.0b6d162a51f42p-19);
  EXPECT_EQ(comps[0].phase, 0x0p+0);
  EXPECT_EQ(comps[1].frequency, 0x1p-2);
  EXPECT_EQ(comps[1].amplitude, 0x1.096fd77c7d3ecp-18);
  EXPECT_EQ(comps[1].phase, 0x1.169a9b394fe07p-7);
  EXPECT_EQ(comps[2].frequency, 0x1.48p-5);
  EXPECT_EQ(comps[2].amplitude, 0x1.0577cb8491b1ep-18);
  EXPECT_EQ(comps[2].phase, 0x1.43592850a6b6bp+1);
}

TEST(OsNoise, QuietTraceIsClean) {
  const auto trace = synthesize_fwq(256, 0.01, /*noise_period=*/1e9,
                                    /*noise_cost=*/0.0, 0.0105, 7);
  const auto report = analyze_fwq(trace, 0.01, 0.0105);
  EXPECT_LT(report.noise_fraction, 0.02);
}

TEST(Boundedness, NameMapping) {
  EXPECT_STREQ(boundedness_name(Boundedness::kCompute), "compute-bound");
  EXPECT_STREQ(boundedness_name(Boundedness::kIdle), "idle");
}


TEST(StressTest, FitTimeConstantExactExponential) {
  std::vector<double> t, y;
  const double tau = 600.0, y0 = 30.0, yinf = 27.0;
  for (int i = 1; i <= 40; ++i) {
    t.push_back(i * 60.0);
    y.push_back(yinf + (y0 - yinf) * std::exp(-i * 60.0 / tau));
  }
  EXPECT_NEAR(fit_time_constant(t, y, y0, yinf), tau, 5.0);
}

TEST(StressTest, DegradedPumpSlowsLoopResponse) {
  const auto measure = [](double degradation) {
    sim::ClusterParams params;
    params.racks = 1;
    params.nodes_per_rack = 4;
    params.seed = 9;
    params.workload.peak_arrival_rate_per_hour = 0.0;
    sim::ClusterSimulation cluster(params);
    cluster.set_workload_enabled(false);
    if (degradation > 1.0) {
      cluster.faults().schedule({sim::FaultKind::kPumpDegradation, "facility",
                                 0, 100 * kDay, degradation});
    }
    return run_cooling_stress_test(cluster, /*baseline_tau_s=*/0.0);
  };
  const auto healthy = measure(1.0);
  ASSERT_TRUE(healthy.completed);
  EXPECT_NEAR(healthy.time_constant_s, 900.0, 200.0);  // the loop's design tau
  EXPECT_LT(healthy.residual_rmse_c, 0.2);             // clean first-order fit

  const auto degraded = measure(2.0);
  EXPECT_GT(degraded.time_constant_s, healthy.time_constant_s * 1.6);

  // Verdict path: re-run degraded with the healthy baseline.
  sim::ClusterParams params;
  params.racks = 1;
  params.nodes_per_rack = 4;
  params.seed = 9;
  params.workload.peak_arrival_rate_per_hour = 0.0;
  sim::ClusterSimulation cluster(params);
  cluster.set_workload_enabled(false);
  cluster.faults().schedule({sim::FaultKind::kPumpDegradation, "facility", 0,
                             100 * kDay, 2.0});
  const auto verdict =
      run_cooling_stress_test(cluster, healthy.time_constant_s);
  EXPECT_TRUE(verdict.degraded);
  EXPECT_GT(verdict.slowdown_factor, 1.4);
  // The protocol restores the operating point.
  EXPECT_DOUBLE_EQ(cluster.knobs().get("facility/supply_setpoint"),
                   params.facility.supply_setpoint_c);
}

}  // namespace
}  // namespace oda::analytics
