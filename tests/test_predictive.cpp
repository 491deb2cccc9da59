// Tests for the predictive pillar: forecaster correctness and ordering on
// signals with known structure, backtesting, spectral power forecasting with
// the LLNL notification rule, job runtime/energy prediction, failure
// projection, workload forecasting, and scheduler what-if simulation.
#include <gtest/gtest.h>

#include <cmath>

#include "analytics/predictive/backtest.hpp"
#include "analytics/predictive/failure.hpp"
#include "analytics/predictive/forecaster.hpp"
#include "analytics/predictive/jobs.hpp"
#include "analytics/predictive/spectral.hpp"
#include "analytics/predictive/whatif.hpp"
#include "analytics/predictive/workload_forecast.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace oda::analytics {
namespace {

std::vector<double> seasonal_series(std::size_t n, std::size_t period,
                                    double level, double amplitude,
                                    double noise, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(level +
                  amplitude * std::sin(2.0 * M_PI * static_cast<double>(i) /
                                       static_cast<double>(period)) +
                  rng.normal(0.0, noise));
  }
  return out;
}

// ------------------------------------------------------------- forecasters

TEST(Forecaster, FactoryBuildsAllStandardSpecs) {
  for (const auto& spec : standard_forecaster_specs(96)) {
    EXPECT_NO_THROW(make_forecaster(spec)) << spec;
  }
  EXPECT_THROW(make_forecaster("nonsense"), ContractError);
}

TEST(Forecaster, PersistenceRepeatsLast) {
  PersistenceForecaster f;
  const std::vector<double> xs{1, 2, 9};
  f.fit(xs);
  for (double v : f.forecast(4)) EXPECT_DOUBLE_EQ(v, 9.0);
}

TEST(Forecaster, HoltExtendsTrend) {
  HoltForecaster f;
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) xs.push_back(3.0 * i);
  f.fit(xs);
  const auto fc = f.forecast(5);
  EXPECT_NEAR(fc[4], 3.0 * 104, 3.0);
}

TEST(Forecaster, HoltWintersBeatsPersistenceOnSeasonal) {
  const auto series = seasonal_series(96 * 10, 96, 100.0, 20.0, 1.0, 5);
  BacktestParams params;
  params.min_train = 96 * 4;
  params.horizon = 24;
  const auto hw = backtest("holt-winters:96", series, params);
  const auto pers = backtest("persistence", series, params);
  EXPECT_LT(hw.mae, pers.mae * 0.5);
  EXPECT_GT(hw.skill_vs_persistence, 0.5);
}

TEST(Forecaster, ArBeatsPersistenceOnArProcess) {
  Rng rng(7);
  std::vector<double> xs{0.0};
  for (int i = 1; i < 3000; ++i) {
    xs.push_back(0.9 * xs.back() + rng.normal(0.0, 1.0));
  }
  BacktestParams params;
  params.min_train = 500;
  params.horizon = 4;
  const auto ar = backtest("ar", xs, params);
  EXPECT_GT(ar.skill_vs_persistence, 0.0);
}

TEST(Forecaster, ShortHistoryFallbacks) {
  // All models must survive near-empty histories.
  for (const auto& spec : standard_forecaster_specs(96)) {
    auto model = make_forecaster(spec);
    const std::vector<double> tiny{5.0, 6.0};
    model->fit(tiny);
    const auto fc = model->forecast(3);
    ASSERT_EQ(fc.size(), 3u) << spec;
    for (double v : fc) {
      EXPECT_TRUE(std::isfinite(v)) << spec;
    }
  }
}

TEST(Backtest, RanksModelsAndCountsEvaluations) {
  const auto series = seasonal_series(96 * 6, 96, 50.0, 10.0, 0.5, 11);
  BacktestParams params;
  params.min_train = 96 * 3;
  const auto results =
      backtest_all({"persistence", "holt-winters:96"}, series, params);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_LE(results[0].mae, results[1].mae);  // sorted
  EXPECT_GT(results[0].evaluations, 0u);
}

// ---------------------------------------------------------------- spectral

TEST(Spectral, RecoversPeriodicSignalForward) {
  // Two sinusoids + trend; the forecaster must extrapolate both.
  std::vector<double> xs;
  const std::size_t n = 512;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    xs.push_back(100.0 + 0.01 * t + 8.0 * std::sin(2.0 * M_PI * t / 64.0) +
                 4.0 * std::cos(2.0 * M_PI * t / 16.0));
  }
  SpectralForecaster f(4);
  f.fit(xs);
  const auto fc = f.forecast(64);
  double max_err = 0.0;
  for (std::size_t h = 0; h < 64; ++h) {
    const double t = static_cast<double>(n + h);
    const double truth = 100.0 + 0.01 * t +
                         8.0 * std::sin(2.0 * M_PI * t / 64.0) +
                         4.0 * std::cos(2.0 * M_PI * t / 16.0);
    max_err = std::max(max_err, std::abs(fc[h] - truth));
  }
  EXPECT_LT(max_err, 2.5);
}

TEST(Spectral, DetectPowerSwingsOnStep) {
  NotificationRule rule;
  rule.threshold_w = 100.0;
  rule.window = 10;
  rule.sample_period = 1;
  std::vector<double> power(100, 1000.0);
  for (std::size_t i = 50; i < 100; ++i) power[i] = 1200.0;  // step at 50
  const auto swings = detect_power_swings(power, rule);
  ASSERT_EQ(swings.size(), 1u);  // one onset, not one per sample
  EXPECT_EQ(swings[0].step, 50u);
  EXPECT_GT(swings[0].delta_w, 100.0);
}

TEST(Spectral, NotificationScoring) {
  const std::vector<PowerSwingEvent> predicted{{10, +900e3}, {50, -800e3},
                                               {70, +900e3}};
  const std::vector<PowerSwingEvent> actual{{12, +850e3}, {49, -900e3},
                                            {90, +800e3}};
  const auto score = score_notifications(predicted, actual, 5);
  EXPECT_EQ(score.hits, 2u);          // 10~12 and 50~49
  EXPECT_EQ(score.misses, 1u);        // 90 unmatched
  EXPECT_EQ(score.false_alarms, 1u);  // 70 unmatched
  EXPECT_NEAR(score.precision(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(score.recall(), 2.0 / 3.0, 1e-12);
}

TEST(Spectral, DirectionMattersInScoring) {
  const std::vector<PowerSwingEvent> predicted{{10, +900e3}};
  const std::vector<PowerSwingEvent> actual{{10, -900e3}};
  const auto score = score_notifications(predicted, actual, 5);
  EXPECT_EQ(score.hits, 0u);
}

// --------------------------------------------------------- job prediction

sim::JobRecord make_record(const std::string& user, Duration runtime,
                           Duration request, TimePoint submit,
                           std::size_t nodes = 2) {
  sim::JobRecord r;
  r.spec.user = user;
  r.spec.nodes_requested = nodes;
  r.spec.walltime_requested = request;
  r.spec.submit_time = submit;
  r.spec.queue = "small";
  r.start_time = submit;
  r.end_time = submit + runtime;
  r.nodes.resize(nodes);
  r.energy_j = static_cast<double>(runtime) * 200.0 * static_cast<double>(nodes);
  return r;
}

TEST(JobRuntime, UserHistoryBeatsRequest) {
  JobRuntimePredictor predictor;
  // A user who always requests 10x what they use.
  for (int i = 0; i < 10; ++i) {
    predictor.observe(make_record("alice", kHour, 10 * kHour, i * kDay));
  }
  sim::JobSpec spec;
  spec.user = "alice";
  spec.nodes_requested = 2;
  spec.walltime_requested = 10 * kHour;
  spec.queue = "small";
  const auto est = predictor.predict(spec);
  EXPECT_STREQ(est.source, "user-history");
  EXPECT_NEAR(est.runtime_s, static_cast<double>(kHour), 600.0);
}

TEST(JobRuntime, UnknownUserFallsBackToKnnThenRequest) {
  JobRuntimePredictor predictor;
  sim::JobSpec spec;
  spec.user = "stranger";
  spec.walltime_requested = 5 * kHour;
  EXPECT_STREQ(predictor.predict(spec).source, "request");
  for (int i = 0; i < 20; ++i) {
    // Appended, not "u" + ...: GCC 12 at -O3 flags that with a false
    // -Werror=restrict.
    std::string user = "u";
    user += std::to_string(i);
    predictor.observe(make_record(user, 2 * kHour, 6 * kHour, i * kHour));
  }
  const auto est = predictor.predict(spec);
  EXPECT_STREQ(est.source, "knn");
  EXPECT_LE(est.runtime_s, static_cast<double>(spec.walltime_requested));
}

TEST(JobRuntime, EvaluationShowsImprovement) {
  // Synthetic population with stable per-user behaviour and heavy
  // overestimation: history-based prediction must beat the request.
  Rng rng(13);
  std::vector<sim::JobRecord> records;
  for (int u = 0; u < 6; ++u) {
    const auto typical = static_cast<Duration>(
        rng.uniform(static_cast<double>(kHour) / 2.0, 4.0 * kHour));
    for (int j = 0; j < 40; ++j) {
      const auto runtime = static_cast<Duration>(
          static_cast<double>(typical) * rng.uniform(0.85, 1.15));
      records.push_back(make_record("user" + std::to_string(u), runtime,
                                    runtime * 6, (u * 40 + j) * kHour));
    }
  }
  const auto score = evaluate_runtime_predictor(records, 0.5);
  EXPECT_GT(score.jobs, 100u);
  EXPECT_GT(score.improvement_vs_request, 0.5);
  EXPECT_LT(score.mape, 0.5);
}

// ---------------------------------------------------------------- failure

TEST(Failure, ProjectsThresholdCrossing) {
  // Fan speed decaying 2%/h from 100%, failure below 20%.
  std::vector<double> signal;
  for (int i = 0; i < 48; ++i) signal.push_back(100.0 - 2.0 * i);  // hourly
  const auto p = project_failure(signal, 3600.0, 20.0, /*increasing_is_bad=*/false);
  ASSERT_TRUE(p.degrading);
  ASSERT_TRUE(p.hours_to_threshold.has_value());
  // After 48 samples, value is 6; (6-20)... value is 100-2*47=6 < 20: already failed.
  EXPECT_NEAR(*p.hours_to_threshold, 0.0, 1e-9);
}

TEST(Failure, HealthySignalNotFlagged) {
  Rng rng(17);
  std::vector<double> signal;
  for (int i = 0; i < 100; ++i) signal.push_back(80.0 + rng.normal(0.0, 0.3));
  const auto p = project_failure(signal, 3600.0, 95.0, /*increasing_is_bad=*/true);
  EXPECT_FALSE(p.degrading);
}

TEST(Failure, ProjectsTimeForSlowDrift) {
  std::vector<double> signal;
  for (int i = 0; i < 24; ++i) signal.push_back(60.0 + 0.5 * i);  // +0.5/h
  const auto p = project_failure(signal, 3600.0, 90.0, true);
  ASSERT_TRUE(p.degrading);
  // Current 71.5, headroom 18.5, slope 0.5/h -> ~37 h.
  EXPECT_NEAR(*p.hours_to_threshold, 37.0, 3.0);
}

TEST(Weibull, FitRecoversParameters) {
  Rng rng(19);
  std::vector<double> failures;
  for (int i = 0; i < 500; ++i) failures.push_back(rng.weibull(1000.0, 2.0));
  const auto model = WeibullLifetime::fit(failures);
  EXPECT_NEAR(model.shape(), 2.0, 0.25);
  EXPECT_NEAR(model.scale(), 1000.0, 80.0);
  EXPECT_NEAR(model.cdf(1000.0), 1.0 - std::exp(-1.0), 0.05);
}

TEST(Weibull, HazardIncreasesForWearOut) {
  const std::vector<double> failures{800, 950, 1000, 1100, 1200, 900, 1050};
  const auto model = WeibullLifetime::fit(failures);
  EXPECT_GT(model.shape(), 1.0);  // wear-out
  EXPECT_GT(model.hazard(1000.0), model.hazard(100.0));
  EXPECT_GT(model.conditional_failure(1000.0, 100.0),
            model.conditional_failure(10.0, 100.0));
}

// --------------------------------------------------------------- workload

TEST(WorkloadForecast, LearnsDailyProfile) {
  WorkloadForecaster wf(kHour);
  Rng rng(23);
  // Two weeks of synthetic arrivals: busy 9-17h, quiet otherwise.
  for (int day = 0; day < 14; ++day) {
    for (int hour = 0; hour < 24; ++hour) {
      const int n = (hour >= 9 && hour < 17) ? 10 : 1;
      for (int j = 0; j < n; ++j) {
        wf.observe_arrival(day * kDay + hour * kHour +
                           rng.uniform_int(0, kHour - 1));
      }
    }
  }
  const auto profile = wf.daily_profile();
  ASSERT_EQ(profile.size(), 24u);
  EXPECT_GT(profile[12], profile[3] * 3.0);
  // Forecast the next day: business hours clearly above night.
  const auto fc = wf.forecast(24);
  EXPECT_GT(fc[12], fc[3]);
}

TEST(WorkloadForecast, NonNegativeForecasts) {
  WorkloadForecaster wf(kHour);
  wf.observe_arrival(10);
  for (double v : wf.forecast(48)) EXPECT_GE(v, 0.0);
}

// ----------------------------------------------------------------- whatif

TEST(WhatIf, BackfillImprovesOnFcfs) {
  sim::WorkloadParams wp;
  wp.seed = 404;
  wp.max_nodes_per_job = 32;
  wp.peak_arrival_rate_per_hour = 60.0;  // saturating for 64 nodes
  wp.max_duration = 4 * kHour;
  sim::WorkloadGenerator gen(wp);
  const auto trace = gen.generate_trace(400);
  const auto results = compare_disciplines(trace, 64);
  ASSERT_EQ(results.size(), 2u);
  const auto& fcfs = results[0];
  const auto& backfill = results[1];
  EXPECT_EQ(fcfs.jobs_completed, trace.size());
  EXPECT_EQ(backfill.jobs_completed, trace.size());
  // The canonical result: EASY backfill cuts waiting and bounded slowdown.
  EXPECT_LT(backfill.mean_wait_s, fcfs.mean_wait_s);
  EXPECT_LT(backfill.mean_bounded_slowdown, fcfs.mean_bounded_slowdown);
  EXPECT_GE(backfill.mean_utilization, fcfs.mean_utilization * 0.98);
}

TEST(WhatIf, EmptyMachineNoWaits) {
  sim::JobSpec spec;
  spec.id = 1;
  spec.user = "u";
  spec.nodes_requested = 1;
  sim::JobPhase phase;
  phase.nominal_duration = kHour;
  spec.phases = {phase};
  spec.walltime_requested = 2 * kHour;
  spec.submit_time = 0;
  WhatIfParams params;
  params.node_count = 4;
  const auto result = simulate_policy(std::vector<sim::JobSpec>{spec}, params);
  EXPECT_EQ(result.jobs_completed, 1u);
  EXPECT_DOUBLE_EQ(result.mean_wait_s, 0.0);
}

}  // namespace
}  // namespace oda::analytics
