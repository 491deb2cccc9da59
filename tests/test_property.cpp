// Property-based tests: parameterized sweeps asserting invariants across
// input families rather than single examples — FFT algebra over sizes,
// quantile-estimator error bounds over distributions, scheduler safety
// invariants over random workloads/seeds, detector monotonicity over fault
// magnitudes, and statistics merge laws over random partitions.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "analytics/diagnostic/anomaly.hpp"
#include "analytics/predictive/backtest.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/string_util.hpp"
#include "math/distance.hpp"
#include "math/fft.hpp"
#include "math/optimize.hpp"
#include "sim/scheduler.hpp"
#include "sim/workload.hpp"

namespace oda {
namespace {

// --------------------------------------------------- FFT algebra over sizes

class FftSizeProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizeProperty, RoundTripIsIdentity) {
  const std::size_t n = GetParam();
  Rng rng(1000 + n);
  std::vector<math::Complex> xs(n);
  for (auto& c : xs) c = math::Complex(rng.normal(), rng.normal());
  // The inverse through the forward transform: conj(fft(conj(X))) / n.
  auto spectrum = math::fft(xs);
  for (auto& c : spectrum) c = std::conj(c);
  auto back = math::fft(std::move(spectrum));
  for (auto& c : back) c = std::conj(c) / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(back[i].real(), xs[i].real(), 1e-7) << "n=" << n;
    EXPECT_NEAR(back[i].imag(), xs[i].imag(), 1e-7) << "n=" << n;
  }
}

TEST_P(FftSizeProperty, LinearityHolds) {
  const std::size_t n = GetParam();
  Rng rng(2000 + n);
  std::vector<math::Complex> a(n), b(n), sum(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = math::Complex(rng.normal(), 0);
    b[i] = math::Complex(rng.normal(), 0);
    sum[i] = a[i] + b[i];
  }
  const auto fa = math::fft(a);
  const auto fb = math::fft(b);
  const auto fsum = math::fft(sum);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(fsum[i].real(), fa[i].real() + fb[i].real(), 1e-7);
    EXPECT_NEAR(fsum[i].imag(), fa[i].imag() + fb[i].imag(), 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftSizeProperty,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 15, 16, 31, 32,
                                           60, 64, 100, 127, 128, 255, 256));

// ------------------------------------------- P2 quantile over distributions

struct QuantileCase {
  const char* name;
  double q;
  int distribution;  // 0 normal, 1 exponential, 2 uniform, 3 bimodal
};

// Without this gtest prints the raw bytes of the case, the name pointer
// included, so the listed test name (and its ctest name) changed per run.
void PrintTo(const QuantileCase& c, std::ostream* os) {
  *os << c.name << " q=" << c.q;
}

class P2Property : public ::testing::TestWithParam<QuantileCase> {};

TEST_P(P2Property, TracksExactQuantile) {
  const auto& param = GetParam();
  Rng rng(static_cast<std::uint64_t>(param.q * 1000) + param.distribution);
  P2Quantile estimator(param.q);
  std::vector<double> xs;
  for (int i = 0; i < 30000; ++i) {
    double x = 0.0;
    switch (param.distribution) {
      case 0: x = rng.normal(50.0, 10.0); break;
      case 1: x = rng.exponential(0.2); break;
      case 2: x = rng.uniform(-5.0, 5.0); break;
      case 3: x = rng.bernoulli(0.5) ? rng.normal(0, 1) : rng.normal(20, 1); break;
      default: break;
    }
    xs.push_back(x);
    estimator.add(x);
  }
  const double exact = quantile(xs, param.q);
  const double spread = quantile(xs, 0.95) - quantile(xs, 0.05);
  EXPECT_NEAR(estimator.value(), exact, 0.05 * spread + 1e-6)
      << param.name << " q=" << param.q;
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, P2Property,
    ::testing::Values(QuantileCase{"normal_med", 0.5, 0},
                      QuantileCase{"normal_p90", 0.9, 0},
                      QuantileCase{"normal_p99", 0.99, 0},
                      QuantileCase{"exp_med", 0.5, 1},
                      QuantileCase{"exp_p95", 0.95, 1},
                      QuantileCase{"uniform_p25", 0.25, 2},
                      QuantileCase{"uniform_p75", 0.75, 2},
                      // Note: the *median* of a well-separated bimodal mix
                      // sits in an empty density valley where the target
                      // itself is unstable, so we test quantiles inside the
                      // modes instead.
                      QuantileCase{"bimodal_p25", 0.25, 3},
                      QuantileCase{"bimodal_p90", 0.9, 3}),
    [](const auto& suite_info) { return std::string(suite_info.param.name); });

// ------------------------------------------- scheduler safety across seeds

class SchedulerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerProperty, InvariantsUnderRandomWorkload) {
  const std::uint64_t seed = GetParam();
  sim::WorkloadParams wp;
  wp.seed = seed;
  wp.max_nodes_per_job = 16;
  wp.min_duration = 5 * kMinute;
  wp.max_duration = 2 * kHour;
  sim::WorkloadGenerator gen(wp);
  auto trace = gen.generate_trace(120);

  sim::SchedulerParams sp;
  sp.discipline = seed % 2 ? sim::QueueDiscipline::kEasyBackfill
                           : sim::QueueDiscipline::kFcfs;
  sim::Scheduler sched(16, sp);

  std::size_t next = 0;
  TimePoint now = 0;
  const Duration dt = kMinute;
  std::set<std::uint64_t> completed_ids;
  while (completed_ids.size() < trace.size() && now < 365 * kDay) {
    while (next < trace.size() && trace[next].submit_time <= now) {
      sched.submit(trace[next++]);
    }
    sched.schedule(now);

    // Invariant 1: a node is never allocated to two jobs.
    std::set<std::size_t> used;
    for (const auto& job : sched.running()) {
      for (std::size_t n : job.nodes) {
        EXPECT_TRUE(used.insert(n).second) << "double allocation, seed " << seed;
      }
    }
    // Invariant 2: busy-map consistency.
    EXPECT_EQ(used.size(), sched.node_count() - sched.free_node_count());

    for (const auto& job : sched.running()) {
      sched.advance_job(job.spec.id, static_cast<double>(dt), 0.0);
    }
    now += dt;
    for (const auto& r : sched.reap(now, 1e18)) {
      // Invariant 3: jobs never run past their walltime request.
      EXPECT_LE(r.run_time(), r.spec.walltime_requested + dt);
      // Invariant 4: each job completes exactly once.
      EXPECT_TRUE(completed_ids.insert(r.spec.id).second);
    }
  }
  // Liveness: everything completes.
  EXPECT_EQ(completed_ids.size(), trace.size()) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --------------------------------- stuck detector monotone in run length

class StuckProperty : public ::testing::TestWithParam<int> {};

TEST_P(StuckProperty, ScoreMonotoneInRunLength) {
  const int run = GetParam();
  analytics::StuckSensorDetector det(16);
  Rng rng(run);
  for (int i = 0; i < 64; ++i) det.observe(rng.normal(10, 1));
  double last_score = det.score();
  for (int i = 0; i < run; ++i) {
    det.observe(42.0);
    EXPECT_GE(det.score() + 1e-12, last_score);
    last_score = det.score();
  }
  // The first repeated sample starts the run at zero, so `run` observations
  // of the same value yield a run length of run - 1.
  if (run - 1 >= 16) {
    EXPECT_GE(det.score(), 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Runs, StuckProperty,
                         ::testing::Values(1, 4, 8, 15, 16, 32, 64));

// ------------------------------------------- z-score detector ROC quality

class DetectorAucProperty : public ::testing::TestWithParam<double> {};

TEST_P(DetectorAucProperty, AucGrowsWithSpikeMagnitude) {
  const double magnitude = GetParam();
  Rng rng(static_cast<std::uint64_t>(magnitude * 100));
  analytics::ZScoreDetector det(64, 4.0);
  std::vector<double> scores;
  std::vector<bool> truth;
  for (int i = 0; i < 2000; ++i) {
    const bool is_anomaly = i > 200 && rng.bernoulli(0.02);
    const double x = rng.normal(100.0, 2.0) + (is_anomaly ? magnitude : 0.0);
    det.observe(x);
    if (i > 200) {
      scores.push_back(det.score());
      truth.push_back(is_anomaly);
    }
  }
  const double auc = analytics::roc_auc(scores, truth);
  if (magnitude >= 8.0) {
    EXPECT_GT(auc, 0.95) << "magnitude " << magnitude;
  } else if (magnitude >= 4.0) {
    EXPECT_GT(auc, 0.75) << "magnitude " << magnitude;
  } else {
    EXPECT_GT(auc, 0.45) << "magnitude " << magnitude;  // not pathological
  }
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, DetectorAucProperty,
                         ::testing::Values(1.0, 4.0, 8.0, 16.0, 32.0));

// -------------------------------------------------- forecaster robustness

class ForecasterRobustness
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ForecasterRobustness, FiniteForecastsOnHostileInputs) {
  auto model = analytics::make_forecaster(GetParam());
  // Constant, spike, alternating, and large-magnitude inputs must never
  // produce NaN/inf forecasts.
  const std::vector<std::vector<double>> inputs = {
      std::vector<double>(200, 5.0),
      [] {
        std::vector<double> v(200, 1.0);
        v[100] = 1e9;
        return v;
      }(),
      [] {
        std::vector<double> v;
        for (int i = 0; i < 200; ++i) v.push_back(i % 2 ? 1e6 : -1e6);
        return v;
      }(),
  };
  for (const auto& xs : inputs) {
    model->fit(xs);
    for (double v : model->forecast(16)) {
      EXPECT_TRUE(std::isfinite(v)) << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Specs, ForecasterRobustness,
                         ::testing::Values("persistence", "moving-average",
                                           "ses", "holt", "holt-winters:24",
                                           "ar", "linear-trend:32"),
                         [](const auto& suite_info) {
                           std::string name = suite_info.param;
                           for (char& c : name) {
                             if (c == '-' || c == ':') c = '_';
                           }
                           return name;
                         });

// ------------------------------------------------------ DTW metric laws

class DtwProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DtwProperty, SymmetryAndIdentity) {
  Rng rng(GetParam());
  std::vector<double> a(40), b(50);
  for (auto& x : a) x = rng.normal();
  for (auto& x : b) x = rng.normal();
  EXPECT_DOUBLE_EQ(math::dtw_distance(a, a), 0.0);
  EXPECT_NEAR(math::dtw_distance(a, b), math::dtw_distance(b, a), 1e-9);
  EXPECT_GE(math::dtw_distance(a, b), 0.0);
  // DTW is bounded above by the L1 distance when lengths match.
  std::vector<double> c(a.size());
  for (std::size_t i = 0; i < c.size(); ++i) c[i] = rng.normal();
  EXPECT_LE(math::dtw_distance(a, c), math::manhattan_distance(a, c) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DtwProperty, ::testing::Values(7, 11, 13, 17));

// --------------------------------------------- RunningStats merge algebra

class MergeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MergeProperty, AnyPartitionGivesSameMoments) {
  Rng rng(GetParam());
  std::vector<double> xs;
  for (int i = 0; i < 400; ++i) xs.push_back(rng.lognormal(1.0, 1.0));

  RunningStats whole;
  for (double x : xs) whole.add(x);

  // Random 3-way partition, merged in random order.
  RunningStats parts[3];
  for (double x : xs) parts[rng.uniform_int(0, 2)].add(x);
  RunningStats merged = parts[2];
  merged.merge(parts[0]);
  merged.merge(parts[1]);

  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_NEAR(merged.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(merged.variance(), whole.variance(), 1e-7);
  EXPECT_NEAR(merged.skewness(), whole.skewness(), 1e-6);
  EXPECT_NEAR(merged.kurtosis(), whole.kurtosis(), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeProperty,
                         ::testing::Values(3, 9, 27, 81, 243));

// ------------------------------------------------------- glob properties

class GlobProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GlobProperty, SelfAndStarMatches) {
  Rng rng(GetParam());
  // Random sensor-like paths.
  std::string path;
  const char* segments[] = {"rack", "node", "cpu", "power", "temp", "fan"};
  const int depth = static_cast<int>(rng.uniform_int(1, 4));
  for (int d = 0; d < depth; ++d) {
    if (d) path += '/';
    path += segments[rng.uniform_int(0, 5)];
    path += std::to_string(rng.uniform_int(0, 99));
  }
  EXPECT_TRUE(glob_match(path, path));      // literal self-match
  EXPECT_TRUE(glob_match("*", path));       // universal match
  // Replacing any suffix with '*' still matches.
  for (std::size_t cut = 0; cut < path.size(); ++cut) {
    EXPECT_TRUE(glob_match(path.substr(0, cut) + "*", path));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GlobProperty,
                         ::testing::Values(1, 2, 4, 8, 16, 32));

// ------------------------------------------ golden section over quadratics

class GoldenProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GoldenProperty, FindsMinimumOfRandomQuadratic) {
  Rng rng(GetParam());
  const double center = rng.uniform(-50.0, 50.0);
  const double scale = rng.uniform(0.1, 10.0);
  const auto result = math::golden_section(
      [&](double x) { return scale * (x - center) * (x - center) + 3.0; },
      -100.0, 100.0, 1e-8);
  EXPECT_NEAR(result.x, center, 1e-4);
  EXPECT_NEAR(result.value, 3.0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GoldenProperty,
                         ::testing::Values(5, 10, 15, 20, 25, 30));

}  // namespace
}  // namespace oda
