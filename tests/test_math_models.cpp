// Tests for time-series models, FFT, and the ML kernels (PCA, kNN,
// isolation forest, decision trees) plus the optimizers.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "math/ar_model.hpp"
#include "math/decision_tree.hpp"
#include "math/distance.hpp"
#include "math/entropy.hpp"
#include "math/fft.hpp"
#include "math/isolation_forest.hpp"
#include "math/knn.hpp"
#include "math/optimize.hpp"
#include "math/pca.hpp"
#include "math/smoothing.hpp"
#include "math/timeseries.hpp"

namespace oda::math {
namespace {

// ------------------------------------------------------------- timeseries

TEST(TimeSeries, DifferenceAndSeasonalDifference) {
  const std::vector<double> xs{1, 3, 6, 10};
  EXPECT_EQ(difference(xs), (std::vector<double>{2, 3, 4}));
  EXPECT_EQ(seasonal_difference(xs, 2), (std::vector<double>{5, 7}));
}

TEST(TimeSeries, DetrendRemovesLine) {
  std::vector<double> xs;
  for (int i = 0; i < 40; ++i) xs.push_back(3.0 + 0.7 * i);
  for (double v : detrend(xs)) EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST(TimeSeries, ZNormalize) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  const auto z = z_normalize(xs);
  EXPECT_NEAR(oda::mean(z), 0.0, 1e-12);
  EXPECT_NEAR(oda::stddev(z), 1.0, 1e-12);
  const std::vector<double> constant(5, 3.0);
  for (double v : z_normalize(constant)) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(TimeSeries, MovingAverageSmoothsConstant) {
  std::vector<double> xs(20, 4.0);
  for (double v : moving_average(xs, 5)) EXPECT_DOUBLE_EQ(v, 4.0);
}

TEST(TimeSeries, TrailingAverageCausal) {
  const std::vector<double> xs{2, 4, 6, 8};
  const auto t = trailing_average(xs, 2);
  EXPECT_DOUBLE_EQ(t[0], 2.0);
  EXPECT_DOUBLE_EQ(t[1], 3.0);
  EXPECT_DOUBLE_EQ(t[3], 7.0);
}

TEST(TimeSeries, DetectPeriodOfSine) {
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) xs.push_back(std::sin(2.0 * M_PI * i / 24.0));
  const std::size_t p = detect_period(xs, 60);
  EXPECT_NEAR(static_cast<double>(p), 24.0, 2.0);
}

TEST(TimeSeries, DetectPeriodNoiseReturnsZero) {
  Rng rng(3);
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) xs.push_back(rng.normal());
  EXPECT_EQ(detect_period(xs, 50), 0u);
}

TEST(TimeSeries, AdditiveDecompositionRecovers) {
  std::vector<double> xs;
  for (int i = 0; i < 240; ++i) {
    xs.push_back(10.0 + 0.05 * i + 3.0 * std::sin(2.0 * M_PI * i / 24.0));
  }
  const auto d = decompose_additive(xs, 24);
  // Residual should be small relative to the seasonal amplitude.
  double max_resid = 0.0;
  for (std::size_t i = 24; i + 24 < xs.size(); ++i) {
    max_resid = std::max(max_resid, std::abs(d.residual[i]));
  }
  EXPECT_LT(max_resid, 0.8);
}

TEST(TimeSeries, PaaSegments) {
  const std::vector<double> xs{1, 1, 5, 5};
  const auto p = paa(xs, 2);
  EXPECT_DOUBLE_EQ(p[0], 1.0);
  EXPECT_DOUBLE_EQ(p[1], 5.0);
}

TEST(TimeSeries, LongestRunAbove) {
  const std::vector<double> xs{0, 5, 5, 5, 0, 5, 5, 0};
  EXPECT_EQ(longest_run_above(xs, 1.0), 3u);
}

// --------------------------------------------------------------------- AR

TEST(ArModel, RecoversAr1Coefficient) {
  Rng rng(7);
  std::vector<double> xs{0.0};
  for (int i = 1; i < 5000; ++i) {
    xs.push_back(0.7 * xs.back() + rng.normal(0.0, 1.0));
  }
  const auto model = ArModel::fit_yule_walker(xs, 1);
  EXPECT_NEAR(model.coefficients()[0], 0.7, 0.05);
}

TEST(ArModel, RecoversAr2Coefficients) {
  Rng rng(11);
  std::vector<double> xs{0.0, 0.0};
  for (int i = 2; i < 8000; ++i) {
    xs.push_back(0.5 * xs[xs.size() - 1] + 0.3 * xs[xs.size() - 2] +
                 rng.normal(0.0, 1.0));
  }
  const auto model = ArModel::fit_yule_walker(xs, 2);
  EXPECT_NEAR(model.coefficients()[0], 0.5, 0.05);
  EXPECT_NEAR(model.coefficients()[1], 0.3, 0.05);
}

TEST(ArModel, ForecastDecaysToMean) {
  Rng rng(17);
  std::vector<double> xs{10.0};
  for (int i = 1; i < 2000; ++i) {
    xs.push_back(5.0 + 0.5 * (xs.back() - 5.0) + rng.normal(0.0, 0.3));
  }
  const auto model = ArModel::fit_yule_walker(xs, 1);
  const auto fc = model.forecast(xs, 100);
  EXPECT_NEAR(fc.back(), model.mean(), 0.5);
}

TEST(ArModel, OrderSelectionFindsTrueOrder) {
  Rng rng(19);
  std::vector<double> xs{0.0, 0.0};
  for (int i = 2; i < 6000; ++i) {
    xs.push_back(0.4 * xs[xs.size() - 1] + 0.4 * xs[xs.size() - 2] +
                 rng.normal(0.0, 1.0));
  }
  const std::size_t order = select_ar_order(xs, 8);
  EXPECT_GE(order, 2u);
  EXPECT_LE(order, 4u);
}

TEST(ArModel, ConstantSeriesPredictsMean) {
  std::vector<double> xs(100, 42.0);
  const auto model = ArModel::fit_yule_walker(xs, 3);
  EXPECT_NEAR(model.predict_next(xs), 42.0, 1e-9);
}

// -------------------------------------------------------------- smoothing

TEST(Smoothing, SesConvergesToLevel) {
  SimpleExpSmoother s(0.5);
  for (int i = 0; i < 50; ++i) s.add(8.0);
  EXPECT_NEAR(s.forecast(), 8.0, 1e-9);
}

TEST(Smoothing, HoltTracksLinearTrend) {
  HoltSmoother h(0.5, 0.3);
  for (int i = 0; i < 200; ++i) h.add(2.0 * i);
  EXPECT_NEAR(h.trend(), 2.0, 0.05);
  EXPECT_NEAR(h.level(), 2.0 * 199, 2.0);
}

TEST(Smoothing, HoltWintersLearnsSeason) {
  HoltWinters hw(0.3, 0.05, 0.2, 12);
  std::vector<double> xs;
  for (int i = 0; i < 30 * 12; ++i) {
    xs.push_back(20.0 + 5.0 * std::sin(2.0 * M_PI * i / 12.0));
  }
  hw.fit(xs);
  ASSERT_TRUE(hw.seasonal_ready());
  // Forecast one full season and compare to the truth.
  for (std::size_t h = 1; h <= 12; ++h) {
    const double t = static_cast<double>(30 * 12 + h - 1);
    const double truth = 20.0 + 5.0 * std::sin(2.0 * M_PI * t / 12.0);
    EXPECT_NEAR(hw.forecast(h), truth, 1.0);
  }
}

// -------------------------------------------------------------------- FFT

// The inverse transform through the forward one: conj(fft(conj(X))) / n.
std::vector<Complex> inverse_fft(std::vector<Complex> spectrum) {
  for (auto& c : spectrum) c = std::conj(c);
  auto out = fft(std::move(spectrum));
  for (auto& c : out) c = std::conj(c) / static_cast<double>(out.size());
  return out;
}

TEST(Fft, RoundTripPowerOfTwo) {
  Rng rng(23);
  std::vector<Complex> xs(64);
  for (auto& c : xs) c = Complex(rng.normal(), rng.normal());
  const auto back = inverse_fft(fft(xs));
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_NEAR(back[i].real(), xs[i].real(), 1e-9);
    EXPECT_NEAR(back[i].imag(), xs[i].imag(), 1e-9);
  }
}

TEST(Fft, RoundTripArbitrarySize) {
  Rng rng(29);
  for (const std::size_t n : {3u, 5u, 12u, 100u, 129u}) {
    std::vector<Complex> xs(n);
    for (auto& c : xs) c = Complex(rng.normal(), 0.0);
    const auto back = inverse_fft(fft(xs));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(back[i].real(), xs[i].real(), 1e-8) << "n=" << n;
    }
  }
}

TEST(Fft, ParsevalTheorem) {
  Rng rng(31);
  std::vector<Complex> xs(128);
  for (auto& x : xs) x = Complex(rng.normal(), 0.0);
  double time_energy = 0.0;
  for (const auto& x : xs) time_energy += std::norm(x);
  const auto spec = fft(xs);
  double freq_energy = 0.0;
  for (const auto& c : spec) freq_energy += std::norm(c);
  EXPECT_NEAR(time_energy, freq_energy / 128.0, 1e-8);
}

TEST(Fft, FindsKnownFrequency) {
  std::vector<double> xs;
  for (int i = 0; i < 256; ++i) {
    xs.push_back(2.5 * std::cos(2.0 * M_PI * 10.0 * i / 256.0 + 0.4));
  }
  const auto comps = dominant_components(xs, 1);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_NEAR(comps[0].frequency, 10.0 / 256.0, 1e-6);
  EXPECT_NEAR(comps[0].amplitude, 2.5, 0.01);
  EXPECT_NEAR(comps[0].phase, 0.4, 0.01);
}

TEST(Fft, SynthesizeReconstructsSignal) {
  std::vector<double> xs;
  for (int i = 0; i < 128; ++i) {
    xs.push_back(7.0 + 3.0 * std::sin(2.0 * M_PI * 4.0 * i / 128.0));
  }
  // Mean plus each component's cosine at its amplitude and phase.
  const auto comps = dominant_components(xs, 2);
  for (std::size_t i = 0; i < 128; ++i) {
    double recon = 7.0;
    for (const auto& c : comps) {
      recon += c.amplitude * std::cos(2.0 * M_PI * c.frequency *
                                          static_cast<double>(i) + c.phase);
    }
    EXPECT_NEAR(recon, xs[i], 0.05);
  }
}

TEST(Fft, AutocorrelationOfPeriodicSignal) {
  std::vector<double> xs;
  for (int i = 0; i < 256; ++i) xs.push_back(std::sin(2.0 * M_PI * i / 32.0));
  const auto ac = fft_autocorrelation(xs, 64);
  EXPECT_NEAR(ac[0], 1.0, 1e-9);
  EXPECT_GT(ac[32], 0.7);
}

// -------------------------------------------------------------------- PCA

TEST(Pca, VarianceConcentratesOnFirstComponent) {
  Rng rng(37);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 300; ++i) {
    const double t = rng.normal(0.0, 5.0);
    rows.push_back({t, 2.0 * t + rng.normal(0.0, 0.1), rng.normal(0.0, 0.1)});
  }
  // Keep every component so the first one's share of the total shows.
  const auto pca = Pca::fit(Matrix::from_rows(rows));
  const auto& variance = pca.explained_variance();
  double total = 0.0;
  for (double v : variance) total += v;
  EXPECT_GT(variance[0] / total, 0.95);
}

TEST(Pca, ReconstructionErrorLowInSubspace) {
  Rng rng(41);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 200; ++i) {
    const double t = rng.normal();
    rows.push_back({t, -t, 2.0 * t});
  }
  const auto pca = Pca::fit(Matrix::from_rows(rows), 1);
  EXPECT_LT(pca.reconstruction_error(rows[0]), 1e-6);
  // A point far off the subspace scores high.
  EXPECT_GT(pca.reconstruction_error(std::vector<double>{1.0, 1.0, -2.0}), 1.0);
}

TEST(Pca, TransformInverseRoundTripFullRank) {
  Rng rng(43);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 50; ++i) {
    rows.push_back({rng.normal(), rng.normal(), rng.normal()});
  }
  const auto pca = Pca::fit(Matrix::from_rows(rows), 3);
  const auto recon = pca.inverse_transform(pca.transform(rows[7]));
  for (int d = 0; d < 3; ++d) EXPECT_NEAR(recon[d], rows[7][d], 1e-9);
}

// -------------------------------------------------------------------- kNN

TEST(Knn, RegressorInterpolatesSmoothFunction) {
  KnnRegressor knn;
  for (int i = 0; i < 100; ++i) {
    const double x = i * 0.1;
    knn.add({x}, std::sin(x));
  }
  EXPECT_NEAR(knn.predict_quantile(std::vector<double>{2.05}, 3, 0.5),
              std::sin(2.05), 0.05);
}

TEST(Knn, ClassifierMajorityVote) {
  KnnClassifier knn;
  for (int i = 0; i < 20; ++i) {
    knn.add({static_cast<double>(i % 3), 0.0}, i % 3 == 0 ? "a" : "b");
  }
  EXPECT_EQ(knn.predict(std::vector<double>{0.0, 0.0}, 3), "a");
  EXPECT_EQ(knn.predict(std::vector<double>{2.0, 0.0}, 3), "b");
  EXPECT_GT(knn.confidence(std::vector<double>{0.0, 0.0}, 3), 0.5);
}

// ------------------------------------------------------- isolation forest

TEST(IsolationForest, OutliersScoreHigher) {
  Rng rng(61);
  std::vector<std::vector<double>> data;
  for (int i = 0; i < 400; ++i) {
    data.push_back({rng.normal(0, 1), rng.normal(0, 1)});
  }
  auto forest = IsolationForest::fit(data, {}, rng);
  const double inlier = forest.score(std::vector<double>{0.1, -0.2});
  const double outlier = forest.score(std::vector<double>{9.0, 9.0});
  EXPECT_GT(outlier, inlier);
  EXPECT_GT(outlier, 0.6);
  EXPECT_LT(inlier, 0.55);
}

TEST(IsolationForest, DeterministicForSeed) {
  Rng a(67), b(67);
  std::vector<std::vector<double>> data;
  Rng gen(1);
  for (int i = 0; i < 100; ++i) data.push_back({gen.normal(), gen.normal()});
  auto f1 = IsolationForest::fit(data, {}, a);
  auto f2 = IsolationForest::fit(data, {}, b);
  const std::vector<double> q{0.5, 0.5};
  EXPECT_DOUBLE_EQ(f1.score(q), f2.score(q));
}

TEST(IsolationForest, ScoresPinnedBitForBit) {
  // Duplicated rows make leaves that stop on constant data above max depth,
  // so every leaf shape contributes to the pinned scores.
  Rng gen(83);
  std::vector<std::vector<double>> data;
  for (int i = 0; i < 300; ++i) {
    data.push_back({gen.normal(), gen.normal(0.0, 3.0), gen.uniform(-1.0, 1.0)});
  }
  for (int i = 0; i < 40; ++i) data.push_back(data[static_cast<std::size_t>(i % 4)]);
  Rng rng(89);
  IsolationForest::Params params;
  params.n_trees = 60;
  const auto forest = IsolationForest::fit(data, params, rng);
  // Scores of the pointer-tree forest, printed with %a: the flat forest
  // must reproduce them exactly.
  EXPECT_EQ(forest.score(std::vector<double>{0.0, 0.0, 0.0}),
            0x1.a91885604cfcbp-2);
  EXPECT_EQ(forest.score(std::vector<double>{4.0, -9.0, 0.9}),
            0x1.6cd1a0ae405a1p-1);
  EXPECT_EQ(forest.score(data[0]), 0x1.c0e22188672d1p-2);
  EXPECT_EQ(forest.score(data[123]), 0x1.10796aa9334b5p-1);
  EXPECT_EQ(forest.score(std::vector<double>{-0.3, 1.2, -0.7}),
            0x1.cf781ce37c7dcp-2);
}

/// The bits of a double, so a comparison tells -0.0 from 0.0 and matches NaNs.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(IsolationForest, BatchScoresEqualPerRowScoresBitForBit) {
  // Feature 2 is constant, so splits only ever use features 0 and 1 and
  // the constant-valued duplicates end in leaves above max depth.
  Rng gen(97);
  std::vector<std::vector<double>> data;
  for (int i = 0; i < 200; ++i) {
    data.push_back({gen.normal(), gen.normal(0.0, 2.0), 1.5});
  }
  for (int i = 0; i < 30; ++i) data.push_back(data[static_cast<std::size_t>(i % 3)]);
  Rng rng(101);
  IsolationForest::Params params;
  params.n_trees = 40;
  const auto forest = IsolationForest::fit(data, params, rng);
  // Rows with NaN features go right at every split they meet.
  const double nan = std::nan("");
  std::vector<double> rows;
  for (int r = 0; r < 37; ++r) {
    rows.push_back(r % 5 == 0 ? nan : gen.normal(0.0, 2.0));
    rows.push_back(r % 7 == 0 ? nan : gen.normal(0.0, 3.0));
    rows.push_back(r % 11 == 0 ? nan : 1.5);
  }
  // Every batch length from 1 to 37 covers whole interleaved groups and
  // every length of tail.
  for (std::size_t n = 1; n <= 37; ++n) {
    std::vector<double> batch(n);
    forest.score(std::span<const double>(rows.data(), n * 3), batch);
    for (std::size_t r = 0; r < n; ++r) {
      const double one =
          forest.score(std::span<const double>(rows.data() + r * 3, 3));
      EXPECT_EQ(bits(batch[r]), bits(one)) << "batch " << n << " row " << r;
    }
  }

  // Constant data: every tree is one leaf, walked in zero steps.
  const std::vector<std::vector<double>> flat(50, std::vector<double>{2.0, -1.0});
  Rng flat_rng(103);
  const auto stump = IsolationForest::fit(flat, params, flat_rng);
  const std::vector<double> flat_rows = {2.0, -1.0, 9.0, nan, nan, 0.0,
                                         2.0, -1.0, 1.0, 1.0, 3.0, 3.0,
                                         2.0, -1.0, 1.0, 1.0, 3.0, 3.0};
  std::vector<double> flat_scores(9);
  stump.score(flat_rows, flat_scores);
  for (std::size_t r = 0; r < flat_scores.size(); ++r) {
    EXPECT_EQ(bits(flat_scores[r]),
              bits(stump.score(std::span<const double>(&flat_rows[r * 2], 2))));
    EXPECT_EQ(flat_scores[r], flat_scores[0]);  // one leaf, one path length
  }
}

// ---------------------------------------------------------- decision tree

// The class a fitted model votes for: the most probable, the first on a tie.
std::size_t most_probable(const std::vector<double>& probs) {
  return static_cast<std::size_t>(
      std::max_element(probs.begin(), probs.end()) - probs.begin());
}

TEST(DecisionTree, LearnsAxisAlignedSplit) {
  Rng rng(71);
  std::vector<LabeledSample> data;
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform(-1, 1);
    data.push_back({{x, rng.uniform(-1, 1)}, x > 0.0 ? 1u : 0u});
  }
  const auto tree = DecisionTree::fit(data, 2, {}, rng);
  EXPECT_EQ(most_probable(tree.predict_proba(std::vector<double>{0.5, 0.0})), 1u);
  EXPECT_EQ(most_probable(tree.predict_proba(std::vector<double>{-0.5, 0.0})),
            0u);
}

TEST(RandomForest, LearnsNonlinearBoundary) {
  Rng rng(73);
  std::vector<LabeledSample> data;
  for (int i = 0; i < 600; ++i) {
    const double x = rng.uniform(-1, 1);
    const double y = rng.uniform(-1, 1);
    // XOR-style quadrant labeling: a single axis split cannot solve it.
    data.push_back({{x, y}, (x > 0) == (y > 0) ? 1u : 0u});
  }
  RandomForest::Params params;
  params.n_trees = 30;
  const auto forest = RandomForest::fit(data, 2, params, rng);
  int correct = 0;
  Rng test_rng(79);
  for (int i = 0; i < 200; ++i) {
    const double x = test_rng.uniform(-1, 1);
    const double y = test_rng.uniform(-1, 1);
    const std::size_t truth = (x > 0) == (y > 0) ? 1u : 0u;
    if (most_probable(forest.predict_proba(std::vector<double>{x, y})) == truth) {
      ++correct;
    }
  }
  EXPECT_GT(correct, 170);  // > 85% on a clean XOR problem
}

// --------------------------------------------------------------- optimize

TEST(Optimize, GoldenSectionFindsQuadraticMin) {
  const auto r = golden_section([](double x) { return (x - 3.0) * (x - 3.0); },
                                -10.0, 10.0);
  EXPECT_NEAR(r.x, 3.0, 1e-4);
}

TEST(Optimize, CoordinateDescentOnRosenbrockish) {
  const ObjectiveND f = [](std::span<const double> x) {
    return (x[0] - 1.0) * (x[0] - 1.0) + 5.0 * (x[1] + 2.0) * (x[1] + 2.0);
  };
  const auto r = coordinate_descent(f, {0.0, 0.0}, {1.0, 1.0}, 500);
  EXPECT_NEAR(r.x[0], 1.0, 1e-2);
  EXPECT_NEAR(r.x[1], -2.0, 1e-2);
}

TEST(Optimize, NelderMeadQuadratic) {
  const ObjectiveND f = [](std::span<const double> x) {
    return (x[0] - 2.0) * (x[0] - 2.0) + (x[1] - 1.0) * (x[1] - 1.0) +
           0.5 * x[0] * x[1];
  };
  const auto r = nelder_mead(f, {5.0, 5.0}, 1.0, 1000);
  // Analytic minimum of the coupled quadratic: x = (12/7.5, 3/7.5)... verify
  // by gradient: 2(x-2) + 0.5 y = 0; 2(y-1) + 0.5 x = 0 -> x=1.8667, y=0.5333.
  EXPECT_NEAR(r.x[0], 1.8667, 0.01);
  EXPECT_NEAR(r.x[1], 0.5333, 0.01);
}

TEST(Optimize, AnnealingFindsGlobalAmongLocal) {
  // Two wells; the deeper one is at x = 4.
  const ObjectiveND f = [](std::span<const double> x) {
    const double a = (x[0] + 3.0) * (x[0] + 3.0) - 1.0;
    const double b = (x[0] - 4.0) * (x[0] - 4.0) - 3.0;
    return std::min(a, b);
  };
  Rng rng(83);
  AnnealParams params;
  params.steps = 3000;
  params.initial_temperature = 2.0;
  const std::vector<double> lo{-10.0}, hi{10.0};
  const auto r = simulated_annealing(f, lo, hi, params, rng);
  EXPECT_NEAR(r.x[0], 4.0, 0.5);
}

TEST(Optimize, GridSearchExhaustive) {
  const ObjectiveND f = [](std::span<const double> x) {
    return std::abs(x[0] - 2.0) + std::abs(x[1] - 30.0);
  };
  const auto r = grid_search(f, {{1.0, 2.0, 3.0}, {10.0, 20.0, 30.0}});
  EXPECT_DOUBLE_EQ(r.x[0], 2.0);
  EXPECT_DOUBLE_EQ(r.x[1], 30.0);
  EXPECT_EQ(r.evaluations, 9u);
}

TEST(Optimize, RandomSearchApproaches) {
  Rng rng(89);
  const ObjectiveND f = [](std::span<const double> x) {
    return x[0] * x[0] + x[1] * x[1];
  };
  const std::vector<double> lo{-5, -5}, hi{5, 5};
  const auto r = random_search(f, lo, hi, 500, rng);
  EXPECT_LT(r.value, 0.5);
}

// --------------------------------------------------------------- distance

TEST(Distance, BasicMetrics) {
  const std::vector<double> a{0, 0}, b{3, 4};
  EXPECT_DOUBLE_EQ(euclidean_distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(manhattan_distance(a, b), 7.0);
  EXPECT_DOUBLE_EQ(chebyshev_distance(a, b), 4.0);
}

TEST(Distance, CosineParallelAndOrthogonal) {
  EXPECT_NEAR(cosine_distance(std::vector<double>{1, 0},
                              std::vector<double>{2, 0}),
              0.0, 1e-12);
  EXPECT_NEAR(cosine_distance(std::vector<double>{1, 0},
                              std::vector<double>{0, 1}),
              1.0, 1e-12);
}

TEST(Distance, DtwIdenticalIsZero) {
  const std::vector<double> a{1, 2, 3, 2, 1};
  EXPECT_DOUBLE_EQ(dtw_distance(a, a), 0.0);
}

TEST(Distance, DtwHandlesTimeShift) {
  // The same pulse shifted: DTW should be much smaller than the euclidean
  // point-wise distance.
  std::vector<double> a(32, 0.0), b(32, 0.0);
  for (int i = 8; i < 12; ++i) a[static_cast<std::size_t>(i)] = 5.0;
  for (int i = 12; i < 16; ++i) b[static_cast<std::size_t>(i)] = 5.0;
  double euclid = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) euclid += std::abs(a[i] - b[i]);
  EXPECT_LT(dtw_distance(a, b), euclid / 2.0);
}

TEST(Distance, DtwDifferentLengths) {
  const std::vector<double> a{1, 2, 3};
  const std::vector<double> b{1, 1, 2, 2, 3, 3};
  EXPECT_NEAR(dtw_distance(a, b), 0.0, 1e-12);
}

// ---------------------------------------------------------------- entropy

TEST(Entropy, UniformIsMaximal) {
  const std::vector<std::size_t> uniform{10, 10, 10, 10};
  const std::vector<std::size_t> skewed{37, 1, 1, 1};
  EXPECT_NEAR(shannon_entropy(uniform), 2.0, 1e-12);
  EXPECT_LT(shannon_entropy(skewed), 2.0);
  EXPECT_NEAR(normalized_entropy(uniform), 1.0, 1e-12);
}

TEST(Entropy, BinnedEntropyConstantIsZero) {
  const std::vector<double> xs(50, 3.0);
  EXPECT_DOUBLE_EQ(binned_entropy(xs, 8), 0.0);
}

TEST(Entropy, TransitionEntropyRegularVsRandom) {
  TransitionEntropy regular, random_te;
  Rng rng(97);
  for (int i = 0; i < 300; ++i) {
    regular.observe(i % 2 ? "a" : "b");
    random_te.observe(std::string(1, static_cast<char>('a' + rng.uniform_int(0, 3))));
  }
  EXPECT_LT(regular.entropy(), random_te.entropy());
  EXPECT_EQ(regular.distinct_transitions(), 2u);
}

}  // namespace
}  // namespace oda::math
