// Experiment P2 (DESIGN.md): analytics-kernel microbenchmarks — the
// kernels behind the analytics cells the facility tick runs: FFT scaling,
// Holt-Winters fitting, PCA, and isolation-forest fit and scoring. Each case
// explains a cell line of the tick ledger (docs/OBSERVABILITY.md).
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

#include <cmath>

#include "common/rng.hpp"
#include "math/fft.hpp"
#include "math/isolation_forest.hpp"
#include "math/pca.hpp"
#include "math/smoothing.hpp"

namespace {

using namespace oda;

std::vector<double> noisy_seasonal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = 100.0 + 10.0 * std::sin(2.0 * M_PI * static_cast<double>(i) / 96.0) +
            rng.normal(0.0, 1.0);
  }
  return xs;
}

void BM_FftPowerOfTwo(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<math::Complex> xs(n);
  for (auto& c : xs) c = math::Complex(rng.normal(), 0.0);
  for (auto _ : state) {
    auto copy = xs;
    math::fft_radix2(copy, false);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FftPowerOfTwo)->Range(256, 1 << 16)->Complexity(benchmark::oNLogN);

void BM_FftBluestein(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<math::Complex> xs(n);  // prime-ish sizes exercise Bluestein
  for (auto& c : xs) c = math::Complex(rng.normal(), 0.0);
  for (auto _ : state) {
    auto out = math::fft(xs);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_FftBluestein)->Arg(1000)->Arg(4093);

void BM_HoltWintersFit(benchmark::State& state) {
  const auto xs = noisy_seasonal(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) {
    math::HoltWinters hw(0.25, 0.02, 0.15, 96);
    hw.fit(xs);
    benchmark::DoNotOptimize(hw.forecast(1));
  }
}
BENCHMARK(BM_HoltWintersFit)->Arg(1024)->Arg(8192);

void BM_PcaFit(benchmark::State& state) {
  Rng rng(5);
  const auto rows = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<double>> data;
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<double> row(16);
    for (auto& v : row) v = rng.normal();
    data.push_back(std::move(row));
  }
  const auto m = math::Matrix::from_rows(data);
  for (auto _ : state) {
    auto pca = math::Pca::fit(m, 4);
    benchmark::DoNotOptimize(&pca);
  }
}
BENCHMARK(BM_PcaFit)->Arg(256)->Arg(2048);

void BM_IsolationForestFit(benchmark::State& state) {
  Rng rng(11);
  std::vector<std::vector<double>> data;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    std::vector<double> row(15);
    for (auto& v : row) v = rng.normal();
    data.push_back(std::move(row));
  }
  for (auto _ : state) {
    Rng local(11);
    auto forest = math::IsolationForest::fit(data, {}, local);
    benchmark::DoNotOptimize(&forest);
  }
}
BENCHMARK(BM_IsolationForestFit)->Arg(512)->Arg(4096);

/// diag.node's scoring shape: one batch of 256 nodes x 15 window features
/// (mean, stddev, slope of 5 sensors) through a default 100-tree forest.
void BM_IsolationForestScore(benchmark::State& state) {
  constexpr std::size_t kRows = 256;
  constexpr std::size_t kFeatures = 15;
  Rng rng(13);
  std::vector<std::vector<double>> data;
  for (int i = 0; i < 1024; ++i) {
    std::vector<double> row(kFeatures);
    for (auto& v : row) v = rng.normal();
    data.push_back(std::move(row));
  }
  auto forest = math::IsolationForest::fit(data, {}, rng);
  std::vector<double> rows;
  rows.reserve(kRows * kFeatures);
  for (std::size_t r = 0; r < kRows; ++r) {
    rows.insert(rows.end(), data[r].begin(), data[r].end());
  }
  std::vector<double> scores(kRows);
  for (auto _ : state) {
    forest.score(rows, scores);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kRows));
}
BENCHMARK(BM_IsolationForestScore);

}  // namespace

ODA_BENCH_MAIN()
