// Unit tests for the oda_common substrate: RNG, streaming statistics,
// containers, concurrency primitives, and text/config utilities.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <thread>

#include "common/blocking_queue.hpp"
#include "common/config.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/ring_buffer.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"

namespace oda {
namespace {

// ----------------------------------------------------------------- types

TEST(Types, FormatDuration) {
  EXPECT_EQ(format_duration(0), "00:00:00");
  EXPECT_EQ(format_duration(kHour + 2 * kMinute + 3), "01:02:03");
  EXPECT_EQ(format_duration(2 * kDay + 3 * kHour), "2d 03:00:00");
  EXPECT_EQ(format_duration(-kMinute), "-00:01:00");
}

TEST(Types, FormatTime) {
  EXPECT_EQ(format_time(0), "d00 00:00:00");
  EXPECT_EQ(format_time(kDay + kHour), "d01 01:00:00");
  EXPECT_EQ(format_time(-kMinute), "t-00:01:00");
  EXPECT_EQ(format_time(-(2 * kDay + 3 * kHour)), "t-2d 03:00:00");
}

TEST(Types, UnitConversions) {
  EXPECT_DOUBLE_EQ(units::celsius_to_kelvin(0.0), 273.15);
  EXPECT_DOUBLE_EQ(units::kelvin_to_celsius(units::celsius_to_kelvin(42.0)), 42.0);
  EXPECT_DOUBLE_EQ(units::joules_to_kwh(3.6e6), 1.0);
}

// ------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, SplitStreamsIndependent) {
  Rng root(7);
  Rng c1 = root.split(1);
  Rng c2 = root.split(2);
  EXPECT_NE(c1.next(), c2.next());
}

TEST(Rng, UniformInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntBoundsInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.exponential(0.5));
  EXPECT_NEAR(stats.mean(), 2.0, 0.1);
}

TEST(Rng, PoissonMeanSmallAndLarge) {
  Rng rng(17);
  RunningStats small, large;
  for (int i = 0; i < 20000; ++i) {
    small.add(static_cast<double>(rng.poisson(3.0)));
    large.add(static_cast<double>(rng.poisson(80.0)));
  }
  EXPECT_NEAR(small.mean(), 3.0, 0.1);
  EXPECT_NEAR(large.mean(), 80.0, 0.5);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / 20000.0, 0.3, 0.02);
}

TEST(Rng, CategoricalRespectWeights) {
  Rng rng(23);
  std::vector<double> counts(3, 0.0);
  for (int i = 0; i < 30000; ++i) counts[rng.categorical({1.0, 2.0, 1.0})] += 1.0;
  EXPECT_NEAR(counts[1] / 30000.0, 0.5, 0.02);
}

TEST(Rng, CategoricalRejectsBadWeights) {
  Rng rng(1);
  EXPECT_THROW(rng.categorical({}), ContractError);
  EXPECT_THROW(rng.categorical({0.0, 0.0}), ContractError);
}

TEST(Rng, ParetoHeavyTail) {
  Rng rng(29);
  double max_seen = 0.0;
  for (int i = 0; i < 10000; ++i) max_seen = std::max(max_seen, rng.pareto(1.0, 1.5));
  EXPECT_GT(max_seen, 10.0);  // heavy tail produces large values
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

// ----------------------------------------------------------------- stats

TEST(RunningStats, MatchesBatchComputation) {
  Rng rng(37);
  RunningStats stats;
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(5.0, 3.0);
    xs.push_back(x);
    stats.add(x);
  }
  EXPECT_NEAR(stats.mean(), mean(xs), 1e-9);
  EXPECT_NEAR(stats.variance(), variance(xs), 1e-9);
}

TEST(RunningStats, MergeEqualsCombined) {
  Rng rng(41);
  RunningStats a, b, all;
  for (int i = 0; i < 300; ++i) {
    const double x = rng.uniform(0, 10);
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_NEAR(a.skewness(), all.skewness(), 1e-6);
  EXPECT_NEAR(a.kurtosis(), all.kurtosis(), 1e-6);
}

TEST(RunningStats, MinMax) {
  RunningStats s;
  s.add(3.0);
  s.add(-1.0);
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.min(), -1.0);
  EXPECT_DOUBLE_EQ(s.max(), 7.0);
}

TEST(P2Quantile, ExactForFewSamples) {
  P2Quantile q(0.5);
  q.add(1.0);
  q.add(3.0);
  q.add(2.0);
  EXPECT_DOUBLE_EQ(q.value(), 2.0);
}

TEST(P2Quantile, ApproximatesMedianOfNormal) {
  Rng rng(43);
  P2Quantile q(0.5);
  for (int i = 0; i < 20000; ++i) q.add(rng.normal(100.0, 15.0));
  EXPECT_NEAR(q.value(), 100.0, 1.0);
}

TEST(P2Quantile, ApproximatesTailQuantile) {
  Rng rng(47);
  P2Quantile q(0.95);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.exponential(1.0);
    xs.push_back(x);
    q.add(x);
  }
  EXPECT_NEAR(q.value(), quantile(xs, 0.95), 0.15);
}

TEST(Ewma, ConvergesToConstant) {
  Ewma e(0.2);
  for (int i = 0; i < 100; ++i) e.add(5.0);
  EXPECT_NEAR(e.mean(), 5.0, 1e-9);
  EXPECT_NEAR(e.variance(), 0.0, 1e-9);
}

TEST(Ewma, TracksStep) {
  Ewma e(0.5);
  e.add(0.0);
  for (int i = 0; i < 20; ++i) e.add(10.0);
  EXPECT_NEAR(e.mean(), 10.0, 0.01);
}

TEST(RollingWindow, EvictsOldest) {
  RollingWindow w(3);
  for (double x : {1.0, 2.0, 3.0, 4.0}) w.add(x);
  EXPECT_EQ(w.size(), 3u);
  EXPECT_DOUBLE_EQ(w.front(), 2.0);
  EXPECT_DOUBLE_EQ(w.mean(), 3.0);
}

TEST(RollingWindow, VarianceMatchesBatch) {
  Rng rng(53);
  RollingWindow w(50);
  for (int i = 0; i < 200; ++i) w.add(rng.uniform(0, 100));
  const auto v = w.to_vector();
  EXPECT_NEAR(w.variance(), variance(v), 1e-6);
}

TEST(BatchStats, QuantileInterpolates) {
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
}

TEST(BatchStats, SelectionQuantileMatchesSortBitForBit) {
  // quantile() selects its two order statistics; the reference sorts a
  // copy. Values come from a small pool so ties are common, and the pool
  // holds both zeros: +0.0 and -0.0 compare equal, so the two methods may
  // put different zeros at an order position, and the interpolation must
  // still return the same bits.
  const double pool[] = {-0.0, 0.0, -0.0, 0.0, 1.0, -1.0, 2.5, -2.5, 1e-300,
                         -1e300, 7.0, 7.0};
  const double qs[] = {0.0, 0.1, 0.25, 0.3, 0.5, 0.75, 0.9, 0.99, 1.0};
  const auto sorted_quantile = [](std::vector<double> v, double q) {
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + frac * (v[hi] - v[lo]);
  };
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  Rng rng(107);
  for (std::size_t n = 1; n <= 64; ++n) {
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<double> xs(n);
      for (double& x : xs) {
        x = trial % 2 == 0 ? pool[rng.uniform_int(0, 11)] : rng.normal();
      }
      for (const double q : qs) {
        EXPECT_EQ(bits(quantile(xs, q)), bits(sorted_quantile(xs, q)))
            << "n " << n << " trial " << trial << " q " << q;
        std::vector<double> scratch = xs;
        EXPECT_EQ(bits(quantile_inplace(scratch, q)),
                  bits(sorted_quantile(xs, q)));
      }
    }
  }
  // All-zero windows of mixed sign: the median is +0.0 either way.
  const std::vector<double> zeros = {-0.0, 0.0, -0.0, -0.0, 0.0, -0.0};
  EXPECT_EQ(bits(median(zeros)), bits(sorted_quantile(zeros, 0.5)));
}

TEST(BatchStats, MadRobustToOutlier) {
  std::vector<double> xs{1, 2, 3, 4, 5, 1000};
  EXPECT_LT(mad(xs), 5.0);
}

TEST(BatchStats, CorrelationKnownValues) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y{2, 4, 6, 8, 10};
  std::vector<double> z{5, 4, 3, 2, 1};
  EXPECT_NEAR(correlation(x, y), 1.0, 1e-12);
  EXPECT_NEAR(correlation(x, z), -1.0, 1e-12);
  std::vector<double> c{3, 3, 3, 3, 3};
  EXPECT_DOUBLE_EQ(correlation(x, c), 0.0);
}

TEST(BatchStats, AutocorrelationPeriodicSignal) {
  std::vector<double> xs;
  for (int i = 0; i < 128; ++i) xs.push_back(std::sin(2.0 * M_PI * i / 16.0));
  EXPECT_GT(autocorrelation(xs, 16), 0.8);
  EXPECT_LT(autocorrelation(xs, 8), -0.5);
}

// ------------------------------------------------------------- containers

TEST(RingBuffer, OverwritesOldest) {
  RingBuffer<int> rb(3);
  for (int i = 1; i <= 5; ++i) rb.push(i);
  EXPECT_TRUE(rb.full());
  EXPECT_EQ(rb[0], 3);
  EXPECT_EQ(rb.back(), 5);
  EXPECT_EQ(rb.to_vector(), (std::vector<int>{3, 4, 5}));
}

TEST(RingBuffer, IndexOutOfRangeThrows) {
  RingBuffer<int> rb(2);
  rb.push(1);
  EXPECT_THROW(rb[1], ContractError);
}

TEST(BlockingQueue, PushPopAndClose) {
  BlockingQueue<int> q;
  q.push(1);
  q.push(2);
  EXPECT_EQ(q.pop().value(), 1);
  q.close();
  EXPECT_EQ(q.pop().value(), 2);   // drains after close
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_FALSE(q.push(3));
}

TEST(BlockingQueue, BoundedTryPush) {
  BlockingQueue<int> q(1);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_FALSE(q.try_push(2));
  q.try_pop();
  EXPECT_TRUE(q.try_push(2));
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  auto f = pool.submit([] { return 7 * 6; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for_chunks(0, 100, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, WaitIdleBlocksUntilDone) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) {
    pool.submit([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      done++;
    });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 16);
}

// ----------------------------------------------------------------- string

TEST(StringUtil, SplitAndJoin) {
  EXPECT_EQ(split("a/b/c", '/'), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("", '/'), (std::vector<std::string>{""}));
  EXPECT_EQ(join({"x", "y"}, "-"), "x-y");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim("\t\n"), "");
}

TEST(StringUtil, GlobMatch) {
  EXPECT_TRUE(glob_match("*", "anything"));
  EXPECT_TRUE(glob_match("rack*/node*/power", "rack00/node03/power"));
  EXPECT_FALSE(glob_match("rack*/node*/power", "rack00/node03/temp"));
  EXPECT_TRUE(glob_match("a?c", "abc"));
  EXPECT_FALSE(glob_match("a?c", "abbc"));
  EXPECT_TRUE(glob_match("facility/*", "facility/pue"));
  EXPECT_FALSE(glob_match("facility/*", "network/pue"));
  EXPECT_TRUE(glob_match("", ""));
  EXPECT_FALSE(glob_match("", "x"));
}

TEST(StringUtil, FormatDouble) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_double(1.5000, 4, true), "1.5");
  EXPECT_EQ(format_double(2.0, 3, true), "2");
}

TEST(StringUtil, SiFormat) {
  EXPECT_EQ(si_format(1500.0), "1.5k");
  EXPECT_EQ(si_format(2500000.0), "2.5M");
  EXPECT_EQ(si_format(42.0), "42");
}

// ------------------------------------------------------------------ table

TEST(TextTable, RendersHeadersAndRows) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"beta", "2"});
  const std::string out = t.render();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("value"), std::string::npos);
}

TEST(TextTable, WrapsLongCells) {
  TextTable t({"text"});
  t.set_max_width(0, 10);
  t.add_row({"this is a very long cell that must wrap"});
  const std::string out = t.render();
  // No rendered line may exceed the width + borders.
  for (const auto& line : split(out, '\n')) {
    EXPECT_LE(line.size(), 15u);
  }
}

TEST(TextTable, PadsMissingCells) {
  TextTable t({"a", "b", "c"});
  t.add_row({"only-one"});
  EXPECT_NO_THROW(t.render());
}

// -------------------------------------------------------------------- csv

TEST(Csv, WriteAndParseRoundTrip) {
  std::ostringstream out;
  CsvWriter w(out);
  w.write_row(std::vector<std::string>{"name", "note"});
  w.write_row(std::vector<std::string>{"x", "contains, comma"});
  w.write_row(std::vector<std::string>{"y", "has \"quotes\""});
  const auto table = parse_csv(out.str());
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.rows[0][1], "contains, comma");
  EXPECT_EQ(table.rows[1][1], "has \"quotes\"");
}

TEST(Csv, NumericColumn) {
  const auto table = parse_csv("t,v\n1,2.5\n2,3.5\n");
  const auto col = table.numeric_column("v");
  ASSERT_EQ(col.size(), 2u);
  EXPECT_DOUBLE_EQ(col[0], 2.5);
  EXPECT_DOUBLE_EQ(col[1], 3.5);
}

TEST(Csv, MissingColumnThrows) {
  const auto table = parse_csv("a\n1\n");
  EXPECT_THROW(table.column("zzz"), ConfigError);
}

// ----------------------------------------------------------------- config

TEST(Config, ParseAndTypedGetters) {
  const auto cfg = Config::from_text(
      "alpha = 1.5\n"
      "count=42   # comment\n"
      "name = hello world\n"
      "flag = true\n");
  EXPECT_DOUBLE_EQ(cfg.get_double("alpha"), 1.5);
  EXPECT_EQ(cfg.get_int("count"), 42);
  EXPECT_EQ(cfg.get_string("name"), "hello world");
  EXPECT_TRUE(cfg.get_bool("flag"));
}

TEST(Config, MissingAndMalformed) {
  const auto cfg = Config::from_text("x = notanumber\n");
  EXPECT_THROW(cfg.get_double("x"), ConfigError);
  EXPECT_THROW(cfg.get_string("missing"), ConfigError);
  EXPECT_THROW(Config::from_text("no_equals_here\n"), ConfigError);
}

TEST(Config, ScopedAndMerge) {
  auto cfg = Config::from_text("sim.dt = 15\nsim.seed = 1\nother = 2\n");
  const auto sim = cfg.scoped("sim");
  EXPECT_EQ(sim.get_int("dt"), 15);
  EXPECT_FALSE(sim.contains("other"));
  cfg.merge(Config::from_text("sim.dt = 30\n"));
  EXPECT_EQ(cfg.get_int("sim.dt"), 30);
}

}  // namespace
}  // namespace oda
