// Streaming statistics: single-pass accumulators used throughout telemetry
// and analytics. All accumulators are O(1) memory and numerically stable
// (Welford updates), suitable for unbounded sensor streams.
#pragma once

#include <cstddef>
#include <deque>
#include <limits>
#include <span>
#include <vector>

namespace oda {

/// Welford running moments: mean/variance/min/max plus skewness/kurtosis.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  bool empty() const { return n_ == 0; }
  double mean() const { return n_ ? m1_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return m1_ * static_cast<double>(n_); }
  /// Fisher skewness g1; 0 when undefined.
  double skewness() const;
  /// Excess kurtosis g2; 0 when undefined.
  double kurtosis() const;

 private:
  std::size_t n_ = 0;
  double m1_ = 0.0, m2_ = 0.0, m3_ = 0.0, m4_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// P² streaming quantile estimator (Jain & Chlamtac 1985): estimates a single
/// quantile in O(1) memory without storing samples.
class P2Quantile {
 public:
  explicit P2Quantile(double quantile);

  void add(double x);
  /// Current estimate; exact while fewer than five samples were seen.
  double value() const;
  std::size_t count() const { return count_; }
  double quantile() const { return q_; }

 private:
  double q_;
  std::size_t count_ = 0;
  double heights_[5];
  double positions_[5];
  double desired_[5];
  double increments_[5];
};

/// Exponentially weighted moving average / variance.
class Ewma {
 public:
  /// alpha in (0, 1]: weight of the newest sample.
  explicit Ewma(double alpha);

  void add(double x);
  bool empty() const { return !initialized_; }
  double mean() const { return mean_; }
  double variance() const { return var_; }
  double alpha() const { return alpha_; }

 private:
  double alpha_;
  double mean_ = 0.0;
  double var_ = 0.0;
  bool initialized_ = false;
};

/// Sliding window over the last `capacity` samples with O(1) mean/variance
/// updates.
class RollingWindow {
 public:
  explicit RollingWindow(std::size_t capacity);

  void add(double x);
  std::size_t size() const { return window_.size(); }
  std::size_t capacity() const { return capacity_; }
  bool full() const { return window_.size() == capacity_; }
  double mean() const;
  double variance() const;
  double stddev() const;
  double front() const { return window_.front(); }
  double back() const { return window_.back(); }
  const std::deque<double>& values() const { return window_; }
  std::vector<double> to_vector() const;

 private:
  std::size_t capacity_;
  std::deque<double> window_;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
};

/// Batch helpers over spans (two-pass, stable).
double mean(std::span<const double> xs);
double variance(std::span<const double> xs);  // sample variance
double stddev(std::span<const double> xs);
double median(std::span<const double> xs);
/// Exact quantile with linear interpolation (type-7, as in numpy default).
double quantile(std::span<const double> xs, double q);
/// quantile() over a buffer it may reorder: selects the two order
/// statistics in place, with no copy. Same result, bit for bit.
double quantile_inplace(std::span<double> xs, double q);
/// Median absolute deviation (scaled by 1.4826 to be sigma-consistent).
double mad(std::span<const double> xs);
/// Pearson correlation; 0 if either side is constant.
// ODA-LINT-ALLOW(production-caller): only tests call it (ROADMAP item 12)
double correlation(std::span<const double> xs, std::span<const double> ys);
/// Sample autocorrelation at the given lag.
double autocorrelation(std::span<const double> xs, std::size_t lag);

}  // namespace oda
