#include "common/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/error.hpp"

namespace oda {

// ---------------------------------------------------------------- RunningStats

void RunningStats::add(double x) {
  const double n1 = static_cast<double>(n_);
  ++n_;
  const double n = static_cast<double>(n_);
  const double delta = x - m1_;
  const double delta_n = delta / n;
  const double delta_n2 = delta_n * delta_n;
  const double term1 = delta * delta_n * n1;
  m1_ += delta_n;
  m4_ += term1 * delta_n2 * (n * n - 3 * n + 3) + 6 * delta_n2 * m2_ - 4 * delta_n * m3_;
  m3_ += term1 * delta_n * (n - 2) - 3 * delta_n * m2_;
  m2_ += term1;
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::merge(const RunningStats& o) {
  if (o.n_ == 0) return;
  if (n_ == 0) {
    *this = o;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(o.n_);
  const double n = na + nb;
  const double delta = o.m1_ - m1_;
  const double delta2 = delta * delta;
  const double delta3 = delta2 * delta;
  const double delta4 = delta2 * delta2;

  const double m1 = (na * m1_ + nb * o.m1_) / n;
  const double m2 = m2_ + o.m2_ + delta2 * na * nb / n;
  const double m3 = m3_ + o.m3_ + delta3 * na * nb * (na - nb) / (n * n) +
                    3.0 * delta * (na * o.m2_ - nb * m2_) / n;
  const double m4 = m4_ + o.m4_ +
                    delta4 * na * nb * (na * na - na * nb + nb * nb) / (n * n * n) +
                    6.0 * delta2 * (na * na * o.m2_ + nb * nb * m2_) / (n * n) +
                    4.0 * delta * (na * o.m3_ - nb * m3_) / n;
  m1_ = m1;
  m2_ = m2;
  m3_ = m3;
  m4_ = m4;
  n_ += o.n_;
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
}

double RunningStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::skewness() const {
  if (n_ < 3 || m2_ <= 0.0) return 0.0;
  const double n = static_cast<double>(n_);
  return std::sqrt(n) * m3_ / std::pow(m2_, 1.5);
}

double RunningStats::kurtosis() const {
  if (n_ < 4 || m2_ <= 0.0) return 0.0;
  const double n = static_cast<double>(n_);
  return n * m4_ / (m2_ * m2_) - 3.0;
}

// ----------------------------------------------------------------- P2Quantile

P2Quantile::P2Quantile(double quantile) : q_(quantile) {
  ODA_REQUIRE(quantile > 0.0 && quantile < 1.0, "quantile must be in (0,1)");
  std::memset(heights_, 0, sizeof(heights_));
  for (int i = 0; i < 5; ++i) positions_[i] = i + 1;
  desired_[0] = 1;
  desired_[1] = 1 + 2 * q_;
  desired_[2] = 1 + 4 * q_;
  desired_[3] = 3 + 2 * q_;
  desired_[4] = 5;
  increments_[0] = 0;
  increments_[1] = q_ / 2;
  increments_[2] = q_;
  increments_[3] = (1 + q_) / 2;
  increments_[4] = 1;
}

void P2Quantile::add(double x) {
  if (count_ < 5) {
    heights_[count_++] = x;
    if (count_ == 5) std::sort(heights_, heights_ + 5);
    return;
  }
  ++count_;
  int k;
  if (x < heights_[0]) {
    heights_[0] = x;
    k = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = x;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= heights_[k + 1]) ++k;
  }
  for (int i = k + 1; i < 5; ++i) positions_[i] += 1;
  for (int i = 0; i < 5; ++i) desired_[i] += increments_[i];

  for (int i = 1; i <= 3; ++i) {
    const double d = desired_[i] - positions_[i];
    const double below = positions_[i] - positions_[i - 1];
    const double above = positions_[i + 1] - positions_[i];
    if ((d >= 1.0 && above > 1.0) || (d <= -1.0 && below > 1.0)) {
      const double sign = d >= 1.0 ? 1.0 : -1.0;
      // Parabolic (P²) interpolation of the marker height.
      const double new_height =
          heights_[i] +
          sign / (positions_[i + 1] - positions_[i - 1]) *
              ((below + sign) * (heights_[i + 1] - heights_[i]) / above +
               (above - sign) * (heights_[i] - heights_[i - 1]) / below);
      if (heights_[i - 1] < new_height && new_height < heights_[i + 1]) {
        heights_[i] = new_height;
      } else {
        // Fall back to linear interpolation when the parabola overshoots.
        const int j = i + static_cast<int>(sign);
        heights_[i] += sign * (heights_[j] - heights_[i]) /
                       (positions_[j] - positions_[i]);
      }
      positions_[i] += sign;
    }
  }
}

double P2Quantile::value() const {
  if (count_ == 0) return 0.0;
  if (count_ < 5) {
    // Exact quantile over the few stored samples.
    double tmp[5];
    std::copy(heights_, heights_ + count_, tmp);
    std::sort(tmp, tmp + count_);
    const double pos = q_ * static_cast<double>(count_ - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, count_ - 1);
    const double frac = pos - static_cast<double>(lo);
    return tmp[lo] + frac * (tmp[hi] - tmp[lo]);
  }
  return heights_[2];
}

// ----------------------------------------------------------------------- Ewma

Ewma::Ewma(double alpha) : alpha_(alpha) {
  ODA_REQUIRE(alpha > 0.0 && alpha <= 1.0, "EWMA alpha must be in (0,1]");
}

void Ewma::add(double x) {
  if (!initialized_) {
    mean_ = x;
    var_ = 0.0;
    initialized_ = true;
    return;
  }
  const double delta = x - mean_;
  mean_ += alpha_ * delta;
  var_ = (1.0 - alpha_) * (var_ + alpha_ * delta * delta);
}

// -------------------------------------------------------------- RollingWindow

RollingWindow::RollingWindow(std::size_t capacity) : capacity_(capacity) {
  ODA_REQUIRE(capacity > 0, "rolling window capacity must be positive");
}

void RollingWindow::add(double x) {
  if (window_.size() == capacity_) {
    const double old = window_.front();
    window_.pop_front();
    sum_ -= old;
    sum_sq_ -= old * old;
  }
  window_.push_back(x);
  sum_ += x;
  sum_sq_ += x * x;
}

double RollingWindow::mean() const {
  return window_.empty() ? 0.0 : sum_ / static_cast<double>(window_.size());
}

double RollingWindow::variance() const {
  const std::size_t n = window_.size();
  if (n < 2) return 0.0;
  const double m = mean();
  // Guard against catastrophic cancellation producing tiny negatives.
  const double v = (sum_sq_ - static_cast<double>(n) * m * m) /
                   static_cast<double>(n - 1);
  return v > 0.0 ? v : 0.0;
}

double RollingWindow::stddev() const { return std::sqrt(variance()); }

std::vector<double> RollingWindow::to_vector() const {
  return std::vector<double>(window_.begin(), window_.end());
}

// -------------------------------------------------------------- batch helpers

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

namespace {

/// The k-th smallest of xs (0-based) by quickselect, reordering xs so every
/// element before k compares <= it and every one after >= it. Each pass
/// partitions branch-free (a swap and a counter add per element, never a
/// data-dependent jump), so the short windows NodeAnomalyMonitor selects
/// from every tick cost no mispredicts. When the pivot is the least value
/// left, a second pass splits its ties off, so a window of equal values (a
/// flat signal's slopes) ends in one level.
/// After an unlucky run of pivots it finishes with std::nth_element, which
/// bounds the worst case at O(n log n).
double select_kth(std::span<double> xs, std::size_t k) {
  double* a = xs.data();
  std::size_t lo = 0;
  std::size_t hi = xs.size();
  std::size_t budget = 2 * static_cast<std::size_t>(std::bit_width(xs.size())) + 4;
  while (hi - lo > 1) {
    if (budget-- == 0) {
      // Through span iterators: GCC 12 reports a false -Warray-bounds in
      // the sanitizer builds when this shares its double* instantiation
      // with P2Quantile::value()'s five-element sort.
      const auto at = [&xs](std::size_t i) {
        return xs.begin() + static_cast<std::ptrdiff_t>(i);
      };
      std::nth_element(at(lo), at(k), at(hi));
      return a[k];
    }
    const double x = a[lo], y = a[lo + (hi - lo) / 2], z = a[hi - 1];
    const double pivot = std::max(std::min(x, y), std::min(std::max(x, y), z));
    // [lo, i) < pivot <= [i, hi).
    std::size_t i = lo;
    for (std::size_t j = lo; j < hi; ++j) {
      const double v = a[j];
      a[j] = a[i];
      a[i] = v;
      i += static_cast<std::size_t>(v < pivot);
    }
    if (k < i) {
      hi = i;
      continue;
    }
    if (i > lo) {
      lo = i;
      continue;
    }
    // The pivot is the range's least value: split its ties off so the
    // range still shrinks. [i, e) == pivot < [e, hi).
    std::size_t e = i;
    for (std::size_t j = i; j < hi; ++j) {
      const double v = a[j];
      a[j] = a[e];
      a[e] = v;
      e += static_cast<std::size_t>(!(pivot < v));
    }
    if (k < e) return a[k];
    lo = e;
  }
  return a[lo];
}

}  // namespace

double quantile_inplace(std::span<double> xs, double q) {
  ODA_REQUIRE(!xs.empty(), "quantile of empty span");
  ODA_REQUIRE(q >= 0.0 && q <= 1.0, "quantile must be in [0,1]");
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // The lo-th order statistic by selection, then the hi-th as the least of
  // what selection left above it: the two values a full sort would put at
  // lo and hi. Only +0.0 and -0.0 compare equal with different bits, and
  // the interpolation below returns the same bits whichever zero lands at
  // either position, so the result is a sort's to the bit.
  const double v_lo = select_kth(xs, lo);
  const double v_hi =
      hi == lo ? v_lo
               : *std::min_element(
                     xs.begin() + static_cast<std::ptrdiff_t>(hi), xs.end());
  return v_lo + frac * (v_hi - v_lo);
}

double quantile(std::span<const double> xs, double q) {
  std::vector<double> v(xs.begin(), xs.end());
  return quantile_inplace(v, q);
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

double mad(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  const double med = median(xs);
  std::vector<double> dev(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) dev[i] = std::abs(xs[i] - med);
  return 1.4826 * quantile_inplace(dev, 0.5);
}

double correlation(std::span<const double> xs, std::span<const double> ys) {
  ODA_REQUIRE(xs.size() == ys.size(), "correlation size mismatch");
  const std::size_t n = xs.size();
  if (n < 2) return 0.0;
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double autocorrelation(std::span<const double> xs, std::size_t lag) {
  const std::size_t n = xs.size();
  if (lag >= n || n < 2) return 0.0;
  const double m = mean(xs);
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    den += (xs[i] - m) * (xs[i] - m);
  }
  if (den <= 0.0) return 0.0;
  for (std::size_t i = 0; i + lag < n; ++i) {
    num += (xs[i] - m) * (xs[i + lag] - m);
  }
  return num / den;
}

}  // namespace oda
