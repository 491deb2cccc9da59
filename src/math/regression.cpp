#include "math/regression.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"

namespace oda::math {

TrendLine fit_trend(std::span<const double> y) {
  const std::size_t n = y.size();
  TrendLine t;
  if (n < 2) {
    t.intercept = n == 1 ? y[0] : 0.0;
    return t;
  }
  // Closed form over t = 0..n-1.
  const double nt = static_cast<double>(n);
  const double tm = (nt - 1.0) / 2.0;
  const double ym = oda::mean(y);
  double stt = 0.0, sty = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dt = static_cast<double>(i) - tm;
    const double dy = y[i] - ym;
    stt += dt * dt;
    sty += dt * dy;
    syy += dy * dy;
  }
  t.slope = stt > 0.0 ? sty / stt : 0.0;
  t.intercept = ym - t.slope * tm;
  t.r_squared = (stt > 0.0 && syy > 0.0) ? (sty * sty) / (stt * syy) : 0.0;
  return t;
}

double theil_sen_slope(std::span<const double> y, std::vector<double>& slopes,
                       std::size_t max_pairs) {
  const std::size_t n = y.size();
  if (n < 2) return 0.0;
  slopes.clear();
  const std::size_t total_pairs = n * (n - 1) / 2;
  if (total_pairs <= max_pairs) {
    slopes.reserve(total_pairs);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        slopes.push_back((y[j] - y[i]) / static_cast<double>(j - i));
      }
    }
  } else {
    // Deterministic subsample of pairs.
    Rng rng(0xDA7A5EEDULL + n);
    slopes.reserve(max_pairs);
    for (std::size_t k = 0; k < max_pairs; ++k) {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 2));
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::int64_t>(i) + 1,
                          static_cast<std::int64_t>(n) - 1));
      slopes.push_back((y[j] - y[i]) / static_cast<double>(j - i));
    }
  }
  return oda::quantile_inplace(slopes, 0.5);
}

TrendLine fit_theil_sen(std::span<const double> y, std::size_t max_pairs) {
  const std::size_t n = y.size();
  TrendLine t;
  if (n < 2) {
    t.intercept = n == 1 ? y[0] : 0.0;
    return t;
  }
  std::vector<double> scratch;
  t.slope = theil_sen_slope(y, scratch, max_pairs);
  // Intercept: median of y_i - slope*i.
  scratch.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    scratch[i] = y[i] - t.slope * static_cast<double>(i);
  }
  t.intercept = oda::quantile_inplace(scratch, 0.5);
  return t;
}

}  // namespace oda::math
