#include "math/entropy.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace oda::math {

double shannon_entropy(std::span<const std::size_t> counts) {
  std::size_t total = 0;
  for (std::size_t c : counts) total += c;
  if (total == 0) return 0.0;
  double h = 0.0;
  for (std::size_t c : counts) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / static_cast<double>(total);
    h -= p * std::log2(p);
  }
  return h;
}

double binned_entropy(std::span<const double> xs, std::size_t bins) {
  ODA_REQUIRE(bins > 0, "binned_entropy needs bins");
  if (xs.empty()) return 0.0;
  const auto [lo_it, hi_it] = std::minmax_element(xs.begin(), xs.end());
  const double lo = *lo_it, hi = *hi_it;
  if (hi <= lo) return 0.0;  // constant signal
  std::vector<std::size_t> counts(bins, 0);
  for (double x : xs) {
    auto idx = static_cast<std::size_t>((x - lo) / (hi - lo) * static_cast<double>(bins));
    if (idx >= bins) idx = bins - 1;
    ++counts[idx];
  }
  return shannon_entropy(counts);
}

double normalized_entropy(std::span<const std::size_t> counts) {
  std::size_t nonzero = 0;
  for (std::size_t c : counts) {
    if (c > 0) ++nonzero;
  }
  if (nonzero <= 1) return 0.0;
  return shannon_entropy(counts) / std::log2(static_cast<double>(nonzero));
}

void TransitionEntropy::observe(const std::string& state) {
  if (has_last_) {
    ++counts_[{last_state_, state}];
    ++total_;
  }
  last_state_ = state;
  has_last_ = true;
}

double TransitionEntropy::entropy() const {
  if (total_ == 0) return 0.0;
  double h = 0.0;
  for (const auto& [key, c] : counts_) {
    const double p = static_cast<double>(c) / static_cast<double>(total_);
    h -= p * std::log2(p);
  }
  return h;
}

}  // namespace oda::math
