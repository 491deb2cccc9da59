// Information-theoretic descriptors. The System Information Entropy (SIE)
// metric of Hui et al. [14] characterizes how "surprising" the distribution
// of system state transitions is; we provide Shannon entropy over discrete
// states plus a binned variant for continuous telemetry.
#pragma once

#include <cstddef>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace oda::math {

/// Shannon entropy (bits) of a discrete distribution given by counts.
double shannon_entropy(std::span<const std::size_t> counts);

/// Entropy (bits) of a continuous sample using equal-width binning.
// ODA-LINT-ALLOW(production-caller): only tests call it (ROADMAP item 12)
double binned_entropy(std::span<const double> xs, std::size_t bins);

/// Normalized entropy in [0,1]: entropy / log2(#nonzero states).
// ODA-LINT-ALLOW(production-caller): only tests call it (ROADMAP item 12)
double normalized_entropy(std::span<const std::size_t> counts);

/// Streaming state-transition entropy: feed a sequence of discrete state
/// labels; entropy is computed over observed transition frequencies. This is
/// the core of the SIE system-status indicator.
class TransitionEntropy {
 public:
  void observe(const std::string& state);
  /// Entropy (bits) of the transition distribution seen so far.
  double entropy() const;
  std::size_t transition_count() const { return total_; }
  std::size_t distinct_transitions() const { return counts_.size(); }

 private:
  std::map<std::pair<std::string, std::string>, std::size_t> counts_;
  std::string last_state_;
  bool has_last_ = false;
  std::size_t total_ = 0;
};

}  // namespace oda::math
