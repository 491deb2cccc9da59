// CART-style decision tree and a bagged random forest classifier. Supervised
// counterpart to the isolation forest: application fingerprinting and online
// performance-variation diagnosis (Tuncer et al. [16]) train these on labeled
// telemetry features.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace oda::math {

struct LabeledSample {
  std::vector<double> features;
  std::size_t label = 0;  // dense class index
};

class DecisionTree {
 public:
  struct Params {
    std::size_t max_depth = 12;
    std::size_t min_samples_split = 4;
    /// Features considered per split; 0 = all (sqrt(d) for forests).
    std::size_t max_features = 0;
  };

  static DecisionTree fit(const std::vector<LabeledSample>& data,
                          std::size_t n_classes, const Params& params, Rng& rng);

  /// Per-class probability estimate from the reached leaf.
  std::vector<double> predict_proba(std::span<const double> features) const;
  std::size_t n_classes() const { return n_classes_; }

 private:
  /// One node, stored in pre-order: a split's left child is the next node
  /// and its right child is at `next`; a leaf's class probabilities are
  /// probs_[next, next + n_classes_).
  struct Node {
    int feature = -1;  // -1 marks a leaf
    std::uint32_t next = 0;
    double threshold = 0.0;
  };

  /// Appends the subtree grown from `idx` to nodes_ in pre-order.
  void build(const std::vector<LabeledSample>& data,
             std::vector<std::size_t>& idx, const Params& params,
             std::size_t depth, Rng& rng);
  static double gini(const std::vector<std::size_t>& counts, std::size_t total);

  std::vector<Node> nodes_;
  std::vector<double> probs_;  // n_classes_ per leaf
  std::size_t n_classes_ = 0;
};

class RandomForest {
 public:
  struct Params {
    std::size_t n_trees = 50;
    DecisionTree::Params tree;
  };

  static RandomForest fit(const std::vector<LabeledSample>& data,
                          std::size_t n_classes, const Params& params, Rng& rng);

  /// Per-class probability: the mean of the trees' estimates.
  std::vector<double> predict_proba(std::span<const double> features) const;
  std::size_t tree_count() const { return trees_.size(); }
  std::size_t n_classes() const { return n_classes_; }

 private:
  std::vector<DecisionTree> trees_;
  std::size_t n_classes_ = 0;
};

}  // namespace oda::math
