#include "math/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>

#include "common/error.hpp"

namespace oda::math {

double DecisionTree::gini(const std::vector<std::size_t>& counts,
                          std::size_t total) {
  if (total == 0) return 0.0;
  double impurity = 1.0;
  for (std::size_t c : counts) {
    const double p = static_cast<double>(c) / static_cast<double>(total);
    impurity -= p * p;
  }
  return impurity;
}

void DecisionTree::build(const std::vector<LabeledSample>& data,
                         std::vector<std::size_t>& idx, const Params& params,
                         std::size_t depth, Rng& rng) {
  const std::size_t n_classes = n_classes_;
  std::vector<std::size_t> counts(n_classes, 0);
  for (std::size_t i : idx) ++counts[data[i].label];
  const double parent_gini = gini(counts, idx.size());

  const auto make_leaf = [&] {
    Node leaf;
    leaf.next = static_cast<std::uint32_t>(probs_.size());
    nodes_.push_back(leaf);
    for (std::size_t c = 0; c < n_classes; ++c) {
      probs_.push_back(static_cast<double>(counts[c]) /
                       static_cast<double>(idx.size()));
    }
  };

  if (depth >= params.max_depth || idx.size() < params.min_samples_split ||
      parent_gini <= 1e-12) {
    make_leaf();
    return;
  }

  const std::size_t dim = data[0].features.size();
  std::vector<std::size_t> features(dim);
  std::iota(features.begin(), features.end(), 0);
  std::size_t n_try = params.max_features == 0
                          ? dim
                          : std::min(params.max_features, dim);
  if (n_try < dim) rng.shuffle(features);

  int best_feature = -1;
  double best_threshold = 0.0;
  double best_score = parent_gini;  // must improve on the parent

  std::vector<double> values;
  for (std::size_t fi = 0; fi < n_try; ++fi) {
    const std::size_t f = features[fi];
    values.clear();
    for (std::size_t i : idx) values.push_back(data[i].features[f]);
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    if (values.size() < 2) continue;

    // Candidate thresholds: midpoints, capped at 32 evenly spaced to keep
    // fitting fast on large leaves.
    const std::size_t stride = std::max<std::size_t>(1, values.size() / 33);
    for (std::size_t v = 0; v + 1 < values.size(); v += stride) {
      const double threshold = (values[v] + values[v + 1]) / 2.0;
      std::vector<std::size_t> lc(n_classes, 0), rc(n_classes, 0);
      std::size_t ln = 0, rn = 0;
      for (std::size_t i : idx) {
        if (data[i].features[f] < threshold) {
          ++lc[data[i].label];
          ++ln;
        } else {
          ++rc[data[i].label];
          ++rn;
        }
      }
      if (ln == 0 || rn == 0) continue;
      const double weighted =
          (static_cast<double>(ln) * gini(lc, ln) +
           static_cast<double>(rn) * gini(rc, rn)) /
          static_cast<double>(idx.size());
      if (weighted < best_score - 1e-12) {
        best_score = weighted;
        best_feature = static_cast<int>(f);
        best_threshold = threshold;
      }
    }
  }

  if (best_feature < 0) {
    make_leaf();
    return;
  }

  std::vector<std::size_t> left_idx, right_idx;
  for (std::size_t i : idx) {
    (data[i].features[static_cast<std::size_t>(best_feature)] < best_threshold
         ? left_idx
         : right_idx)
        .push_back(i);
  }
  const std::size_t at = nodes_.size();
  Node split;
  split.feature = best_feature;
  split.threshold = best_threshold;
  nodes_.push_back(split);
  build(data, left_idx, params, depth + 1, rng);
  nodes_[at].next = static_cast<std::uint32_t>(nodes_.size());
  build(data, right_idx, params, depth + 1, rng);
}

DecisionTree DecisionTree::fit(const std::vector<LabeledSample>& data,
                               std::size_t n_classes, const Params& params,
                               Rng& rng) {
  ODA_REQUIRE(!data.empty(), "decision tree on empty data");
  ODA_REQUIRE(n_classes >= 2, "decision tree needs >= 2 classes");
  const std::size_t dim = data[0].features.size();
  for (const auto& s : data) {
    ODA_REQUIRE(s.features.size() == dim, "decision tree ragged data");
    ODA_REQUIRE(s.label < n_classes, "label out of range");
  }
  DecisionTree tree;
  tree.n_classes_ = n_classes;
  std::vector<std::size_t> idx(data.size());
  std::iota(idx.begin(), idx.end(), 0);
  tree.build(data, idx, params, 0, rng);
  return tree;
}

std::vector<double> DecisionTree::predict_proba(
    std::span<const double> features) const {
  ODA_REQUIRE(!nodes_.empty(), "predict on unfitted tree");
  std::size_t i = 0;
  while (nodes_[i].feature >= 0) {
    const Node& node = nodes_[i];
    i = features[static_cast<std::size_t>(node.feature)] < node.threshold
            ? i + 1
            : node.next;
  }
  const auto first = probs_.begin() + nodes_[i].next;
  return std::vector<double>(first,
                             first + static_cast<std::ptrdiff_t>(n_classes_));
}

RandomForest RandomForest::fit(const std::vector<LabeledSample>& data,
                               std::size_t n_classes, const Params& params,
                               Rng& rng) {
  ODA_REQUIRE(!data.empty(), "random forest on empty data");
  RandomForest forest;
  forest.n_classes_ = n_classes;
  const std::size_t n = data.size();
  const std::size_t dim = data[0].features.size();

  DecisionTree::Params tree_params = params.tree;
  if (tree_params.max_features == 0) {
    tree_params.max_features = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::sqrt(static_cast<double>(dim))));
  }

  for (std::size_t t = 0; t < params.n_trees; ++t) {
    Rng tree_rng = rng.split(t + 1);
    // Bootstrap sample.
    std::vector<LabeledSample> boot;
    boot.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      boot.push_back(data[static_cast<std::size_t>(
          tree_rng.uniform_int(0, static_cast<std::int64_t>(n) - 1))]);
    }
    forest.trees_.push_back(DecisionTree::fit(boot, n_classes, tree_params, tree_rng));
  }
  return forest;
}

std::vector<double> RandomForest::predict_proba(
    std::span<const double> features) const {
  ODA_REQUIRE(!trees_.empty(), "predict on unfitted forest");
  std::vector<double> probs(n_classes_, 0.0);
  for (const auto& tree : trees_) {
    const auto p = tree.predict_proba(features);
    for (std::size_t c = 0; c < n_classes_; ++c) probs[c] += p[c];
  }
  for (double& p : probs) p /= static_cast<double>(trees_.size());
  return probs;
}

}  // namespace oda::math
