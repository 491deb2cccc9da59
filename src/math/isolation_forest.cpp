#include "math/isolation_forest.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace oda::math {

double IsolationForest::c_factor(std::size_t n) {
  if (n <= 1) return 0.0;
  const double nn = static_cast<double>(n);
  const double harmonic = std::log(nn - 1.0) + 0.5772156649015329;
  return 2.0 * harmonic - 2.0 * (nn - 1.0) / nn;
}

void IsolationForest::add_leaf(std::size_t depth, std::size_t size) {
  Node leaf;
  leaf.value = static_cast<double>(depth) + c_factor(size);
  nodes_.push_back(leaf);
}

void IsolationForest::build_tree(std::vector<std::size_t>& idx,
                                 const std::vector<std::vector<double>>& data,
                                 std::size_t depth, std::size_t max_depth,
                                 Rng& rng) {
  if (idx.size() <= 1 || depth >= max_depth) {
    add_leaf(depth, idx.size());
    return;
  }
  const std::size_t dim = data[0].size();
  // Pick a feature with spread; give up after a few tries (constant data).
  int feature = -1;
  double lo = 0.0, hi = 0.0;
  for (int attempt = 0; attempt < 8; ++attempt) {
    const auto f = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(dim) - 1));
    lo = hi = data[idx[0]][f];
    for (std::size_t i : idx) {
      lo = std::min(lo, data[i][f]);
      hi = std::max(hi, data[i][f]);
    }
    if (hi > lo) {
      feature = static_cast<int>(f);
      break;
    }
  }
  if (feature < 0) {
    add_leaf(depth, idx.size());
    return;
  }
  const double threshold = rng.uniform(lo, hi);
  std::vector<std::size_t> left_idx, right_idx;
  for (std::size_t i : idx) {
    (data[i][static_cast<std::size_t>(feature)] < threshold ? left_idx : right_idx)
        .push_back(i);
  }
  if (left_idx.empty() || right_idx.empty()) {
    add_leaf(depth, idx.size());
    return;
  }
  const std::size_t at = nodes_.size();
  Node split;
  split.feature = feature;
  split.value = threshold;
  nodes_.push_back(split);
  // Left subtree first, then right: the same draw order as a recursive
  // pointer tree, so a seeded forest is unchanged by the flat layout.
  build_tree(left_idx, data, depth + 1, max_depth, rng);
  nodes_[at].right = static_cast<std::uint32_t>(nodes_.size());
  build_tree(right_idx, data, depth + 1, max_depth, rng);
}

IsolationForest IsolationForest::fit(const std::vector<std::vector<double>>& data,
                                     const Params& params, Rng& rng) {
  ODA_REQUIRE(!data.empty(), "isolation forest on empty data");
  ODA_REQUIRE(params.n_trees > 0, "isolation forest needs trees");
  const std::size_t dim = data[0].size();
  for (const auto& row : data) {
    ODA_REQUIRE(row.size() == dim, "isolation forest ragged data");
  }

  IsolationForest forest;
  const std::size_t sample = std::min(params.subsample, data.size());
  const auto max_depth =
      static_cast<std::size_t>(std::ceil(std::log2(std::max<std::size_t>(sample, 2))));
  forest.expected_path_ = c_factor(sample);

  std::vector<std::size_t> all(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) all[i] = i;

  for (std::size_t t = 0; t < params.n_trees; ++t) {
    Rng tree_rng = rng.split(t + 1);
    std::vector<std::size_t> idx = all;
    tree_rng.shuffle(idx);
    idx.resize(sample);
    forest.roots_.push_back(static_cast<std::uint32_t>(forest.nodes_.size()));
    forest.build_tree(idx, data, 0, max_depth, tree_rng);
  }
  return forest;
}

double IsolationForest::score(std::span<const double> sample) const {
  ODA_REQUIRE(!roots_.empty(), "score on unfitted isolation forest");
  double total = 0.0;
  for (const std::uint32_t root : roots_) {
    std::uint32_t i = root;
    while (nodes_[i].feature >= 0) {
      const Node& node = nodes_[i];
      i = sample[static_cast<std::size_t>(node.feature)] < node.value
              ? i + 1
              : node.right;
    }
    total += nodes_[i].value;
  }
  const double avg = total / static_cast<double>(roots_.size());
  if (expected_path_ <= 0.0) return 0.5;
  return std::pow(2.0, -avg / expected_path_);
}

}  // namespace oda::math
