// Isolation forest (Liu, Ting & Zhou 2008): anomaly scoring by how quickly a
// sample is isolated under random axis-aligned splits. The node-level
// hardware anomaly detector's strongest unsupervised scorer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace oda::math {

class IsolationForest {
 public:
  struct Params {
    std::size_t n_trees = 100;
    std::size_t subsample = 256;  // per-tree sample size
  };

  /// Fits on rows-as-observations data.
  static IsolationForest fit(const std::vector<std::vector<double>>& data,
                             const Params& params, Rng& rng);

  /// Anomaly score in (0, 1): >0.6 is suspicious, ~0.5 is average.
  double score(std::span<const double> sample) const;
  std::size_t tree_count() const { return roots_.size(); }

 private:
  /// One node of a tree, stored in pre-order: an internal node's left
  /// child is the next node and its right child is at `right`. A leaf
  /// holds the path length a sample ending there scores, depth +
  /// c_factor(leaf size), so scoring computes no logarithm.
  struct Node {
    std::int32_t feature = -1;  // -1 marks a leaf
    std::uint32_t right = 0;
    double value = 0.0;         // split threshold, or the leaf's path length
  };

  /// Appends the subtree grown from `idx` to nodes_ in pre-order.
  void build_tree(std::vector<std::size_t>& idx,
                  const std::vector<std::vector<double>>& data,
                  std::size_t depth, std::size_t max_depth, Rng& rng);
  void add_leaf(std::size_t depth, std::size_t size);
  /// Average unsuccessful-search path length of a BST with n nodes.
  static double c_factor(std::size_t n);

  std::vector<Node> nodes_;            // every tree, back to back
  std::vector<std::uint32_t> roots_;   // index of each tree's root node
  double expected_path_ = 1.0;
};

}  // namespace oda::math
