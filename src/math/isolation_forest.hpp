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

  /// Anomaly scores in (0, 1) of the rows of `rows` (row-major, as many
  /// features each as the fitted data) into `out`, one per row: >0.6 is
  /// suspicious, ~0.5 is average. Runs tree-major: each tree walks every
  /// row before the next tree starts, so one tree's nodes stay in L1, and
  /// it walks kInterleave rows at once, so their loads overlap. Each row
  /// sums its trees' path lengths in tree order, so a row's score does not
  /// depend on the batch it comes in.
  void score(std::span<const double> rows, std::span<double> out) const;
  /// The one-row case of the batch score.
  double score(std::span<const double> sample) const;
  std::size_t tree_count() const { return trees_.size(); }

 private:
  /// Rows walked side by side in score().
  static constexpr std::size_t kInterleave = 8;

  /// One node of a tree, stored in pre-order: an internal node's left
  /// child is the next node and its right child is at `right`. A leaf has
  /// a NaN threshold and `right` pointing at itself, so the walk step
  /// `x[feature] < threshold ? i + 1 : right` is a branch-free select that
  /// stays on a leaf once it reaches one. `path` is the leaf's path length,
  /// depth + c_factor(leaf size), so scoring computes no logarithm.
  struct Node {
    double threshold = 0.0;
    double path = 0.0;           // leaves only
    std::uint32_t feature = 0;   // 0 on leaves: any in-range index
    std::uint32_t right = 0;
  };
  /// A tree: its root's index and its deepest leaf's depth, the number of
  /// walk steps that takes every row to its leaf.
  struct Tree {
    std::uint32_t root = 0;
    std::uint32_t depth = 0;
  };

  /// Appends the subtree grown from `idx` to nodes_ in pre-order and
  /// returns its deepest leaf's depth.
  std::size_t build_tree(std::vector<std::size_t>& idx,
                         const std::vector<std::vector<double>>& data,
                         std::size_t depth, std::size_t max_depth, Rng& rng);
  std::size_t add_leaf(std::size_t depth, std::size_t size);
  /// Average unsuccessful-search path length of a BST with n nodes.
  static double c_factor(std::size_t n);

  std::vector<Node> nodes_;   // every tree, back to back
  std::vector<Tree> trees_;
  std::size_t dim_ = 0;
  double expected_path_ = 1.0;
};

}  // namespace oda::math
