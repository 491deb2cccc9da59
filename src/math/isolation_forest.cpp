#include "math/isolation_forest.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace oda::math {

double IsolationForest::c_factor(std::size_t n) {
  if (n <= 1) return 0.0;
  const double nn = static_cast<double>(n);
  const double harmonic = std::log(nn - 1.0) + 0.5772156649015329;
  return 2.0 * harmonic - 2.0 * (nn - 1.0) / nn;
}

std::size_t IsolationForest::add_leaf(std::size_t depth, std::size_t size) {
  Node leaf;
  leaf.threshold = std::numeric_limits<double>::quiet_NaN();
  leaf.path = static_cast<double>(depth) + c_factor(size);
  leaf.right = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(leaf);
  return depth;
}

std::size_t IsolationForest::build_tree(
    std::vector<std::size_t>& idx, const std::vector<std::vector<double>>& data,
    std::size_t depth, std::size_t max_depth, Rng& rng) {
  if (idx.size() <= 1 || depth >= max_depth) return add_leaf(depth, idx.size());
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
  if (feature < 0) return add_leaf(depth, idx.size());
  const double threshold = rng.uniform(lo, hi);
  std::vector<std::size_t> left_idx, right_idx;
  for (std::size_t i : idx) {
    (data[i][static_cast<std::size_t>(feature)] < threshold ? left_idx : right_idx)
        .push_back(i);
  }
  if (left_idx.empty() || right_idx.empty()) return add_leaf(depth, idx.size());
  const std::size_t at = nodes_.size();
  Node split;
  split.threshold = threshold;
  split.feature = static_cast<std::uint32_t>(feature);
  nodes_.push_back(split);
  // Left subtree first, then right: the same draw order as a recursive
  // pointer tree, so a seeded forest is unchanged by the flat layout.
  const std::size_t left_depth =
      build_tree(left_idx, data, depth + 1, max_depth, rng);
  nodes_[at].right = static_cast<std::uint32_t>(nodes_.size());
  const std::size_t right_depth =
      build_tree(right_idx, data, depth + 1, max_depth, rng);
  return std::max(left_depth, right_depth);
}

IsolationForest IsolationForest::fit(const std::vector<std::vector<double>>& data,
                                     const Params& params, Rng& rng) {
  ODA_REQUIRE(!data.empty(), "isolation forest on empty data");
  ODA_REQUIRE(params.n_trees > 0, "isolation forest needs trees");
  const std::size_t dim = data[0].size();
  ODA_REQUIRE(dim > 0, "isolation forest needs features");
  for (const auto& row : data) {
    ODA_REQUIRE(row.size() == dim, "isolation forest ragged data");
  }

  IsolationForest forest;
  forest.dim_ = dim;
  const std::size_t sample = std::min(params.subsample, data.size());
  const auto max_depth =
      static_cast<std::size_t>(std::ceil(std::log2(std::max<std::size_t>(sample, 2))));
  forest.expected_path_ = c_factor(sample);

  std::vector<std::size_t> all(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) all[i] = i;

  forest.trees_.reserve(params.n_trees);
  for (std::size_t t = 0; t < params.n_trees; ++t) {
    Rng tree_rng = rng.split(t + 1);
    std::vector<std::size_t> idx = all;
    tree_rng.shuffle(idx);
    idx.resize(sample);
    Tree tree;
    tree.root = static_cast<std::uint32_t>(forest.nodes_.size());
    tree.depth = static_cast<std::uint32_t>(
        forest.build_tree(idx, data, 0, max_depth, tree_rng));
    forest.trees_.push_back(tree);
  }
  return forest;
}

void IsolationForest::score(std::span<const double> rows,
                            std::span<double> out) const {
  ODA_REQUIRE(!trees_.empty(), "score on unfitted isolation forest");
  ODA_REQUIRE(rows.size() == out.size() * dim_,
              "isolation forest batch shape mismatch");
  const std::size_t n = out.size();
  const Node* nodes = nodes_.data();
  const double* x = rows.data();
  const std::size_t dim = dim_;
  // One walk step, as arithmetic so it compiles to no branch: the left
  // child is the next node, the right one is node.right (a leaf's own
  // index, and its NaN threshold never sends a row left).
  const auto step = [nodes](std::uint32_t at, const double* row) {
    const Node& node = nodes[at];
    const std::uint32_t left_mask =
        0u - static_cast<std::uint32_t>(row[node.feature] < node.threshold);
    return node.right ^ ((node.right ^ (at + 1)) & left_mask);
  };
  std::fill(out.begin(), out.end(), 0.0);
  const std::size_t grouped = n - n % kInterleave;
  for (const Tree& tree : trees_) {
    for (std::size_t r0 = 0; r0 < grouped; r0 += kInterleave) {
      std::array<std::uint32_t, kInterleave> at;
      at.fill(tree.root);
      const double* base = x + r0 * dim;
      for (std::uint32_t d = 0; d < tree.depth; ++d) {
#pragma GCC unroll 8
        for (std::size_t k = 0; k < kInterleave; ++k) {
          at[k] = step(at[k], base + k * dim);
        }
      }
      for (std::size_t k = 0; k < kInterleave; ++k) {
        out[r0 + k] += nodes[at[k]].path;
      }
    }
    for (std::size_t r = grouped; r < n; ++r) {
      std::uint32_t at = tree.root;
      for (std::uint32_t d = 0; d < tree.depth; ++d) at = step(at, x + r * dim);
      out[r] += nodes[at].path;
    }
  }
  const double trees = static_cast<double>(trees_.size());
  for (double& s : out) {
    const double avg = s / trees;
    s = expected_path_ <= 0.0 ? 0.5 : std::pow(2.0, -avg / expected_path_);
  }
}

double IsolationForest::score(std::span<const double> sample) const {
  double s = 0.0;
  score(sample, std::span<double>(&s, 1));
  return s;
}

}  // namespace oda::math
