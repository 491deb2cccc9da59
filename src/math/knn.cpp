#include "math/knn.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace oda::math {

namespace {

double euclidean(std::span<const double> a, std::span<const double> b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

std::vector<std::size_t> k_nearest(const std::vector<std::vector<double>>& points,
                                   std::span<const double> query, std::size_t k) {
  std::vector<std::size_t> idx(points.size());
  std::iota(idx.begin(), idx.end(), 0);
  k = std::min(k, points.size());
  std::partial_sort(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(k),
                    idx.end(), [&](std::size_t a, std::size_t b) {
                      return euclidean(points[a], query) < euclidean(points[b], query);
                    });
  idx.resize(k);
  return idx;
}

}  // namespace

void KnnRegressor::add(std::vector<double> features, double target) {
  if (!points_.empty()) {
    ODA_REQUIRE(features.size() == points_[0].size(), "knn feature dim mismatch");
  }
  points_.push_back(std::move(features));
  targets_.push_back(target);
}

std::vector<std::size_t> KnnRegressor::nearest(std::span<const double> features,
                                               std::size_t k) const {
  return k_nearest(points_, features, k);
}

double KnnRegressor::predict_quantile(std::span<const double> features,
                                      std::size_t k, double q) const {
  if (targets_.empty()) return 0.0;
  const auto idx = nearest(features, k);
  std::vector<double> vals;
  vals.reserve(idx.size());
  for (std::size_t i : idx) vals.push_back(targets_[i]);
  return quantile(vals, q);
}

void KnnClassifier::add(std::vector<double> features, std::string label) {
  if (!points_.empty()) {
    ODA_REQUIRE(features.size() == points_[0].size(), "knn feature dim mismatch");
  }
  points_.push_back(std::move(features));
  labels_.push_back(std::move(label));
}

std::string KnnClassifier::predict(std::span<const double> features,
                                   std::size_t k) const {
  if (labels_.empty()) return {};
  const auto idx = k_nearest(points_, features, k);
  std::map<std::string, double> votes;
  for (std::size_t i : idx) {
    const double d = euclidean(points_[i], features);
    votes[labels_[i]] += 1.0 / (d + 1e-9);
  }
  return std::max_element(votes.begin(), votes.end(),
                          [](const auto& a, const auto& b) {
                            return a.second < b.second;
                          })
      ->first;
}

double KnnClassifier::confidence(std::span<const double> features,
                                 std::size_t k) const {
  if (labels_.empty()) return 0.0;
  const auto idx = k_nearest(points_, features, k);
  std::map<std::string, double> votes;
  double total = 0.0;
  for (std::size_t i : idx) {
    const double d = euclidean(points_[i], features);
    const double w = 1.0 / (d + 1e-9);
    votes[labels_[i]] += w;
    total += w;
  }
  double best = 0.0;
  for (const auto& [label, v] : votes) best = std::max(best, v);
  return total > 0.0 ? best / total : 0.0;
}

}  // namespace oda::math
