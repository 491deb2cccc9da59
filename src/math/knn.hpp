// Brute-force k-nearest-neighbour regression and classification. Job
// runtime/resource prediction uses the regressor on submission features
// ([30],[31],[34]); application fingerprinting uses the classifier.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace oda::math {

class KnnRegressor {
 public:
  void add(std::vector<double> features, double target);
  std::size_t size() const { return targets_.size(); }

  /// Quantile of the k nearest targets (runtime predictors often want a
  /// high quantile to avoid underestimation penalties).
  double predict_quantile(std::span<const double> features, std::size_t k,
                          double q) const;

 private:
  std::vector<std::size_t> nearest(std::span<const double> features,
                                   std::size_t k) const;
  std::vector<std::vector<double>> points_;
  std::vector<double> targets_;
};

class KnnClassifier {
 public:
  void add(std::vector<double> features, std::string label);
  std::size_t size() const { return labels_.size(); }

  /// Majority vote among the k nearest labels (distance-weighted).
  std::string predict(std::span<const double> features, std::size_t k) const;
  /// Vote share of the winning label in [0, 1].
  double confidence(std::span<const double> features, std::size_t k) const;

 private:
  std::vector<std::vector<double>> points_;
  std::vector<std::string> labels_;
};

}  // namespace oda::math
