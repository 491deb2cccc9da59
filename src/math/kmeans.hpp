// k-means clustering with k-means++ seeding. Used for datacenter crisis
// fingerprinting (cluster known incident signatures, match new ones) and
// workload phase discovery.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace oda::math {

struct KMeansResult {
  std::vector<std::vector<double>> centroids;
  std::vector<std::size_t> labels;   // cluster per input row
  double inertia = 0.0;              // sum of squared distances to centroids
  std::size_t iterations = 0;

  /// Nearest centroid for a new sample.
  std::size_t predict(std::span<const double> sample) const;
};

KMeansResult kmeans(const std::vector<std::vector<double>>& data, std::size_t k,
                    Rng& rng, std::size_t max_iterations = 100,
                    double tol = 1e-6);

/// Picks k in [1, max_k] by the largest second difference ("elbow") of
/// inertia; small and deterministic given the rng seed.
std::size_t select_k_elbow(const std::vector<std::vector<double>>& data,
                           std::size_t max_k, Rng& rng);

}  // namespace oda::math
