#include "math/kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace oda::math {

namespace {

double sq_dist(std::span<const double> a, std::span<const double> b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

}  // namespace

std::size_t KMeansResult::predict(std::span<const double> sample) const {
  ODA_REQUIRE(!centroids.empty(), "predict on empty clustering");
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < centroids.size(); ++c) {
    const double d = sq_dist(sample, centroids[c]);
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best;
}

KMeansResult kmeans(const std::vector<std::vector<double>>& data, std::size_t k,
                    Rng& rng, std::size_t max_iterations, double tol) {
  ODA_REQUIRE(!data.empty(), "kmeans on empty data");
  ODA_REQUIRE(k >= 1 && k <= data.size(), "kmeans k out of range");
  const std::size_t n = data.size();
  const std::size_t dim = data[0].size();
  for (const auto& row : data) {
    ODA_REQUIRE(row.size() == dim, "kmeans ragged data");
  }

  KMeansResult result;
  // k-means++ seeding.
  result.centroids.push_back(
      data[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1))]);
  std::vector<double> min_d(n, std::numeric_limits<double>::infinity());
  while (result.centroids.size() < k) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      min_d[i] = std::min(min_d[i], sq_dist(data[i], result.centroids.back()));
      total += min_d[i];
    }
    if (total <= 0.0) {
      // All points coincide with chosen centroids: duplicate one.
      result.centroids.push_back(data[0]);
      continue;
    }
    double r = rng.uniform(0.0, total);
    std::size_t chosen = n - 1;
    for (std::size_t i = 0; i < n; ++i) {
      r -= min_d[i];
      if (r <= 0.0) {
        chosen = i;
        break;
      }
    }
    result.centroids.push_back(data[chosen]);
  }

  result.labels.assign(n, 0);
  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    ++result.iterations;
    // Assign.
    bool changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t label = result.predict(data[i]);
      if (label != result.labels[i]) {
        result.labels[i] = label;
        changed = true;
      }
    }
    // Update.
    std::vector<std::vector<double>> sums(k, std::vector<double>(dim, 0.0));
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t i = 0; i < n; ++i) {
      auto& s = sums[result.labels[i]];
      for (std::size_t d = 0; d < dim; ++d) s[d] += data[i][d];
      ++counts[result.labels[i]];
    }
    double shift = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster at the farthest point.
        std::size_t far = 0;
        double far_d = -1.0;
        for (std::size_t i = 0; i < n; ++i) {
          const double d = sq_dist(data[i], result.centroids[result.labels[i]]);
          if (d > far_d) {
            far_d = d;
            far = i;
          }
        }
        result.centroids[c] = data[far];
        changed = true;
        continue;
      }
      std::vector<double> next(dim);
      for (std::size_t d = 0; d < dim; ++d) {
        next[d] = sums[c][d] / static_cast<double>(counts[c]);
      }
      shift += sq_dist(next, result.centroids[c]);
      result.centroids[c] = std::move(next);
    }
    if (!changed || shift < tol) break;
  }

  result.inertia = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    result.inertia += sq_dist(data[i], result.centroids[result.labels[i]]);
  }
  return result;
}

std::size_t select_k_elbow(const std::vector<std::vector<double>>& data,
                           std::size_t max_k, Rng& rng) {
  max_k = std::min(max_k, data.size());
  if (max_k <= 1) return 1;
  std::vector<double> inertias;
  inertias.reserve(max_k);
  for (std::size_t k = 1; k <= max_k; ++k) {
    Rng local = rng.split(k);
    inertias.push_back(kmeans(data, k, local).inertia);
  }
  // Largest second difference marks the elbow.
  std::size_t best_k = 1;
  double best_curvature = -std::numeric_limits<double>::infinity();
  for (std::size_t k = 2; k < max_k; ++k) {
    const double curvature =
        inertias[k - 2] - 2.0 * inertias[k - 1] + inertias[k];
    if (curvature > best_curvature) {
      best_curvature = curvature;
      best_k = k;
    }
  }
  return best_k;
}

}  // namespace oda::math
