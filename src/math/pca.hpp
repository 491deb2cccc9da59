// Principal component analysis via Jacobi eigendecomposition of the sample
// covariance matrix. The diagnostic pillar uses PCA both for dimensionality
// reduction and as an "autoencoder-lite" anomaly detector: samples that
// reconstruct poorly from the top-k subspace are anomalous.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "math/matrix.hpp"

namespace oda::math {

class Pca {
 public:
  /// Fits on rows-as-observations data, keeping `components` dimensions
  /// (0 = keep all). Data is centered (and optionally scaled to unit
  /// variance) internally.
  static Pca fit(const Matrix& data, std::size_t components = 0,
                 bool scale = false);

  std::size_t input_dim() const { return mean_.size(); }
  std::size_t n_components() const { return components_.cols(); }
  const std::vector<double>& explained_variance() const { return explained_; }

  /// Projects a sample into component space.
  std::vector<double> transform(std::span<const double> sample) const;
  /// Maps component-space coordinates back to the original space.
  std::vector<double> inverse_transform(std::span<const double> coords) const;
  /// L2 distance between a sample and its projection onto the subspace —
  /// the PCA reconstruction-error anomaly score.
  double reconstruction_error(std::span<const double> sample) const;
  /// The reconstruction error of each row of `rows` (row-major, input_dim()
  /// features each) into `out`, bit-equal to the one-row form, with one
  /// coordinate buffer for the whole batch.
  void reconstruction_error(std::span<const double> rows,
                            std::span<double> out) const;

 private:
  /// transform() into `coords` (n_components() doubles).
  void project(std::span<const double> sample, std::span<double> coords) const;
  /// Coordinate i of inverse_transform(coords).
  double reconstruct(std::size_t i, std::span<const double> coords) const;

  std::vector<double> mean_;
  std::vector<double> scale_;      // per-feature std (1.0 when not scaling)
  Matrix components_;              // input_dim × n_components
  std::vector<double> explained_;  // per kept component
};

}  // namespace oda::math
