#include "math/pca.hpp"

#include <cmath>

#include "common/error.hpp"

namespace oda::math {

Pca Pca::fit(const Matrix& data, std::size_t components, bool scale) {
  const std::size_t n = data.rows();
  const std::size_t d = data.cols();
  ODA_REQUIRE(n >= 2, "PCA needs at least two observations");
  ODA_REQUIRE(d >= 1, "PCA needs at least one feature");
  if (components == 0 || components > d) components = d;

  Pca pca;
  pca.mean_.assign(d, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < d; ++c) pca.mean_[c] += data(r, c);
  }
  for (double& m : pca.mean_) m /= static_cast<double>(n);

  pca.scale_.assign(d, 1.0);
  if (scale) {
    for (std::size_t c = 0; c < d; ++c) {
      double s = 0.0;
      for (std::size_t r = 0; r < n; ++r) {
        const double v = data(r, c) - pca.mean_[c];
        s += v * v;
      }
      s = std::sqrt(s / static_cast<double>(n - 1));
      pca.scale_[c] = s > 1e-12 ? s : 1.0;
    }
  }

  // Sample covariance of the standardized data.
  Matrix cov(d, d);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t i = 0; i < d; ++i) {
      const double xi = (data(r, i) - pca.mean_[i]) / pca.scale_[i];
      for (std::size_t j = i; j < d; ++j) {
        const double xj = (data(r, j) - pca.mean_[j]) / pca.scale_[j];
        cov(i, j) += xi * xj;
      }
    }
  }
  const double inv = 1.0 / static_cast<double>(n - 1);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = i; j < d; ++j) {
      cov(i, j) *= inv;
      cov(j, i) = cov(i, j);
    }
  }

  const auto eig = jacobi_eigen(cov);

  pca.components_ = Matrix(d, components);
  pca.explained_.resize(components);
  for (std::size_t k = 0; k < components; ++k) {
    pca.explained_[k] = std::max(eig.values[k], 0.0);
    for (std::size_t r = 0; r < d; ++r) {
      pca.components_(r, k) = eig.vectors(r, k);
    }
  }
  return pca;
}

void Pca::project(std::span<const double> sample,
                  std::span<double> coords) const {
  const std::size_t d = input_dim();
  const std::size_t k = coords.size();
  const double* c = components_.data().data();  // d x k, row-major
  for (std::size_t j = 0; j < k; ++j) {
    double acc = 0.0;
    for (std::size_t i = 0; i < d; ++i) {
      acc += c[i * k + j] * (sample[i] - mean_[i]) / scale_[i];
    }
    coords[j] = acc;
  }
}

double Pca::reconstruct(std::size_t i, std::span<const double> coords) const {
  const std::size_t k = coords.size();
  const double* c = components_.data().data();
  double acc = 0.0;
  for (std::size_t j = 0; j < k; ++j) acc += c[i * k + j] * coords[j];
  return acc * scale_[i] + mean_[i];
}

std::vector<double> Pca::transform(std::span<const double> sample) const {
  ODA_REQUIRE(sample.size() == input_dim(), "PCA transform dim mismatch");
  std::vector<double> out(n_components());
  project(sample, out);
  return out;
}

std::vector<double> Pca::inverse_transform(std::span<const double> coords) const {
  ODA_REQUIRE(coords.size() == n_components(), "PCA inverse dim mismatch");
  std::vector<double> out(input_dim());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = reconstruct(i, coords);
  return out;
}

void Pca::reconstruction_error(std::span<const double> rows,
                               std::span<double> out) const {
  const std::size_t d = input_dim();
  ODA_REQUIRE(rows.size() == out.size() * d, "PCA batch shape mismatch");
  // transform() then inverse_transform() per row, through one coordinate
  // buffer for the whole batch.
  std::vector<double> coords(n_components());
  for (std::size_t r = 0; r < out.size(); ++r) {
    const std::span<const double> sample = rows.subspan(r * d, d);
    project(sample, coords);
    double err = 0.0;
    for (std::size_t i = 0; i < d; ++i) {
      const double diff = (sample[i] - reconstruct(i, coords)) / scale_[i];
      err += diff * diff;
    }
    out[r] = std::sqrt(err);
  }
}

double Pca::reconstruction_error(std::span<const double> sample) const {
  double err = 0.0;
  reconstruction_error(sample, std::span<double>(&err, 1));
  return err;
}

}  // namespace oda::math
