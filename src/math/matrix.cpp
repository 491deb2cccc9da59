#include "math/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"

namespace oda::math {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    ODA_REQUIRE(r.size() == cols_, "ragged initializer for Matrix");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::from_rows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return {};
  Matrix m(rows.size(), rows[0].size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    ODA_REQUIRE(rows[r].size() == m.cols_, "ragged rows for Matrix::from_rows");
    std::copy(rows[r].begin(), rows[r].end(), m.data_.begin() +
              static_cast<std::ptrdiff_t>(r * m.cols_));
  }
  return m;
}

double& Matrix::operator()(std::size_t r, std::size_t c) {
  ODA_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
  return data_[r * cols_ + c];
}

double Matrix::operator()(std::size_t r, std::size_t c) const {
  ODA_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
  return data_[r * cols_ + c];
}

std::span<double> Matrix::row(std::size_t r) {
  ODA_REQUIRE(r < rows_, "row out of range");
  return {data_.data() + r * cols_, cols_};
}

std::span<const double> Matrix::row(std::size_t r) const {
  ODA_REQUIRE(r < rows_, "row out of range");
  return {data_.data() + r * cols_, cols_};
}

std::vector<double> Matrix::col(std::size_t c) const {
  ODA_REQUIRE(c < cols_, "col out of range");
  std::vector<double> out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = data_[r * cols_ + c];
  return out;
}

Matrix Matrix::transpose() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = data_[r * cols_ + c];
  }
  return t;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  ODA_REQUIRE(cols_ == rhs.rows_, "matrix multiply dimension mismatch");
  Matrix out(rows_, rhs.cols_);
  // i-k-j loop order keeps the inner loop streaming over contiguous memory.
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = data_[i * cols_ + k];
      if (a == 0.0) continue;
      const double* rhs_row = rhs.data_.data() + k * rhs.cols_;
      double* out_row = out.data_.data() + i * rhs.cols_;
      for (std::size_t j = 0; j < rhs.cols_; ++j) out_row[j] += a * rhs_row[j];
    }
  }
  return out;
}

std::vector<double> Matrix::operator*(std::span<const double> v) const {
  ODA_REQUIRE(cols_ == v.size(), "matrix-vector dimension mismatch");
  std::vector<double> out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row_ptr = data_.data() + r * cols_;
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) acc += row_ptr[c] * v[c];
    out[r] = acc;
  }
  return out;
}

Matrix Matrix::operator+(const Matrix& rhs) const {
  ODA_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_, "matrix add mismatch");
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] += rhs.data_[i];
  return out;
}

Matrix Matrix::operator-(const Matrix& rhs) const {
  ODA_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_, "matrix sub mismatch");
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] -= rhs.data_[i];
  return out;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

Matrix Matrix::operator*(double s) const {
  Matrix out = *this;
  out *= s;
  return out;
}

double Matrix::frobenius_norm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

std::vector<double> lu_solve(Matrix a, std::vector<double> b) {
  const std::size_t n = a.rows();
  ODA_REQUIRE(a.cols() == n, "lu_solve needs a square matrix");
  ODA_REQUIRE(b.size() == n, "lu_solve rhs size mismatch");

  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot.
    std::size_t pivot = k;
    double best = std::abs(a(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::abs(a(i, k));
      if (v > best) {
        best = v;
        pivot = i;
      }
    }
    ODA_REQUIRE(best > 1e-14, "lu_solve: singular matrix");
    if (pivot != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a(k, c), a(pivot, c));
      std::swap(b[k], b[pivot]);
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      const double factor = a(i, k) / a(k, k);
      a(i, k) = factor;
      for (std::size_t c = k + 1; c < n; ++c) a(i, c) -= factor * a(k, c);
      b[i] -= factor * b[k];
    }
  }
  // Back substitution.
  std::vector<double> x(n, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    double acc = b[i];
    for (std::size_t c = i + 1; c < n; ++c) acc -= a(i, c) * x[c];
    x[i] = acc / a(i, i);
  }
  return x;
}

Matrix cholesky(const Matrix& a) {
  const std::size_t n = a.rows();
  ODA_REQUIRE(a.cols() == n, "cholesky needs a square matrix");
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = a(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      if (i == j) {
        ODA_REQUIRE(sum > 0.0, "cholesky: matrix not positive definite");
        l(i, j) = std::sqrt(sum);
      } else {
        l(i, j) = sum / l(j, j);
      }
    }
  }
  return l;
}

std::vector<double> cholesky_solve(const Matrix& a, std::span<const double> b) {
  const Matrix l = cholesky(a);
  const std::size_t n = l.rows();
  ODA_REQUIRE(b.size() == n, "cholesky_solve rhs size mismatch");
  // Forward: L y = b.
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[i];
    for (std::size_t k = 0; k < i; ++k) acc -= l(i, k) * y[k];
    y[i] = acc / l(i, i);
  }
  // Backward: Lᵀ x = y.
  std::vector<double> x(n);
  for (std::size_t i = n; i-- > 0;) {
    double acc = y[i];
    for (std::size_t k = i + 1; k < n; ++k) acc -= l(k, i) * x[k];
    x[i] = acc / l(i, i);
  }
  return x;
}

QrDecomposition qr_decompose(const Matrix& a) {
  QrDecomposition d;
  d.m = a.rows();
  d.n = a.cols();
  ODA_REQUIRE(d.m >= d.n, "qr_decompose needs rows >= cols");
  d.qr = a;
  d.tau.assign(d.n, 0.0);

  for (std::size_t k = 0; k < d.n; ++k) {
    // Householder vector for column k.
    double norm = 0.0;
    for (std::size_t i = k; i < d.m; ++i) norm += d.qr(i, k) * d.qr(i, k);
    norm = std::sqrt(norm);
    if (norm == 0.0) {
      d.tau[k] = 0.0;
      continue;
    }
    const double alpha = d.qr(k, k) >= 0.0 ? -norm : norm;
    // v = x - alpha*e1, stored in place with v[0] normalized to 1.
    const double v0 = d.qr(k, k) - alpha;
    for (std::size_t i = k + 1; i < d.m; ++i) d.qr(i, k) /= v0;
    d.tau[k] = -v0 / alpha;  // beta = 2/(vᵀv) expressed via v0 and alpha
    d.qr(k, k) = alpha;

    // Apply the reflector to the remaining columns.
    for (std::size_t j = k + 1; j < d.n; ++j) {
      double dot = d.qr(k, j);
      for (std::size_t i = k + 1; i < d.m; ++i) dot += d.qr(i, k) * d.qr(i, j);
      dot *= d.tau[k];
      d.qr(k, j) -= dot;
      for (std::size_t i = k + 1; i < d.m; ++i) d.qr(i, j) -= dot * d.qr(i, k);
    }
  }
  return d;
}

std::vector<double> QrDecomposition::solve(std::span<const double> b) const {
  ODA_REQUIRE(b.size() == m, "QR solve rhs size mismatch");
  std::vector<double> y(b.begin(), b.end());
  // Apply Qᵀ to y.
  for (std::size_t k = 0; k < n; ++k) {
    if (tau[k] == 0.0) continue;
    double dot = y[k];
    for (std::size_t i = k + 1; i < m; ++i) dot += qr(i, k) * y[i];
    dot *= tau[k];
    y[k] -= dot;
    for (std::size_t i = k + 1; i < m; ++i) y[i] -= dot * qr(i, k);
  }
  // Back substitution with R.
  std::vector<double> x(n, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    double acc = y[i];
    for (std::size_t c = i + 1; c < n; ++c) acc -= qr(i, c) * x[c];
    ODA_REQUIRE(std::abs(qr(i, i)) > 1e-14, "QR solve: rank-deficient matrix");
    x[i] = acc / qr(i, i);
  }
  return x;
}

Matrix QrDecomposition::r() const {
  Matrix out(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) out(i, j) = qr(i, j);
  }
  return out;
}

EigenResult jacobi_eigen(Matrix a, double tol, int max_sweeps) {
  const std::size_t n = a.rows();
  ODA_REQUIRE(a.cols() == n, "jacobi_eigen needs a square matrix");
  Matrix v = Matrix::identity(n);

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) off += a(p, q) * a(p, q);
    }
    if (std::sqrt(2.0 * off) <= tol * (a.frobenius_norm() + 1e-300)) break;

    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (std::abs(apq) < 1e-300) continue;
        const double app = a(p, p);
        const double aqq = a(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        for (std::size_t k = 0; k < n; ++k) {
          const double akp = a(k, p);
          const double akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = a(p, k);
          const double aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  EigenResult result;
  result.values.resize(n);
  for (std::size_t i = 0; i < n; ++i) result.values[i] = a(i, i);

  // Sort descending by eigenvalue, permuting eigenvector columns to match.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return result.values[x] > result.values[y];
  });
  EigenResult sorted;
  sorted.values.resize(n);
  sorted.vectors = Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    sorted.values[i] = result.values[order[i]];
    for (std::size_t r = 0; r < n; ++r) sorted.vectors(r, i) = v(r, order[i]);
  }
  return sorted;
}

}  // namespace oda::math
