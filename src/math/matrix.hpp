// Dense row-major matrix with the decompositions the analytics layer needs:
// LU solve (regression fallback), Cholesky (normal equations), Householder QR
// (least squares), and cyclic Jacobi eigendecomposition (PCA). Sizes here are
// small (feature dimensions, not meshes), so clarity wins over blocking.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace oda::math {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);
  /// Row-major construction from nested initializer lists.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);
  /// Builds a matrix whose rows are the given feature vectors.
  static Matrix from_rows(const std::vector<std::vector<double>>& rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c);
  double operator()(std::size_t r, std::size_t c) const;

  std::span<double> row(std::size_t r);
  std::span<const double> row(std::size_t r) const;
  std::vector<double> col(std::size_t c) const;

  Matrix transpose() const;
  Matrix operator*(const Matrix& rhs) const;
  std::vector<double> operator*(std::span<const double> v) const;
  Matrix operator+(const Matrix& rhs) const;
  Matrix operator-(const Matrix& rhs) const;
  Matrix& operator*=(double s);
  Matrix operator*(double s) const;

  double frobenius_norm() const;

  const std::vector<double>& data() const { return data_; }

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<double> data_;
};

/// Solves A x = b by LU with partial pivoting. Throws ContractError when A is
/// singular to working precision.
// ODA-LINT-ALLOW(production-caller): only tests call it (ROADMAP item 12)
std::vector<double> lu_solve(Matrix a, std::vector<double> b);

/// Cholesky factor L (lower) of a symmetric positive-definite A, so A = L Lᵀ.
/// Throws when A is not positive definite.
Matrix cholesky(const Matrix& a);

/// Solves A x = b for SPD A via Cholesky.
// ODA-LINT-ALLOW(production-caller): only tests call it (ROADMAP item 12)
std::vector<double> cholesky_solve(const Matrix& a, std::span<const double> b);

/// Thin Householder QR of an m×n matrix (m >= n): returns R (n×n upper) and
/// applies the implicit Qᵀ to a right-hand side on demand.
struct QrDecomposition {
  Matrix qr;                    // packed Householder vectors + R
  std::vector<double> tau;      // Householder scalars
  std::size_t m = 0, n = 0;

  /// Least-squares solve min ||A x - b||₂ using the stored factorization.
  std::vector<double> solve(std::span<const double> b) const;
  /// The upper-triangular R factor (n×n).
  Matrix r() const;
};

// ODA-LINT-ALLOW(production-caller): only tests call it (ROADMAP item 12)
QrDecomposition qr_decompose(const Matrix& a);

/// Eigendecomposition of a symmetric matrix via cyclic Jacobi rotations.
/// Returns eigenvalues (descending) and matching unit eigenvectors (columns).
struct EigenResult {
  std::vector<double> values;
  Matrix vectors;  // column i is the eigenvector for values[i]
};

EigenResult jacobi_eigen(Matrix a, double tol = 1e-12, int max_sweeps = 64);

}  // namespace oda::math
