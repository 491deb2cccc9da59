// Unit + property tests for the linear-algebra and trend-line kernels.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "math/matrix.hpp"
#include "math/regression.hpp"

namespace oda::math {
namespace {

TEST(Matrix, ConstructionAndIndexing) {
  Matrix m{{1, 2}, {3, 4}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_THROW(m(2, 0), ContractError);
}

TEST(Matrix, MultiplyKnown) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, IdentityIsNeutral) {
  Rng rng(1);
  Matrix a(4, 4);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) a(r, c) = rng.uniform(-1, 1);
  }
  EXPECT_LT((a * Matrix::identity(4) - a).frobenius_norm(), 1e-12);
}

TEST(Matrix, TransposeInvolution) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  EXPECT_LT((a.transpose().transpose() - a).frobenius_norm(), 1e-15);
}

TEST(Matrix, MatVec) {
  Matrix a{{1, 2}, {3, 4}};
  const std::vector<double> v{1.0, 1.0};
  const auto out = a * std::span<const double>(v);
  EXPECT_DOUBLE_EQ(out[0], 3.0);
  EXPECT_DOUBLE_EQ(out[1], 7.0);
}

TEST(LuSolve, RecoverSolution) {
  Matrix a{{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}};
  const auto x = lu_solve(a, {8, -11, -3});
  EXPECT_NEAR(x[0], 2.0, 1e-10);
  EXPECT_NEAR(x[1], 3.0, 1e-10);
  EXPECT_NEAR(x[2], -1.0, 1e-10);
}

TEST(LuSolve, SingularThrows) {
  Matrix a{{1, 2}, {2, 4}};
  EXPECT_THROW(lu_solve(a, {1, 2}), ContractError);
}

TEST(Cholesky, FactorReconstructs) {
  Matrix a{{4, 2, 0}, {2, 5, 1}, {0, 1, 3}};
  const Matrix l = cholesky(a);
  EXPECT_LT((l * l.transpose() - a).frobenius_norm(), 1e-10);
}

TEST(Cholesky, NotPositiveDefiniteThrows) {
  Matrix a{{1, 2}, {2, 1}};  // eigenvalues 3, -1
  EXPECT_THROW(cholesky(a), ContractError);
}

TEST(CholeskySolve, MatchesLu) {
  Matrix a{{6, 2, 1}, {2, 5, 2}, {1, 2, 4}};
  const std::vector<double> b{1, 2, 3};
  const auto x1 = cholesky_solve(a, b);
  const auto x2 = lu_solve(a, b);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(x1[i], x2[i], 1e-10);
}

TEST(Qr, LeastSquaresExactSystem) {
  Matrix a{{1, 0}, {0, 1}, {1, 1}};
  // b generated from x = (2, -1): residual-free after projection of an
  // exactly consistent system.
  const std::vector<double> b{2, -1, 1};
  const auto x = qr_decompose(a).solve(b);
  EXPECT_NEAR(x[0], 2.0, 1e-10);
  EXPECT_NEAR(x[1], -1.0, 1e-10);
}

TEST(Qr, ResidualOrthogonalToColumns) {
  Rng rng(3);
  Matrix a(20, 3);
  std::vector<double> b(20);
  for (std::size_t r = 0; r < 20; ++r) {
    for (std::size_t c = 0; c < 3; ++c) a(r, c) = rng.normal();
    b[r] = rng.normal();
  }
  const auto x = qr_decompose(a).solve(b);
  // r = b - A x must be orthogonal to every column of A.
  std::vector<double> res = b;
  for (std::size_t r = 0; r < 20; ++r) {
    for (std::size_t c = 0; c < 3; ++c) res[r] -= a(r, c) * x[c];
  }
  for (std::size_t c = 0; c < 3; ++c) {
    double dot = 0.0;
    for (std::size_t r = 0; r < 20; ++r) dot += a(r, c) * res[r];
    EXPECT_NEAR(dot, 0.0, 1e-9);
  }
}

TEST(JacobiEigen, DiagonalMatrix) {
  Matrix a{{3, 0}, {0, 1}};
  const auto eig = jacobi_eigen(a);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 1.0, 1e-12);
}

TEST(JacobiEigen, EigenEquationHolds) {
  Rng rng(5);
  const std::size_t n = 6;
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = r; c < n; ++c) {
      a(r, c) = a(c, r) = rng.normal();
    }
  }
  const auto eig = jacobi_eigen(a);
  for (std::size_t k = 0; k < n; ++k) {
    const auto v = eig.vectors.col(k);
    const auto av = a * std::span<const double>(v);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(av[i], eig.values[k] * v[i], 1e-8);
    }
  }
  // Eigenvalues sorted descending.
  for (std::size_t k = 1; k < n; ++k) {
    EXPECT_GE(eig.values[k - 1], eig.values[k]);
  }
}

TEST(JacobiEigen, TraceEqualsEigenSum) {
  Rng rng(7);
  Matrix a(5, 5);
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = r; c < 5; ++c) a(r, c) = a(c, r) = rng.uniform(-2, 2);
  }
  double trace = 0.0;
  for (std::size_t i = 0; i < 5; ++i) trace += a(i, i);
  const auto eig = jacobi_eigen(a);
  double sum = 0.0;
  for (double v : eig.values) sum += v;
  EXPECT_NEAR(trace, sum, 1e-9);
}

// ------------------------------------------------------------ trend lines

TEST(Trend, KnownLine) {
  std::vector<double> y;
  for (int i = 0; i < 50; ++i) y.push_back(2.0 + 0.5 * i);
  const auto t = fit_trend(y);
  EXPECT_NEAR(t.slope, 0.5, 1e-10);
  EXPECT_NEAR(t.intercept, 2.0, 1e-10);
  EXPECT_NEAR(t.r_squared, 1.0, 1e-10);
}

TEST(Trend, ConstantSeries) {
  std::vector<double> y(20, 7.0);
  const auto t = fit_trend(y);
  EXPECT_NEAR(t.slope, 0.0, 1e-12);
  EXPECT_NEAR(t.intercept, 7.0, 1e-12);
}

TEST(TheilSen, RobustAgainstOutliers) {
  Rng rng(17);
  std::vector<double> y;
  for (int i = 0; i < 100; ++i) y.push_back(1.0 + 0.3 * i + rng.normal(0.0, 0.05));
  // Corrupt 20% of the points badly.
  for (int i = 0; i < 20; ++i) y[static_cast<std::size_t>(rng.uniform_int(0, 99))] += 500.0;
  const auto robust = fit_theil_sen(y);
  const auto ls = fit_trend(y);
  EXPECT_NEAR(robust.slope, 0.3, 0.05);
  // The LS fit is dragged much further from the truth.
  EXPECT_GT(std::abs(ls.intercept - 1.0), std::abs(robust.intercept - 1.0));
}

TEST(TheilSen, SubsamplingPathConsistent) {
  Rng rng(19);
  std::vector<double> y;
  for (int i = 0; i < 600; ++i) y.push_back(5.0 - 0.2 * i + rng.normal(0.0, 0.1));
  const auto t = fit_theil_sen(y, /*max_pairs=*/2000);  // forces subsampling
  EXPECT_NEAR(t.slope, -0.2, 0.02);
}

}  // namespace
}  // namespace oda::math
