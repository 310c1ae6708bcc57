// Tests for stats/: matrix algebra, direct solvers, NIPALS PLS, NNLS,
// descriptive statistics.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "stats/descriptive.h"
#include "stats/matrix.h"
#include "stats/nnls.h"
#include "stats/pls.h"
#include "stats/solve.h"

namespace soc::stats {
namespace {

TEST(Matrix, ConstructAndIndex) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(Matrix, OutOfRangeThrows) {
  Matrix m(2, 2);
  EXPECT_THROW(m(2, 0), Error);
  EXPECT_THROW(m(0, 2), Error);
}

TEST(Matrix, FromRowsRejectsRagged) {
  EXPECT_THROW(Matrix::from_rows({{1.0, 2.0}, {3.0}}), Error);
}

TEST(Matrix, Transpose) {
  const Matrix m = Matrix::from_rows({{1, 2, 3}, {4, 5, 6}});
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  EXPECT_DOUBLE_EQ(t(0, 0), 1.0);
}

TEST(Matrix, MultiplyIdentity) {
  const Matrix m = Matrix::from_rows({{1, 2}, {3, 4}});
  const Matrix i = Matrix::identity(2);
  const Matrix p = m * i;
  EXPECT_DOUBLE_EQ(p(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(p(1, 1), 4.0);
}

TEST(Matrix, MultiplyKnown) {
  const Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::from_rows({{5, 6}, {7, 8}});
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MatVec) {
  const Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  const Vec v = a * Vec{1.0, 1.0};
  EXPECT_DOUBLE_EQ(v[0], 3.0);
  EXPECT_DOUBLE_EQ(v[1], 7.0);
}

TEST(Matrix, ShapeMismatchThrows) {
  const Matrix a(2, 3);
  const Matrix b(2, 3);
  EXPECT_THROW(a * b, Error);
  EXPECT_THROW(a + b.transposed(), Error);
}

TEST(Matrix, FrobeniusNorm) {
  const Matrix m = Matrix::from_rows({{3, 0}, {0, 4}});
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), 5.0);
}

TEST(VecOps, DotNormAxpy) {
  const Vec a{1, 2, 3};
  const Vec b{4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(norm(Vec{3, 4}), 5.0);
  const Vec c = axpy(a, 2.0, b);
  EXPECT_DOUBLE_EQ(c[2], 15.0);
}

TEST(Solve, GaussianKnownSystem) {
  const Matrix a = Matrix::from_rows({{2, 1}, {1, 3}});
  const Vec x = solve_gaussian(a, {5, 10});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Solve, GaussianNeedsPivoting) {
  // Zero on the diagonal requires a row swap.
  const Matrix a = Matrix::from_rows({{0, 1}, {1, 0}});
  const Vec x = solve_gaussian(a, {2, 3});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Solve, SingularThrows) {
  const Matrix a = Matrix::from_rows({{1, 2}, {2, 4}});
  EXPECT_THROW(solve_gaussian(a, {1, 2}), Error);
}

TEST(Descriptive, MeanVarianceStddev) {
  const Vec v{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
  EXPECT_NEAR(variance(v), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(stddev(v), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Descriptive, RSquaredPerfectFit) {
  const Vec y{1, 2, 3};
  EXPECT_DOUBLE_EQ(r_squared(y, y), 1.0);
}

TEST(Descriptive, RSquaredMeanPrediction) {
  const Vec y{1, 2, 3};
  const Vec yhat{2, 2, 2};  // predicting the mean gives r² = 0
  EXPECT_NEAR(r_squared(y, yhat), 0.0, 1e-12);
}

TEST(Descriptive, StandardizeZeroMeanUnitVariance) {
  const Matrix m = Matrix::from_rows({{1, 10}, {2, 20}, {3, 30}});
  Vec means;
  Vec scales;
  const Matrix z = standardize(m, &means, &scales);
  EXPECT_NEAR(mean(z.col(0)), 0.0, 1e-12);
  EXPECT_NEAR(stddev(z.col(1)), 1.0, 1e-12);
  EXPECT_NEAR(means[1], 20.0, 1e-12);
}

TEST(Descriptive, StandardizeConstantColumn) {
  const Matrix m = Matrix::from_rows({{1, 5}, {2, 5}, {3, 5}});
  const Matrix z = standardize(m, nullptr, nullptr);
  // Constant column is centered, not scaled.
  EXPECT_NEAR(z(0, 1), 0.0, 1e-12);
}

TEST(Pls, SingleComponentRecoversDirection) {
  // y depends only on the first column.
  Rng rng(7);
  Matrix x(30, 3);
  Vec y(30);
  for (int i = 0; i < 30; ++i) {
    for (int c = 0; c < 3; ++c) x(i, c) = rng.next_range(-1, 1);
    y[i] = 4.0 * x(i, 0);
  }
  const PlsModel model = pls_fit(x, y, 3);
  const auto top = top_variables(model, 1);
  EXPECT_EQ(top[0], 0u);
  EXPECT_GT(model.r2, 0.95);
}

TEST(Pls, PredictionMatchesTraining) {
  Rng rng(9);
  Matrix x(20, 2);
  Vec y(20);
  for (int i = 0; i < 20; ++i) {
    x(i, 0) = rng.next_range(0, 1);
    x(i, 1) = rng.next_range(0, 1);
    y[i] = x(i, 0) + 2.0 * x(i, 1);
  }
  const PlsModel model = pls_fit(x, y, 2);
  const Vec yhat = pls_predict(model, x);
  EXPECT_NEAR(r_squared(y, yhat), 1.0, 1e-6);
}

TEST(Pls, VarianceExplainedIsMonotone) {
  Rng rng(11);
  Matrix x(15, 4);
  Vec y(15);
  for (int i = 0; i < 15; ++i) {
    for (int c = 0; c < 4; ++c) x(i, c) = rng.next_range(-1, 1);
    y[i] = x(i, 0) - x(i, 2) + 0.1 * rng.next_gaussian();
  }
  const PlsModel model = pls_fit(x, y, 4);
  for (std::size_t a = 1; a < model.x_variance_explained.size(); ++a) {
    EXPECT_GE(model.x_variance_explained[a],
              model.x_variance_explained[a - 1] - 1e-12);
  }
  EXPECT_GE(components_for_variance(model, 0.5), 1u);
  EXPECT_LE(components_for_variance(model, 0.5), model.components);
}

TEST(Pls, RejectsTooFewObservations) {
  const Matrix x(1, 2);
  EXPECT_THROW(pls_fit(x, {1.0}, 1), Error);
}

TEST(Nnls, MatchesUnconstrainedWhenPositive) {
  const Matrix a = Matrix::from_rows({{1, 0}, {0, 1}, {1, 1}});
  const Vec b{1, 2, 3};
  const Vec x = nnls(a, b);
  EXPECT_NEAR(x[0], 1.0, 1e-6);
  EXPECT_NEAR(x[1], 2.0, 1e-6);
}

TEST(Nnls, ClampsNegativeSolution) {
  // Unconstrained solution would have a negative coefficient.
  const Matrix a = Matrix::from_rows({{1, 1}, {1, 1.0001}});
  const Vec b{1, 0.5};
  const Vec x = nnls(a, b);
  EXPECT_GE(x[0], 0.0);
  EXPECT_GE(x[1], 0.0);
}

TEST(Nnls, ZeroRhsGivesZero) {
  const Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  const Vec x = nnls(a, {0, 0});
  EXPECT_DOUBLE_EQ(x[0], 0.0);
  EXPECT_DOUBLE_EQ(x[1], 0.0);
}

}  // namespace
}  // namespace soc::stats
