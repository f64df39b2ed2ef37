#include <gtest/gtest.h>

#include <cmath>

#include "selfheal/linalg/lu.hpp"
#include "selfheal/linalg/matrix.hpp"

namespace {

using namespace selfheal::linalg;

TEST(Matrix, InitializerListAndAccess) {
  Matrix m{{1, 2}, {3, 4}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 2.0);
  m.at(1, 0) = 7.0;
  EXPECT_DOUBLE_EQ(m(1, 0), 7.0);
  EXPECT_THROW((void)m.at(2, 0), std::out_of_range);
  EXPECT_THROW(Matrix({{1, 2}, {3}}), std::invalid_argument);
}

TEST(Matrix, IdentityAndMultiply) {
  const auto eye = Matrix::identity(3);
  Matrix m{{1, 2, 3}, {4, 5, 6}, {7, 8, 10}};
  const auto prod = m * eye;
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(prod(r, c), m(r, c));
  }
}

TEST(Matrix, MultiplyKnownProduct) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  const auto c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(Matrix, AddSubtractScale) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{4, 3}, {2, 1}};
  const auto sum = a + b;
  EXPECT_DOUBLE_EQ(sum(0, 0), 5);
  const auto diff = a - b;
  EXPECT_DOUBLE_EQ(diff(1, 1), 3);
  const auto scaled = a * 2.0;
  EXPECT_DOUBLE_EQ(scaled(1, 0), 6);
  EXPECT_THROW(a + Matrix(3, 3), std::invalid_argument);
}

TEST(Matrix, TransposeRoundTrip) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  const auto t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  const auto back = t.transposed();
  EXPECT_DOUBLE_EQ(back(1, 2), 6.0);
}

TEST(Matrix, LeftAndRightMultiply) {
  Matrix m{{1, 2}, {3, 4}};
  const Vector x{1, 1};
  const auto left = m.left_multiply(x);   // x^T M = [4, 6]
  EXPECT_DOUBLE_EQ(left[0], 4);
  EXPECT_DOUBLE_EQ(left[1], 6);
  const auto right = m.right_multiply(x);  // M x = [3, 7]
  EXPECT_DOUBLE_EQ(right[0], 3);
  EXPECT_DOUBLE_EQ(right[1], 7);
  EXPECT_THROW(m.left_multiply(Vector{1, 2, 3}), std::invalid_argument);
}

TEST(Matrix, MaxAbs) {
  Matrix m{{1, -9}, {3, 4}};
  EXPECT_DOUBLE_EQ(m.max_abs(), 9.0);
}

TEST(VectorOps, DotNormAxpyScale) {
  Vector a{1, 2, 3}, b{4, -5, 6};
  EXPECT_DOUBLE_EQ(dot(a, b), 12.0);
  EXPECT_DOUBLE_EQ(l1_norm(b), 15.0);
  EXPECT_DOUBLE_EQ(max_abs(b), 6.0);
  axpy(2.0, a, b);  // b = {6, -1, 12}
  EXPECT_DOUBLE_EQ(b[0], 6);
  EXPECT_DOUBLE_EQ(b[1], -1);
  scale(b, 0.5);
  EXPECT_DOUBLE_EQ(b[2], 6);
  EXPECT_THROW((void)dot(a, Vector{1}), std::invalid_argument);
}

TEST(Lu, SolvesKnownSystem) {
  // x + 2y = 5; 3x + 4y = 11  ->  x = 1, y = 2.
  Matrix a{{1, 2}, {3, 4}};
  const auto x = solve_linear(a, {5, 11});
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 1.0, 1e-12);
  EXPECT_NEAR((*x)[1], 2.0, 1e-12);
}

TEST(Lu, RequiresPivoting) {
  // Zero on the initial diagonal; only solvable with row exchange.
  Matrix a{{0, 1}, {1, 0}};
  const auto x = solve_linear(a, {3, 7});
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 7.0, 1e-12);
  EXPECT_NEAR((*x)[1], 3.0, 1e-12);
}

TEST(Lu, DetectsSingular) {
  Matrix a{{1, 2}, {2, 4}};
  EXPECT_FALSE(solve_linear(a, {1, 2}).has_value());
}

TEST(Lu, ResidualSmallOnRandomSystem) {
  const std::size_t n = 40;
  Matrix a(n, n);
  // Deterministic well-conditioned matrix: diagonally dominant.
  for (std::size_t r = 0; r < n; ++r) {
    double off = 0;
    for (std::size_t c = 0; c < n; ++c) {
      if (r != c) {
        a(r, c) = std::sin(static_cast<double>(r * n + c));
        off += std::fabs(a(r, c));
      }
    }
    a(r, r) = off + 1.0;
  }
  Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = std::cos(static_cast<double>(i));
  const auto x = solve_linear(a, b);
  ASSERT_TRUE(x.has_value());
  const auto ax = a.right_multiply(*x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-9);
}

TEST(Lu, RejectsNonSquare) {
  Matrix a(2, 3);
  EXPECT_THROW((void)LuDecomposition::compute(a), std::invalid_argument);
}

}  // namespace
