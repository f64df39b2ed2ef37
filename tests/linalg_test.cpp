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
  for (std::size_t i = 0; i < n; ++i) {
    double ax = 0.0;
    for (std::size_t c = 0; c < n; ++c) ax += a(i, c) * (*x)[c];
    EXPECT_NEAR(ax, b[i], 1e-9);
  }
}

TEST(Lu, RejectsNonSquare) {
  Matrix a(2, 3);
  EXPECT_THROW((void)LuDecomposition::compute(a), std::invalid_argument);
}

}  // namespace
