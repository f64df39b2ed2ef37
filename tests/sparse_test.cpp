#include <gtest/gtest.h>

#include <random>

#include "selfheal/linalg/sparse.hpp"

namespace {

using namespace selfheal::linalg;

TEST(CsrMatrix, FromTripletsSortsAndMergesDuplicates) {
  // Rows arrive out of order, with a duplicate (1,2) entry to sum.
  const auto m = CsrMatrix::from_triplets(
      3, 4, {{1, 2, 1.5}, {0, 3, 2.0}, {1, 0, 4.0}, {1, 2, 0.5}, {2, 1, -1.0}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.nnz(), 4u);  // duplicate merged

  const auto row1 = m.row(1);
  ASSERT_EQ(row1.size(), 2u);
  EXPECT_EQ(row1[0].col, 0u);
  EXPECT_DOUBLE_EQ(row1[0].value, 4.0);
  EXPECT_EQ(row1[1].col, 2u);
  EXPECT_DOUBLE_EQ(row1[1].value, 2.0);  // 1.5 + 0.5

  EXPECT_EQ(m.row(0).size(), 1u);
  EXPECT_EQ(m.row(2).size(), 1u);
  EXPECT_DOUBLE_EQ(m.row(2)[0].value, -1.0);
}

TEST(CsrMatrix, RejectsOutOfRangeTriplets) {
  EXPECT_THROW(CsrMatrix::from_triplets(2, 2, {{2, 0, 1.0}}), std::out_of_range);
  EXPECT_THROW(CsrMatrix::from_triplets(2, 2, {{0, 2, 1.0}}), std::out_of_range);
}

TEST(CsrMatrix, MultipliesMatchDense) {
  std::mt19937 rng(42);
  std::uniform_real_distribution<double> val(-2.0, 2.0);
  std::uniform_int_distribution<std::uint32_t> row(0, 9), col(0, 7);
  std::vector<Triplet> triplets;
  for (int k = 0; k < 40; ++k) triplets.push_back({row(rng), col(rng), val(rng)});
  const auto sparse = CsrMatrix::from_triplets(10, 8, triplets);
  Matrix dense(10, 8);  // duplicates sum, as in the CSR
  for (const auto& t : triplets) dense(t.row, t.col) += t.value;

  Vector x(10), y(8);
  for (auto& v : x) v = val(rng);
  for (auto& v : y) v = val(rng);

  Vector left_dense(8, 0.0), right_dense(10, 0.0);  // x^T A and A y
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      left_dense[j] += x[i] * dense(i, j);
      right_dense[i] += dense(i, j) * y[j];
    }
  }

  const auto left_sparse = sparse.left_multiply(x);
  ASSERT_EQ(left_sparse.size(), 8u);
  for (std::size_t j = 0; j < 8; ++j) EXPECT_NEAR(left_sparse[j], left_dense[j], 1e-12);

  const auto right_sparse = sparse.right_multiply(y);
  ASSERT_EQ(right_sparse.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_NEAR(right_sparse[i], right_dense[i], 1e-12);
}

TEST(CsrMatrix, MultiplyRejectsSizeMismatch) {
  const auto m = CsrMatrix::from_triplets(2, 3, {{0, 1, 1.0}});
  EXPECT_THROW(m.left_multiply(Vector{1.0}), std::invalid_argument);
  EXPECT_THROW(m.right_multiply(Vector{1.0, 2.0}), std::invalid_argument);
}

TEST(CsrMatrix, TransposeRoundTrips) {
  const auto m = CsrMatrix::from_triplets(
      3, 5, {{0, 4, 1.0}, {1, 0, 2.0}, {2, 2, 3.0}, {1, 4, -0.5}});
  const auto t = m.transposed();
  EXPECT_EQ(t.rows(), 5u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.nnz(), m.nnz());
  const auto back = t.transposed();
  for (std::size_t r = 0; r < 3; ++r) {
    const auto a = m.row(r);
    const auto b = back.row(r);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].col, b[k].col);
      EXPECT_DOUBLE_EQ(a[k].value, b[k].value);
    }
  }
}

TEST(Rcm, ReducesBandwidthOnALatticeChain) {
  // A 2-D lattice numbered column-major has bandwidth ~rows*cols when
  // shuffled; RCM must bring it back to ~min(rows, cols).
  const std::size_t rows = 12, cols = 12;
  std::vector<Triplet> triplets;
  const auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<std::uint32_t>(r * cols + c);
  };
  // Scramble the natural order with a fixed permutation.
  std::vector<std::uint32_t> perm(rows * cols);
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<std::uint32_t>(i);
  std::mt19937 rng(7);
  std::shuffle(perm.begin(), perm.end(), rng);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (r + 1 < rows) triplets.push_back({perm[id(r, c)], perm[id(r + 1, c)], 1.0});
      if (c + 1 < cols) triplets.push_back({perm[id(r, c)], perm[id(r, c + 1)], 1.0});
    }
  }
  const auto m = CsrMatrix::from_triplets(rows * cols, rows * cols, triplets);

  std::vector<std::uint32_t> identity(rows * cols);
  for (std::size_t i = 0; i < identity.size(); ++i) identity[i] = static_cast<std::uint32_t>(i);
  const auto shuffled_band = bandwidth_under(m, identity);

  const auto order = reverse_cuthill_mckee(m);
  // Must be a permutation.
  std::vector<bool> seen(order.size(), false);
  for (auto v : order) {
    ASSERT_LT(v, order.size());
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
  const auto rcm_band = bandwidth_under(m, order);
  EXPECT_LE(rcm_band, 2 * std::min(rows, cols));
  EXPECT_LT(rcm_band, shuffled_band / 2);
}

TEST(Rcm, HandlesDisconnectedComponentsAndEmpty) {
  const auto m = CsrMatrix::from_triplets(5, 5, {{0, 1, 1.0}, {3, 4, 1.0}});
  const auto order = reverse_cuthill_mckee(m);
  ASSERT_EQ(order.size(), 5u);
  std::vector<bool> seen(5, false);
  for (auto v : order) seen[v] = true;
  for (bool s : seen) EXPECT_TRUE(s);

  const CsrMatrix empty = CsrMatrix::from_triplets(0, 0, {});
  EXPECT_TRUE(reverse_cuthill_mckee(empty).empty());
}

}  // namespace
