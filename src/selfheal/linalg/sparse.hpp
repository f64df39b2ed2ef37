// Sparse row-compressed matrices for CTMC generators.
//
// The Fig. 3 / MMPP state graphs have constant out-degree (~4 edges per
// state), so a dense Matrix wastes O(n^2) memory and O(n^2) work per
// SpMV once buffers grow past a few dozen entries. CsrMatrix stores only
// the nonzeros in the classic compressed-sparse-row layout, built by a
// counting sort: count per row, prefix-sum into row starts, scatter, then
// sort-and-merge each row.
//
// reverse_cuthill_mckee() produces a bandwidth-reducing ordering of the
// symmetrized pattern; the banded direct solvers in ctmc/sparse_solvers
// rely on it to keep GTH / LU fill-in inside an O(sqrt(n)) band for
// lattice-shaped chains.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "selfheal/linalg/matrix.hpp"

namespace selfheal::linalg {

/// One (row, col, value) coordinate entry for bulk construction.
struct Triplet {
  std::uint32_t row = 0;
  std::uint32_t col = 0;
  double value = 0.0;
};

class CsrMatrix {
 public:
  struct Entry {
    std::uint32_t col = 0;
    double value = 0.0;
  };

  CsrMatrix() = default;

  /// Builds from coordinate triplets; duplicate (row, col) pairs are
  /// summed, columns within a row end up sorted ascending. Entries that
  /// sum to exactly zero are kept (callers that care filter upfront).
  [[nodiscard]] static CsrMatrix from_triplets(std::size_t rows, std::size_t cols,
                                               const std::vector<Triplet>& triplets);

  [[nodiscard]] std::size_t rows() const noexcept { return row_start_.empty() ? 0 : row_start_.size() - 1; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t nnz() const noexcept { return entries_.size(); }

  [[nodiscard]] std::span<const Entry> row(std::size_t r) const {
    return {entries_.data() + row_start_[r], entries_.data() + row_start_[r + 1]};
  }

  /// Row-vector times matrix, y = x A (scatter over rows).
  [[nodiscard]] Vector left_multiply(const Vector& x) const;
  /// Matrix times column vector, y = A x (gather per row).
  [[nodiscard]] Vector right_multiply(const Vector& x) const;

  [[nodiscard]] CsrMatrix transposed() const;

 private:
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_start_;  // rows()+1 offsets into entries_
  std::vector<Entry> entries_;
};

/// Reverse Cuthill-McKee ordering of the symmetrized nonzero pattern of
/// a square matrix: breadth-first from a minimum-degree root per
/// component, neighbours visited in ascending degree, then reversed.
/// Returns `order` with order[new_index] = old_index.
[[nodiscard]] std::vector<std::uint32_t> reverse_cuthill_mckee(const CsrMatrix& a);

/// Half-bandwidth max |p(i) - p(j)| over nonzeros of a square matrix
/// under the permutation `order` (order[new] = old). 0 for diagonal-only.
[[nodiscard]] std::size_t bandwidth_under(const CsrMatrix& a,
                                          const std::vector<std::uint32_t>& order);

}  // namespace selfheal::linalg
