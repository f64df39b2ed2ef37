// LU decomposition with partial pivoting and a linear-system solver.
// Backs the CTMC's dense hitting-time parity reference (the production
// path is the sparse banded LU in ctmc/sparse_solvers).
#pragma once

#include <optional>

#include "selfheal/linalg/matrix.hpp"

namespace selfheal::linalg {

/// PA = LU factorization. Fails (returns nullopt) on singular matrices
/// (pivot below `tolerance`).
class LuDecomposition {
 public:
  [[nodiscard]] static std::optional<LuDecomposition> compute(
      const Matrix& a, double tolerance = 1e-12);

  /// Solves A x = b for x.
  [[nodiscard]] Vector solve(const Vector& b) const;

  [[nodiscard]] std::size_t size() const noexcept { return lu_.rows(); }

 private:
  LuDecomposition() = default;
  Matrix lu_;
  std::vector<std::size_t> perm_;
};

/// Convenience wrapper: solves A x = b, nullopt if singular.
[[nodiscard]] std::optional<Vector> solve_linear(const Matrix& a, const Vector& b,
                                                 double tolerance = 1e-12);

}  // namespace selfheal::linalg
