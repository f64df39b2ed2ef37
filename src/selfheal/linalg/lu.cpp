#include "selfheal/linalg/lu.hpp"

#include <cmath>
#include <stdexcept>

namespace selfheal::linalg {

std::optional<LuDecomposition> LuDecomposition::compute(const Matrix& a,
                                                        double tolerance) {
  if (a.rows() != a.cols()) throw std::invalid_argument("LU: matrix must be square");
  const std::size_t n = a.rows();

  LuDecomposition result;
  result.lu_ = a;
  result.perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) result.perm_[i] = i;

  Matrix& lu = result.lu_;
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot: largest |value| in this column at/below the diagonal.
    std::size_t pivot = col;
    double best = std::fabs(lu(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double v = std::fabs(lu(r, col));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < tolerance) return std::nullopt;
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(lu(pivot, c), lu(col, c));
      std::swap(result.perm_[pivot], result.perm_[col]);
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = lu(r, col) / lu(col, col);
      lu(r, col) = factor;
      for (std::size_t c = col + 1; c < n; ++c) lu(r, c) -= factor * lu(col, c);
    }
  }
  return result;
}

Vector LuDecomposition::solve(const Vector& b) const {
  const std::size_t n = size();
  if (b.size() != n) throw std::invalid_argument("LU solve: size mismatch");

  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[perm_[i]];

  // Forward substitution (L has unit diagonal).
  for (std::size_t r = 1; r < n; ++r) {
    double acc = x[r];
    for (std::size_t c = 0; c < r; ++c) acc -= lu_(r, c) * x[c];
    x[r] = acc;
  }
  // Backward substitution.
  for (std::size_t r = n; r-- > 0;) {
    double acc = x[r];
    for (std::size_t c = r + 1; c < n; ++c) acc -= lu_(r, c) * x[c];
    x[r] = acc / lu_(r, r);
  }
  return x;
}

std::optional<Vector> solve_linear(const Matrix& a, const Vector& b,
                                   double tolerance) {
  const auto lu = LuDecomposition::compute(a, tolerance);
  if (!lu) return std::nullopt;
  return lu->solve(b);
}

}  // namespace selfheal::linalg
