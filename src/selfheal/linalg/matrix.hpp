// Dense row-major matrix of doubles: storage and element access for the
// dense CTMC generator and the LU solve of the dense parity references
// (the paper's models are at most ~1000 states: a 31x31 STG grid).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace selfheal::linalg {

using Vector = std::vector<double>;

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  [[nodiscard]] double& at(std::size_t r, std::size_t c);
  [[nodiscard]] double at(std::size_t r, std::size_t c) const;

  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  Vector data_;
};

/// Elementwise helpers on Vector.
[[nodiscard]] double dot(const Vector& a, const Vector& b);
[[nodiscard]] double l1_norm(const Vector& v);
[[nodiscard]] double max_abs(const Vector& v);
void axpy(double alpha, const Vector& x, Vector& y);  // y += alpha * x
void scale(Vector& v, double alpha);

}  // namespace selfheal::linalg
