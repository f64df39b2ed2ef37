#include "selfheal/linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace selfheal::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    if (row.size() != cols_) throw std::invalid_argument("Matrix: ragged initializer");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

double& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
  return data_[r * cols_ + c];
}

double Matrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
  return data_[r * cols_ + c];
}

double dot(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double l1_norm(const Vector& v) {
  double acc = 0.0;
  for (double x : v) acc += std::fabs(x);
  return acc;
}

double max_abs(const Vector& v) {
  double best = 0.0;
  for (double x : v) best = std::max(best, std::fabs(x));
  return best;
}

void axpy(double alpha, const Vector& x, Vector& y) {
  if (x.size() != y.size()) throw std::invalid_argument("axpy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void scale(Vector& v, double alpha) {
  for (double& x : v) x *= alpha;
}

}  // namespace selfheal::linalg
