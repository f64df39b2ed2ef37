#include "selfheal/ctmc/sparse_solvers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace selfheal::ctmc {

namespace {

/// Dense-within-band storage: row i occupies cells [i-beta, i+beta],
/// addressed as band[i * (2*beta+1) + (j - i + beta)].
class BandStorage {
 public:
  BandStorage(std::size_t n, std::size_t beta)
      : beta_(beta), width_(2 * beta + 1), cells_(n * width_, 0.0) {}

  [[nodiscard]] double& at(std::size_t i, std::size_t j) noexcept {
    return cells_[i * width_ + (j + beta_ - i)];
  }
  [[nodiscard]] double at(std::size_t i, std::size_t j) const noexcept {
    return cells_[i * width_ + (j + beta_ - i)];
  }

 private:
  std::size_t beta_;
  std::size_t width_;
  std::vector<double> cells_;
};

/// max_j |(pi Q)_j| with Q given as off-diagonal rows + implied diagonal.
double steady_residual(const CsrMatrix& offdiag, const Vector& pi) {
  const std::size_t n = offdiag.rows();
  Vector flow(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double exit = 0.0;
    for (const auto& e : offdiag.row(i)) {
      flow[e.col] += pi[i] * e.value;
      exit += e.value;
    }
    flow[i] -= pi[i] * exit;
  }
  return linalg::max_abs(flow);
}

}  // namespace

SteadyStateResult steady_state_banded_gth(const CsrMatrix& offdiag) {
  const std::size_t n = offdiag.rows();
  SteadyStateResult result;
  if (n == 0) {
    result.error = SteadyStateError::kEmptyChain;
    return result;
  }
  if (n == 1) {
    result.pi = Vector{1.0};
    return result;
  }

  const auto order = linalg::reverse_cuthill_mckee(offdiag);
  const std::size_t beta = std::max<std::size_t>(linalg::bandwidth_under(offdiag, order), 1);
  std::vector<std::uint32_t> position(n);
  for (std::size_t i = 0; i < n; ++i) position[order[i]] = static_cast<std::uint32_t>(i);

  BandStorage a(n, beta);
  for (std::size_t r = 0; r < n; ++r) {
    for (const auto& e : offdiag.row(r)) {
      if (e.col == r) continue;
      a.at(position[r], position[e.col]) += e.value;
    }
  }

  // GTH censoring, highest permuted state first. All updates stay within
  // the band: i, j in [k - beta, k - 1] implies |i - j| < beta.
  for (std::size_t k = n - 1; k >= 1; --k) {
    const std::size_t lo = k > beta ? k - beta : 0;
    double pivot = 0.0;
    for (std::size_t j = lo; j < k; ++j) pivot += a.at(k, j);
    if (pivot <= 0.0) {
      result.error = SteadyStateError::kReducible;
      result.iterations = n - 1 - k;
      return result;
    }
    for (std::size_t i = lo; i < k; ++i) {
      double& aik = a.at(i, k);
      if (aik == 0.0) continue;
      aik /= pivot;
      for (std::size_t j = lo; j < k; ++j) {
        if (i != j && a.at(k, j) != 0.0) a.at(i, j) += aik * a.at(k, j);
      }
    }
  }

  Vector pi(n, 0.0);
  pi[0] = 1.0;
  for (std::size_t k = 1; k < n; ++k) {
    const std::size_t lo = k > beta ? k - beta : 0;
    double acc = 0.0;
    for (std::size_t i = lo; i < k; ++i) acc += pi[i] * a.at(i, k);
    pi[k] = acc;
  }
  const double total = linalg::l1_norm(pi);
  if (!(total > 0.0) || !std::isfinite(total)) {
    result.error = SteadyStateError::kReducible;
    return result;
  }
  linalg::scale(pi, 1.0 / total);

  Vector unpermuted(n);
  for (std::size_t i = 0; i < n; ++i) unpermuted[order[i]] = pi[i];
  result.pi = std::move(unpermuted);
  result.iterations = n - 1;
  result.residual = steady_residual(offdiag, *result.pi);
  return result;
}

std::optional<Vector> solve_restricted_generator(const CsrMatrix& offdiag,
                                                 const Vector& diag,
                                                 const std::vector<std::size_t>& states,
                                                 const Vector& b) {
  const std::size_t m = states.size();
  if (m == 0) return Vector{};

  const std::size_t n = offdiag.rows();
  std::vector<std::uint32_t> sub_index(n, std::numeric_limits<std::uint32_t>::max());
  for (std::size_t k = 0; k < m; ++k) sub_index[states[k]] = static_cast<std::uint32_t>(k);

  std::vector<linalg::Triplet> triplets;
  for (std::size_t k = 0; k < m; ++k) {
    const std::size_t s = states[k];
    triplets.push_back({static_cast<std::uint32_t>(k), static_cast<std::uint32_t>(k), diag[s]});
    for (const auto& e : offdiag.row(s)) {
      const std::uint32_t c = sub_index[e.col];
      if (c != std::numeric_limits<std::uint32_t>::max() && e.col != s) {
        triplets.push_back({static_cast<std::uint32_t>(k), c, e.value});
      }
    }
  }
  const auto sub = CsrMatrix::from_triplets(m, m, triplets);

  const auto order = linalg::reverse_cuthill_mckee(sub);
  const std::size_t beta = std::max<std::size_t>(linalg::bandwidth_under(sub, order), 1);
  std::vector<std::uint32_t> position(m);
  for (std::size_t i = 0; i < m; ++i) position[order[i]] = static_cast<std::uint32_t>(i);

  BandStorage a(m, beta);
  for (std::size_t r = 0; r < m; ++r) {
    for (const auto& e : sub.row(r)) a.at(position[r], position[e.col]) += e.value;
  }
  Vector rhs(m);
  for (std::size_t i = 0; i < m; ++i) rhs[position[i]] = b[i];

  // Banded LU without pivoting; the restricted generator is a negated
  // M-matrix, so elimination cannot blow up.
  for (std::size_t k = 0; k < m; ++k) {
    const double pivot = a.at(k, k);
    if (std::fabs(pivot) < 1e-300) return std::nullopt;
    const std::size_t hi = std::min(m - 1, k + beta);
    for (std::size_t i = k + 1; i <= hi; ++i) {
      double& lik = a.at(i, k);
      if (lik == 0.0) continue;
      lik /= pivot;
      for (std::size_t j = k + 1; j <= hi; ++j) {
        if (a.at(k, j) != 0.0) a.at(i, j) -= lik * a.at(k, j);
      }
    }
  }
  // Forward substitution (unit lower triangle holds the multipliers).
  for (std::size_t i = 1; i < m; ++i) {
    const std::size_t lo = i > beta ? i - beta : 0;
    double acc = rhs[i];
    for (std::size_t k = lo; k < i; ++k) acc -= a.at(i, k) * rhs[k];
    rhs[i] = acc;
  }
  // Back substitution.
  for (std::size_t i = m; i-- > 0;) {
    const std::size_t hi = std::min(m - 1, i + beta);
    double acc = rhs[i];
    for (std::size_t j = i + 1; j <= hi; ++j) acc -= a.at(i, j) * rhs[j];
    rhs[i] = acc / a.at(i, i);
  }

  Vector h(m);
  for (std::size_t i = 0; i < m; ++i) h[i] = rhs[position[i]];
  return h;
}

}  // namespace selfheal::ctmc
