#include "selfheal/ctmc/ctmc.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <stdexcept>

#include "selfheal/ctmc/sparse_solvers.hpp"
#include "selfheal/linalg/lu.hpp"
#include "selfheal/obs/metrics.hpp"
#include "selfheal/obs/trace.hpp"

namespace selfheal::ctmc {

namespace {

struct CtmcMetrics {
  /// GTH censoring steps + uniformization terms: the
  /// "how much numerical work did this evaluation do" cost driver for
  /// the figure benches.
  obs::Counter& solver_iterations = obs::metrics().counter("ctmc.solver_iterations");
  obs::Counter& steady_solves = obs::metrics().counter("ctmc.steady_solves");
  obs::Counter& transient_steps = obs::metrics().counter("ctmc.transient_steps");
  /// Sparse generator-vector products (y = v Q without forming Q).
  obs::Counter& spmv_count = obs::metrics().counter("ctmc.spmv_count");
  /// Dense generator materialisations -- should stay 0 outside the
  /// dense parity references and tests.
  obs::Counter& dense_fallbacks = obs::metrics().counter("ctmc.dense_fallbacks");
  /// Off-diagonal nonzeros of the most recently built chain.
  obs::Gauge& nnz = obs::metrics().gauge("ctmc.nnz");
};

CtmcMetrics& ctmc_metrics() {
  static CtmcMetrics m;
  return m;
}

}  // namespace

Ctmc Ctmc::from_triplets(std::size_t state_count, const std::vector<Triplet>& triplets) {
  std::vector<Triplet> filtered;
  filtered.reserve(triplets.size());
  for (const auto& t : triplets) {
    if (t.row >= state_count || t.col >= state_count) {
      throw std::out_of_range("Ctmc::from_triplets: state out of range");
    }
    if (t.row == t.col) throw std::invalid_argument("Ctmc::from_triplets: from == to");
    if (!std::isfinite(t.value) || t.value < 0) {
      throw std::invalid_argument("Ctmc::from_triplets: rate must be finite and >= 0");
    }
    if (t.value > 0) filtered.push_back(t);
  }

  Ctmc chain;
  chain.csr_ = CsrMatrix::from_triplets(state_count, state_count, filtered);
  chain.csr_transposed_ = chain.csr_.transposed();
  chain.diag_.resize(state_count);
  chain.names_.resize(state_count);
  for (std::size_t s = 0; s < state_count; ++s) {
    double exit = 0.0;
    for (const auto& e : chain.csr_.row(s)) exit += e.value;
    chain.diag_[s] = -exit;
    chain.names_[s] = "s" + std::to_string(s);
  }
  ctmc_metrics().nnz.set(static_cast<double>(chain.nnz()));
  return chain;
}

double Ctmc::rate(std::size_t from, std::size_t to) const {
  if (from >= state_count() || to >= state_count()) {
    throw std::out_of_range("Ctmc::rate: state out of range");
  }
  if (from == to) return diag_[from];
  const auto row = csr_.row(from);
  const auto it = std::lower_bound(
      row.begin(), row.end(), to,
      [](const CsrMatrix::Entry& e, std::size_t col) { return e.col < col; });
  return it != row.end() && it->col == to ? it->value : 0.0;
}

void Ctmc::set_state_name(std::size_t s, std::string name) {
  names_.at(s) = std::move(name);
}

const std::string& Ctmc::state_name(std::size_t s) const { return names_.at(s); }

std::span<const CsrMatrix::Entry> Ctmc::transitions_from(std::size_t s) const {
  if (s >= state_count()) throw std::out_of_range("Ctmc::transitions_from: state out of range");
  return csr_.row(s);
}

Matrix Ctmc::generator() const {
  ctmc_metrics().dense_fallbacks.inc();
  Matrix q(state_count(), state_count());
  for (std::size_t r = 0; r < state_count(); ++r) {
    q(r, r) = diag_[r];
    for (const auto& e : csr_.row(r)) q(r, e.col) = e.value;
  }
  return q;
}

double Ctmc::max_exit_rate() const noexcept {
  double best = 0.0;
  for (double d : diag_) best = std::max(best, -d);
  return best;
}

std::optional<std::string> Ctmc::validate(double tol) const {
  for (std::size_t r = 0; r < state_count(); ++r) {
    double row_sum = diag_[r];
    for (const auto& e : csr_.row(r)) {
      if (e.value < 0) {
        return "negative off-diagonal rate at (" + std::to_string(r) + "," +
               std::to_string(e.col) + ")";
      }
      row_sum += e.value;
    }
    if (std::fabs(row_sum) > tol) {
      return "row " + std::to_string(r) + " sums to " + std::to_string(row_sum);
    }
  }
  return std::nullopt;
}

bool Ctmc::irreducible() const {
  const std::size_t n = state_count();
  if (n == 0) return false;
  const auto reach = [n](auto&& neighbours) {
    std::vector<bool> seen(n, false);
    std::deque<std::size_t> queue{0};
    seen[0] = true;
    while (!queue.empty()) {
      const std::size_t s = queue.front();
      queue.pop_front();
      for (const auto& e : neighbours(s)) {
        if (e.value > 0 && !seen[e.col]) {
          seen[e.col] = true;
          queue.push_back(e.col);
        }
      }
    }
    return seen;
  };
  const auto fwd = reach([&](std::size_t s) { return csr_.row(s); });
  const auto bwd = reach([&](std::size_t s) { return csr_transposed_.row(s); });
  for (std::size_t s = 0; s < n; ++s) {
    if (!fwd[s] || !bwd[s]) return false;
  }
  return true;
}

std::optional<Vector> Ctmc::steady_state() const {
  const std::size_t n = state_count();
  if (n == 0) return std::nullopt;
  if (n == 1) return Vector{1.0};
  if (!irreducible()) return std::nullopt;
  obs::Span span("ctmc.steady_state", "ctmc");
  ctmc_metrics().steady_solves.inc();
  ctmc_metrics().solver_iterations.inc(n - 1);  // GTH censoring steps

  auto result = steady_state_banded_gth(csr_);
  if (!result.ok()) return std::nullopt;
  return std::move(result.pi);
}

std::optional<Vector> Ctmc::steady_state_dense() const {
  const std::size_t n = state_count();
  if (n == 0) return std::nullopt;
  if (n == 1) return Vector{1.0};
  if (!irreducible()) return std::nullopt;
  obs::Span span("ctmc.steady_state_dense", "ctmc");
  ctmc_metrics().steady_solves.inc();
  ctmc_metrics().solver_iterations.inc(n - 1);  // GTH censoring steps

  // GTH (Grassmann-Taksar-Heyman): censor states from the top down using
  // only additions/divisions of non-negative quantities, then back-fill.
  Matrix a = generator();  // we only use off-diagonal entries of a
  for (std::size_t k = n - 1; k >= 1; --k) {
    double s = 0.0;
    for (std::size_t j = 0; j < k; ++j) s += a(k, j);
    if (s <= 0.0) return std::nullopt;  // not reachable given irreducibility
    for (std::size_t i = 0; i < k; ++i) a(i, k) /= s;
    for (std::size_t i = 0; i < k; ++i) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < k; ++j) {
        if (i != j) a(i, j) += aik * a(k, j);
      }
    }
  }

  Vector pi(n, 0.0);
  pi[0] = 1.0;
  for (std::size_t k = 1; k < n; ++k) {
    double acc = 0.0;
    for (std::size_t i = 0; i < k; ++i) acc += pi[i] * a(i, k);
    pi[k] = acc;
  }
  const double total = linalg::l1_norm(pi);
  linalg::scale(pi, 1.0 / total);
  return pi;
}

Vector Ctmc::apply_generator(const Vector& v) const {
  const std::size_t n = state_count();
  if (v.size() != n) throw std::invalid_argument("apply_generator: size mismatch");
  ctmc_metrics().spmv_count.inc();
  Vector y(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double vi = v[i];
    if (vi == 0.0) continue;
    for (const auto& e : csr_.row(i)) y[e.col] += vi * e.value;
    y[i] += vi * diag_[i];
  }
  return y;
}

Vector Ctmc::transient_step(const Vector& pi0, double dt, double eps) const {
  const std::size_t n = state_count();
  if (pi0.size() != n) throw std::invalid_argument("transient_step: size mismatch");
  if (dt <= 0) return pi0;

  // Uniformization: P = I + Q/Lambda, pi(t) = sum_k Pois(Lambda t; k) pi0 P^k.
  // Split large horizons so Lambda*step stays modest (weights stay in
  // range and truncation depth stays small).
  const double lambda = std::max(max_exit_rate(), 1e-12);
  const double max_step = 32.0 / lambda;
  if (dt > max_step) {
    Vector pi = pi0;
    double remaining = dt;
    while (remaining > 1e-15) {
      const double step = std::min(remaining, max_step);
      pi = transient_step(pi, step, eps);
      remaining -= step;
    }
    return pi;
  }

  const double lt = lambda * dt;
  Vector v = pi0;                 // pi0 P^k
  Vector result(n, 0.0);
  double weight = std::exp(-lt);  // Pois(lt; 0)
  double cumulative = weight;
  linalg::axpy(weight, v, result);
  // Generous truncation bound; loop exits when the Poisson tail < eps.
  const std::size_t k_max = static_cast<std::size_t>(lt + 16.0 * std::sqrt(lt + 1.0) + 64.0);
  std::size_t terms = 0;
  for (std::size_t k = 1; k <= k_max && 1.0 - cumulative > eps; ++k) {
    // v <- v P = v + (v Q)/Lambda, assembled sparsely.
    Vector vq = apply_generator(v);
    linalg::axpy(1.0 / lambda, vq, v);
    weight *= lt / static_cast<double>(k);
    cumulative += weight;
    linalg::axpy(weight, v, result);
    ++terms;
  }
  ctmc_metrics().transient_steps.inc();
  ctmc_metrics().solver_iterations.inc(terms);  // uniformization terms
  // Renormalise away the truncated tail mass.
  const double total = linalg::l1_norm(result);
  if (total > 0) linalg::scale(result, 1.0 / total);
  return result;
}

std::vector<Vector> Ctmc::transient_series(const Vector& pi0,
                                           const std::vector<double>& times,
                                           double eps) const {
  std::vector<Vector> result;
  result.reserve(times.size());
  Vector pi = pi0;
  double now = 0.0;
  for (double t : times) {
    if (t < now) throw std::invalid_argument("transient_series: times must ascend");
    pi = transient_step(pi, t - now, eps);
    now = t;
    result.push_back(pi);
  }
  return result;
}

Ctmc::TransientAccumulation Ctmc::accumulate(const Vector& pi0, double t,
                                             double dt_max) const {
  TransientAccumulation acc{pi0, Vector(state_count(), 0.0)};
  if (t <= 0) return acc;
  const auto steps = static_cast<std::size_t>(std::ceil(t / dt_max));
  const double dt = t / static_cast<double>(steps);
  for (std::size_t i = 0; i < steps; ++i) {
    Vector next = transient_step(acc.pi, dt);
    for (std::size_t s = 0; s < state_count(); ++s) {
      acc.l[s] += 0.5 * (acc.pi[s] + next[s]) * dt;
    }
    acc.pi = std::move(next);
  }
  return acc;
}

Ctmc::TransientAccumulation Ctmc::accumulate_rk4(const Vector& pi0, double t,
                                                 double dt) const {
  // Integrates the augmented system y = [pi, l], y' = [pi Q, pi].
  const std::size_t n = state_count();
  TransientAccumulation acc{pi0, Vector(n, 0.0)};
  if (t <= 0) return acc;
  const auto steps = static_cast<std::size_t>(std::ceil(t / dt));
  const double h = t / static_cast<double>(steps);

  auto deriv = [&](const Vector& pi) { return apply_generator(pi); };

  for (std::size_t i = 0; i < steps; ++i) {
    const Vector k1 = deriv(acc.pi);
    Vector p2 = acc.pi;
    linalg::axpy(h / 2, k1, p2);
    const Vector k2 = deriv(p2);
    Vector p3 = acc.pi;
    linalg::axpy(h / 2, k2, p3);
    const Vector k3 = deriv(p3);
    Vector p4 = acc.pi;
    linalg::axpy(h, k3, p4);
    const Vector k4 = deriv(p4);

    // l' = pi, so integrate pi with the same RK4 stage combination.
    for (std::size_t s = 0; s < n; ++s) {
      acc.l[s] += h / 6.0 *
                  (acc.pi[s] + 2.0 * p2[s] + 2.0 * p3[s] + p4[s]);
      acc.pi[s] += h / 6.0 * (k1[s] + 2.0 * k2[s] + 2.0 * k3[s] + k4[s]);
    }
  }
  return acc;
}

namespace {

/// Backward reachability + the row-leak test shared by the sparse and
/// dense hitting-time paths: which states can reach the target, and of
/// those non-targets, which rows never leak into unreachable states.
struct HittingSupport {
  std::vector<bool> can_reach;
  std::vector<std::size_t> states;  // rows of the restricted system
  std::vector<std::size_t> index;   // state -> position in `states`
};

constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

}  // namespace

std::optional<Vector> Ctmc::expected_hitting_time(
    const std::vector<bool>& target) const {
  const std::size_t n = state_count();
  if (target.size() != n) {
    throw std::invalid_argument("expected_hitting_time: size mismatch");
  }

  // States that can reach the target at all: BFS from the target set
  // along in-edges (the transposed CSR); the rest get +infinity.
  HittingSupport support;
  support.can_reach.assign(target.begin(), target.end());
  std::deque<std::size_t> queue;
  for (std::size_t s = 0; s < n; ++s) {
    if (target[s]) queue.push_back(s);
  }
  while (!queue.empty()) {
    const std::size_t t = queue.front();
    queue.pop_front();
    for (const auto& e : csr_transposed_.row(t)) {
      if (e.value > 0 && !support.can_reach[e.col]) {
        support.can_reach[e.col] = true;
        queue.push_back(e.col);
      }
    }
  }

  // Solve over the non-target states that can reach the target:
  // sum_j q_ij h_j = -1 with h fixed to 0 on targets and the
  // infinite-states' columns dropped (their probability mass never
  // returns, which would make the expectation infinite -- we therefore
  // require, row by row, that no transition leads to an unreachable
  // state; otherwise that row's time is infinite too).
  support.index.assign(n, kNoIndex);
  for (std::size_t s = 0; s < n; ++s) {
    if (target[s] || !support.can_reach[s]) continue;
    bool leaks = false;
    for (const auto& e : csr_.row(s)) {
      if (e.value > 0 && !support.can_reach[e.col]) leaks = true;
    }
    if (!leaks) {
      support.index[s] = support.states.size();
      support.states.push_back(s);
    }
  }

  const std::size_t m = support.states.size();
  std::optional<Vector> h;
  if (m > 0) {
    Vector b(m, -1.0);
    h = solve_restricted_generator(csr_, diag_, support.states, b);
    if (!h) return std::nullopt;
  }

  Vector result(n, std::numeric_limits<double>::infinity());
  for (std::size_t s = 0; s < n; ++s) {
    if (target[s]) {
      result[s] = 0.0;
    } else if (support.index[s] != kNoIndex) {
      result[s] = (*h)[support.index[s]];
    }
  }
  return result;
}

std::optional<Vector> Ctmc::expected_hitting_time_dense(
    const std::vector<bool>& target) const {
  const std::size_t n = state_count();
  if (target.size() != n) {
    throw std::invalid_argument("expected_hitting_time_dense: size mismatch");
  }
  const Matrix q = generator();

  std::vector<bool> can_reach = target;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t s = 0; s < n; ++s) {
      if (can_reach[s]) continue;
      for (std::size_t t = 0; t < n; ++t) {
        if (s != t && q(s, t) > 0 && can_reach[t]) {
          can_reach[s] = true;
          changed = true;
          break;
        }
      }
    }
  }

  std::vector<std::size_t> index(n, kNoIndex);
  std::vector<std::size_t> states;
  for (std::size_t s = 0; s < n; ++s) {
    if (!target[s] && can_reach[s]) {
      bool leaks = false;
      for (std::size_t t = 0; t < n; ++t) {
        if (s != t && q(s, t) > 0 && !can_reach[t]) leaks = true;
      }
      if (!leaks) {
        index[s] = states.size();
        states.push_back(s);
      }
    }
  }

  const std::size_t m = states.size();
  Matrix a(m, m);
  Vector b(m, -1.0);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < m; ++c) {
      a(r, c) = q(states[r], states[c]);
    }
  }
  std::optional<Vector> h;
  if (m > 0) {
    h = linalg::solve_linear(a, b);
    if (!h) return std::nullopt;
  }

  Vector result(n, std::numeric_limits<double>::infinity());
  for (std::size_t s = 0; s < n; ++s) {
    if (target[s]) {
      result[s] = 0.0;
    } else if (index[s] != kNoIndex) {
      result[s] = (*h)[index[s]];
    }
  }
  return result;
}

double expected_reward(const Vector& pi, const Vector& reward) {
  return linalg::dot(pi, reward);
}

}  // namespace selfheal::ctmc
