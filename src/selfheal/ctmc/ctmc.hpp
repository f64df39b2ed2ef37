// Finite-state Continuous-Time Markov Chains.
//
// A CTMC is characterised by its generator matrix Q = (q_ij) where q_ij
// (i != j) is the transition rate i -> j and q_ii = -sum_{j!=i} q_ij
// (paper, Section IV.E). A chain is immutable and sparse: from_triplets
// seals the off-diagonal rates into a CSR (the Fig. 3 / MMPP graphs have
// ~4 edges per state), its transpose (the in-edges) and the diagonal,
// once. This module provides:
//   * steady state  pi Q = 0, sum pi = 1   (Equation 1) via banded GTH
//     over an RCM ordering (exact, O(n * bandwidth^2)); dense GTH
//     survives as the parity reference;
//   * transient solution d/dt pi(t) = pi(t) Q  (Equation 2) via sparse
//     uniformization with adaptive truncation -- the dense generator is
//     never formed;
//   * cumulative time per state d/dt l(t) = l(t) Q + pi(0)  (Equation 3),
//     i.e. l(t) = integral of pi(s) ds, via fine-step quadrature over the
//     uniformized trajectory (an RK4 integrator is the parity reference).
//
// Thread-safety: every const member reads only what from_triplets
// built, so one const chain may be shared by any number of threads.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "selfheal/linalg/matrix.hpp"
#include "selfheal/linalg/sparse.hpp"

namespace selfheal::ctmc {

using linalg::CsrMatrix;
using linalg::Matrix;
using linalg::Triplet;
using linalg::Vector;

/// A CTMC over states 0..n-1 with named states and generator Q.
class Ctmc {
 public:
  /// The only constructor: off-diagonal (from, to, rate) triplets;
  /// duplicate edges are summed, zero rates dropped. Rates must be
  /// finite and >= 0, and from != to (std::invalid_argument otherwise;
  /// std::out_of_range for a state >= state_count). The diagonal is
  /// derived from row sums. States are named "s0", "s1", ...
  [[nodiscard]] static Ctmc from_triplets(std::size_t state_count,
                                          const std::vector<Triplet>& triplets);

  /// q_ij, read off the CSR; the diagonal for from == to.
  [[nodiscard]] double rate(std::size_t from, std::size_t to) const;

  void set_state_name(std::size_t s, std::string name);
  [[nodiscard]] const std::string& state_name(std::size_t s) const;

  [[nodiscard]] std::size_t state_count() const noexcept { return names_.size(); }
  [[nodiscard]] std::size_t nnz() const noexcept { return csr_.nnz(); }

  /// Outgoing off-diagonal transitions of a state, sorted by target.
  [[nodiscard]] std::span<const CsrMatrix::Entry> transitions_from(std::size_t s) const;

  /// Off-diagonal CSR (rates, row = source state).
  [[nodiscard]] const CsrMatrix& sparse() const noexcept { return csr_; }

  /// Dense generator, built on each call (and counted by the
  /// ctmc.dense_fallbacks metric): the solvers never call this; only
  /// tests and the *_dense parity references do.
  [[nodiscard]] Matrix generator() const;

  /// Largest exit rate max_i |q_ii| (the uniformization constant floor).
  [[nodiscard]] double max_exit_rate() const noexcept;

  /// Verifies the generator invariants (rows sum to ~0, off-diagonals
  /// >= 0); returns a human-readable problem or nullopt if OK.
  [[nodiscard]] std::optional<std::string> validate(double tol = 1e-9) const;

  /// True iff the chain is irreducible (single strongly-communicating
  /// class under edges with positive rate). O(nnz) BFS both ways.
  [[nodiscard]] bool irreducible() const;

  /// Stationary distribution via sparse banded GTH (exact; requires
  /// irreducibility; nullopt otherwise).
  [[nodiscard]] std::optional<Vector> steady_state() const;

  /// Dense GTH -- the pre-sparse implementation, kept as the parity
  /// reference. O(n^3); avoid beyond a few thousand states.
  [[nodiscard]] std::optional<Vector> steady_state_dense() const;

  /// pi(t0 + dt) from pi(t0) via sparse uniformization; truncation
  /// error <= eps.
  [[nodiscard]] Vector transient_step(const Vector& pi0, double dt,
                                      double eps = 1e-12) const;

  /// pi(t) sampled at the given (ascending, >= 0) time points.
  [[nodiscard]] std::vector<Vector> transient_series(
      const Vector& pi0, const std::vector<double>& times,
      double eps = 1e-12) const;

  /// Result of integrating the chain to a horizon.
  struct TransientAccumulation {
    Vector pi;  // pi(t)
    Vector l;   // cumulative time per state, l(t) = integral pi
  };

  /// pi(t) and l(t) with quadrature step `dt_max` (trapezoid over
  /// uniformized sub-steps; error O(dt^2) and dt defaults keep it far
  /// below plotting resolution).
  [[nodiscard]] TransientAccumulation accumulate(const Vector& pi0, double t,
                                                 double dt_max = 1e-3) const;

  /// RK4 integrator for Equations 2+3 (the parity reference).
  [[nodiscard]] TransientAccumulation accumulate_rk4(const Vector& pi0, double t,
                                                     double dt = 1e-4) const;

  /// Expected first-passage (hitting) time from each state into the
  /// target set: h_i = 0 for targets, and -sum_j q_ij h_j = 1 elsewhere.
  /// Entries are +infinity for states that cannot reach the target;
  /// nullopt if the restricted system is singular. Solved sparsely
  /// (RCM + banded LU). Answers questions like "starting from NORMAL,
  /// how long until the first alert is lost?" exactly, where transient
  /// probing only brackets them.
  [[nodiscard]] std::optional<Vector> expected_hitting_time(
      const std::vector<bool>& target) const;

  /// Dense-LU expected_hitting_time (the parity reference).
  [[nodiscard]] std::optional<Vector> expected_hitting_time_dense(
      const std::vector<bool>& target) const;

 private:
  Ctmc() = default;

  /// y = v Q without forming Q: CSR scatter plus the diagonal term.
  [[nodiscard]] Vector apply_generator(const Vector& v) const;

  CsrMatrix csr_;             // off-diagonal rates, rows sorted by target
  CsrMatrix csr_transposed_;  // the same edges by target: in-edges
  Vector diag_;
  std::vector<std::string> names_;
};

/// Expected value of `reward` under distribution pi: sum_i pi_i r_i.
[[nodiscard]] double expected_reward(const Vector& pi, const Vector& reward);

}  // namespace selfheal::ctmc
