// Sparse steady-state and linear solvers over CSR generators.
//
// steady_state_banded_gth is the direct steady-state path (see
// DESIGN.md "Sparse CTMC kernels & parallel sweeps"). The Fig. 3 / MMPP
// chains are lattices, so under a reverse Cuthill-McKee ordering their
// generators are banded with half-bandwidth beta ~ sqrt(n); GTH
// censoring only ever writes inside the band, so the full
// subtraction-free elimination costs O(n * beta^2) flops and
// O(n * beta) memory instead of dense O(n^3) / O(n^2). It inherits
// dense GTH's exactness: no convergence parameter at all, which matters
// because the paper's bistable configurations are metastable
// (Gauss-Seidel needs >1e6 sweeps and still stalls at 1e-4 error on the
// Fig. 4 inv/inv buffers).
//
// solve_restricted_generator backs expected hitting times: the
// generator restricted to non-target states is a (negated) nonsingular
// M-matrix, so banded LU without pivoting is stable and keeps the same
// O(n * beta^2) cost.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "selfheal/linalg/matrix.hpp"
#include "selfheal/linalg/sparse.hpp"

namespace selfheal::ctmc {

using linalg::CsrMatrix;
using linalg::Vector;

enum class SteadyStateError {
  kNone = 0,
  kEmptyChain,  // no states
  kReducible,   // censoring hit an unreachable block / zero pivot sum
};

struct SteadyStateResult {
  /// Normalized stationary distribution; present iff error is kNone.
  std::optional<Vector> pi;
  SteadyStateError error = SteadyStateError::kNone;
  /// Censoring steps (banded GTH).
  std::size_t iterations = 0;
  /// max_j |(pi Q)_j| at exit; 0 is not claimed by the direct solvers.
  double residual = 0.0;

  [[nodiscard]] bool ok() const noexcept { return error == SteadyStateError::kNone; }
};

/// Direct sparse steady state: RCM reordering + banded GTH elimination.
/// `offdiag` holds the off-diagonal rates q_ij (i != j, >= 0); the
/// diagonal is implied by row sums. Exact up to roundoff; no tuning.
[[nodiscard]] SteadyStateResult steady_state_banded_gth(const CsrMatrix& offdiag);

/// Solves (Q restricted to `states`) h = b, where `states` lists the
/// retained state indices ascending and b/h are indexed like `states`.
/// Uses RCM + banded LU without pivoting (stable: the restricted
/// generator is a negated M-matrix). nullopt if a pivot vanishes.
[[nodiscard]] std::optional<Vector> solve_restricted_generator(
    const CsrMatrix& offdiag, const Vector& diag,
    const std::vector<std::size_t>& states, const Vector& b);

}  // namespace selfheal::ctmc
