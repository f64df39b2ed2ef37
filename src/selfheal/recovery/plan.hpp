// Recovery plans: the output of the recovery analyzer (Theorems 1-3).
//
// A plan names the tasks that must be undone / redone, the *candidate*
// tasks whose fate depends on re-executed branch decisions (Theorem 1
// conditions 2 and 4; Theorem 2 condition 2), and the partial-order
// constraints (Theorem 3) the scheduler must respect.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "selfheal/engine/system_log.hpp"

namespace selfheal::recovery {

using engine::InstanceId;

enum class ActionType : std::uint8_t { kUndo, kRedo };

[[nodiscard]] const char* to_string(ActionType type);

/// A task whose undo is conditional on a branch redo's outcome.
struct CandidateUndo {
  InstanceId instance = engine::kInvalidInstance;
  /// The damaged branch instance whose redo decides this candidate.
  InstanceId guard_branch = engine::kInvalidInstance;
  /// Which Theorem 1 condition raised it: 2 (off the re-executed path)
  /// or 4 (reads from a task that joins the re-executed path).
  int condition = 2;

  bool operator==(const CandidateUndo&) const = default;
};

/// A damaged task whose redo is conditional (Theorem 2 condition 2):
/// redo only if still on the re-executed path of `guard_branch`.
struct CandidateRedo {
  InstanceId instance = engine::kInvalidInstance;
  InstanceId guard_branch = engine::kInvalidInstance;

  bool operator==(const CandidateRedo&) const = default;
};

/// One Theorem 3 partial-order constraint, labelled with its rule number.
struct OrderConstraint {
  ActionType before_type = ActionType::kUndo;
  InstanceId before = engine::kInvalidInstance;
  ActionType after_type = ActionType::kRedo;
  InstanceId after = engine::kInvalidInstance;
  int rule = 0;

  bool operator==(const OrderConstraint&) const = default;
};

struct RecoveryPlan {
  /// B as reported by the IDS (malicious instances).
  std::vector<InstanceId> malicious;

  /// Theorem 1 conditions 1 + 3: malicious instances and the forward
  /// flow-dependence closure of their corruption. All must be undone.
  /// Sorted by id.
  std::vector<InstanceId> damaged;

  /// Theorem 1 conditions 2 / 4 (resolved by the scheduler).
  std::vector<CandidateUndo> candidate_undos;

  /// Theorem 2 condition 1: damaged instances not control-dependent on
  /// any other damaged instance. Always redone.
  std::vector<InstanceId> definite_redos;

  /// Theorem 2 condition 2 (resolved by the scheduler).
  std::vector<CandidateRedo> candidate_redos;

  /// Theorem 3 constraints over the planned actions (rules 1-5 are
  /// static; rules 6-10 involve candidates and are recorded by the
  /// scheduler as it resolves them).
  std::vector<OrderConstraint> constraints;

  /// Damaged branch instances whose redo may change the execution path.
  std::vector<InstanceId> damaged_branches;

  /// Field-by-field equality: the incremental-vs-rebuild property tests
  /// assert plans are identical whichever way the graph was maintained.
  bool operator==(const RecoveryPlan&) const = default;

  [[nodiscard]] bool is_damaged(InstanceId id) const;

  /// Empties every field but keeps the buffers, so a plan can be
  /// analyzed into again without allocating.
  void clear();

  /// Multi-line human-readable description (task names resolved through
  /// the log and per-run specs).
  [[nodiscard]] std::string describe(
      const engine::SystemLog& log,
      const std::vector<const wfspec::WorkflowSpec*>& spec_of_run) const;

  /// Graphviz rendering: one node per planned undo/redo action (dashed
  /// for candidates), one edge per Theorem 3 constraint labelled with
  /// its rule number.
  [[nodiscard]] std::string to_dot(
      const engine::SystemLog& log,
      const std::vector<const wfspec::WorkflowSpec*>& spec_of_run) const;
};

}  // namespace selfheal::recovery
