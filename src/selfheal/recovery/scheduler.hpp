// The recovery scheduler (Figure 2): executes a recovery plan.
//
// Strategy (Section III.D "strict correctness"): the scheduler commits
// recovery actions so that, afterwards, the system state equals a benign
// execution over the SAME commit schedule (the logical slots of the
// attacked execution). It works in three phases:
//
//  1. UNDO: every damaged instance (Theorem 1 c1+c3) is undone in
//     reverse slot order; version restoration skips versions written by
//     already-undone writers, realising Theorem 3 rule 5's intent.
//  2. REPLAY: the runs are walked in logical-slot order against a clean
//     timeline. At each slot the recorded execution is REUSED if it is
//     benign, not undone, and its recorded reads match the clean
//     timeline -- otherwise it is undone (if needed) and REDONE
//     (Theorem 2), re-deciding branches. When a branch redo diverges
//     (Theorem 1 c2), the not-yet-visited entries of that run are undone
//     immediately (Theorem 3 rule 8); entries on the re-chosen path that
//     never executed run FRESH (Theorem 1 c4 staleness is then caught by
//     the reads-match test downstream). Because replay advances the run
//     with the smallest next slot and redos/freshes read clean values,
//     the *intent* of Theorem 3 rules 1-4 holds by construction.
//
//     The replay visits only the DAMAGE CONE; every other step is reused
//     without a visit. A step is visited when it is a seed (the live
//     execution of a damaged triple, a live malicious entry, or a step
//     at or above the engine's unvalidated-read floor), when its
//     run diverged earlier in the round, or when it reads an object a
//     visited step changed (a new value, a removed write, or a fresh
//     write) before the object's next recorded writer. Clean values are
//     this round's overlay if it has one, else the value of the object's
//     last recorded writer before the slot -- both found through the
//     dependence index, never by replaying a prefix. Commits, outcome
//     fields and bytes equal those of a full sweep over every run (the
//     reference kept in tests/support); only `work_units` is smaller.
//  3. RECONCILE: any object the round wrote or restored whose store
//     value still differs from the clean timeline (possible when a redo's
//     write is masked by a later reused blind write) gets one kRepair
//     correction, guaranteeing Definition 2's completeness.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "selfheal/deps/dependency.hpp"
#include "selfheal/engine/engine.hpp"
#include "selfheal/recovery/plan.hpp"

namespace selfheal::recovery {

struct RecoveryOutcome {
  /// All recovery entries committed, in commit order.
  std::vector<InstanceId> action_entries;
  /// Execution entries undone / redone (by their pre-recovery ids).
  std::vector<InstanceId> undone;
  std::vector<InstanceId> redone;
  /// Undone and NOT re-executed: tasks that fell off the repaired path
  /// (the paper's t3/t4 -- undone yet not redone).
  std::vector<InstanceId> orphaned;
  /// kFresh entries: tasks that joined the repaired path (paper's t5).
  std::vector<InstanceId> fresh_entries;
  std::vector<InstanceId> repair_entries;
  std::size_t reused = 0;       // instances kept without re-execution
  std::size_t divergences = 0;  // branch redos that changed the path
  std::size_t work_units = 0;   // cost proxy: checks + executions
  /// Wall-clock split of execute() by phase: the undo cascade, the cone
  /// replay and the reconcile pass.
  double undo_ms = 0.0;
  double replay_ms = 0.0;
  double reconcile_ms = 0.0;
  /// Dynamically resolved Theorem 3 constraints (rules 8 and 10).
  std::vector<OrderConstraint> resolved;

  [[nodiscard]] bool was_undone(InstanceId id) const;
  [[nodiscard]] bool was_redone(InstanceId id) const;

  /// Back to a default-constructed outcome, keeping the vectors'
  /// capacity (a scheduler reuses one outcome across rounds).
  void reset();

  /// Deterministic digest of every order-sensitive field (action sets in
  /// commit order, resolved constraints, counters). Timing and the
  /// work_units cost proxy are excluded: two executors that commit the
  /// same actions have the same signature.
  [[nodiscard]] std::string signature() const;
};

struct SchedulerOptions {
  /// When true (default -- the strict and multi-version strategies of
  /// Section III.D), re-executions read the clean replay timeline, so
  /// recovery tasks can never be corrupted. When false (the paper's
  /// "obtain concurrency while taking risks of corrupting tasks"
  /// strategy), redos read the live store -- concurrent writes can
  /// corrupt them, requiring further recovery rounds, and the paper
  /// notes termination is no longer guaranteed.
  bool clean_reads = true;
};

/// A scheduler owns the working state of its cone rounds (the per-round
/// undone/visited flags, the per-object overlay, the run walks, the
/// pending queue and the outcome). It is allocated on the first
/// execute() and each later round resets it by epoch instead of
/// rebuilding it, so a scheduler kept for many rounds -- the
/// controller's -- runs steady-state rounds without allocating.
class RecoveryScheduler {
 public:
  /// Builds a dependence index over the engine's log for each plan.
  explicit RecoveryScheduler(engine::Engine& engine, SchedulerOptions options = {});

  /// Borrows a long-lived dependence index (the controller's) and
  /// refresh()es it before each plan -- O(entries since the last sync).
  /// `deps` must outlive the scheduler.
  RecoveryScheduler(engine::Engine& engine, deps::DependencyAnalyzer& deps,
                    SchedulerOptions options = {});

  ~RecoveryScheduler();

  /// Executes the plan to completion. Runs still in flight are resynced
  /// onto their repaired paths (engine cursors updated). The outcome
  /// lives in the scheduler until its next execute().
  const RecoveryOutcome& execute(const RecoveryPlan& plan);

  /// The cone rounds' working state (defined in scheduler.cpp).
  struct Scratch;

 private:
  engine::Engine* engine_;
  deps::DependencyAnalyzer* deps_ = nullptr;
  SchedulerOptions options_;
  std::unique_ptr<Scratch> scratch_;
};

}  // namespace selfheal::recovery
