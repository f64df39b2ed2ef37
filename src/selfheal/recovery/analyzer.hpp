// The recovery analyzer (Figure 2): turns IDS-reported malicious tasks
// into a recovery plan, per Theorems 1-3.
//
//   Theorem 1 (undo):
//     c1  t in B;
//     c2  t control-dependent on a damaged branch and possibly off the
//         re-executed path                      -> candidate undo;
//     c3  t flow-dependent (transitively) on a damaged task -> undo;
//     c4  t flow-dependent on an unexecuted task that may join the
//         re-executed path                      -> candidate undo.
//   Theorem 2 (redo):
//     c1  damaged and not control-dependent on any damaged task -> redo;
//     c2  damaged and control-dependent on a damaged branch
//                                               -> candidate redo.
//   Theorem 3: partial orders among recovery tasks (rules 1-5 static).
#pragma once

#include <optional>
#include <vector>

#include "selfheal/deps/dependency.hpp"
#include "selfheal/engine/engine.hpp"
#include "selfheal/recovery/plan.hpp"
#include "selfheal/util/epoch_map.hpp"

namespace selfheal::recovery {

class RecoveryAnalyzer {
 public:
  /// The analyzer reads the engine's log and per-run specs; the
  /// dependency graph is built over the log's effective execution.
  explicit RecoveryAnalyzer(const engine::Engine& engine);

  /// Borrows an externally maintained (incremental) dependence graph
  /// instead of rebuilding one -- the controller's steady-state path.
  /// `deps` must be synced to the engine's current log (refresh()ed) and
  /// must outlive the analyzer.
  RecoveryAnalyzer(const engine::Engine& engine,
                   const deps::DependencyAnalyzer& deps);

  /// Computes the recovery plan for the reported malicious set B.
  /// Instances in B must be original entries. `work_units` (optional
  /// out-param style accessor below) counts dependence checks performed,
  /// the paper's mu_k cost driver.
  [[nodiscard]] RecoveryPlan analyze(const std::vector<InstanceId>& malicious) const;

  /// The same, into `plan` (cleared first). A caller that analyzes alert
  /// after alert hands back spent plans, so their buffers are reused.
  void analyze(const std::vector<InstanceId>& malicious, RecoveryPlan& plan) const;

  /// Dependence checks performed by the last analyze() call.
  [[nodiscard]] std::size_t last_work_units() const noexcept { return work_units_; }

  [[nodiscard]] const deps::DependencyAnalyzer& deps() const noexcept { return *deps_; }

 private:
  const engine::Engine& engine_;
  const std::vector<const wfspec::WorkflowSpec*>& specs_;
  /// Owned graph when default-constructed from the engine; empty when a
  /// long-lived incremental graph is borrowed.
  std::optional<deps::DependencyAnalyzer> owned_deps_;
  const deps::DependencyAnalyzer* deps_ = nullptr;
  mutable std::size_t work_units_ = 0;

  // Scratch reused by every analyze() of this analyzer: the damaged and
  // candidate-undo sets (instance id -> membership bits) and closure
  // buffers. analyze() is not safe for concurrent use.
  mutable util::EpochMap marks_;
  mutable std::vector<InstanceId> controlled_;
  mutable std::vector<InstanceId> closure_;
  mutable std::vector<InstanceId> direct_;
  mutable std::vector<deps::DependencyAnalyzer::EdgeIndex> incident_;
};

}  // namespace selfheal::recovery
