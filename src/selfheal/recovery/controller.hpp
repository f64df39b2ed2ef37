// The self-healing controller: the paper's Figure 2 architecture.
//
//   IDS alerts -> [alert queue] -> recovery analyzer -> [recovery task
//   queue] -> scheduler -> workflow engine
//
// and the Figure 3 state machine over it:
//   * NORMAL   -- both queues empty; normal tasks execute freely;
//   * SCAN     -- alerts queued; the analyzer turns each alert into one
//     unit of recovery tasks (a RecoveryPlan). Recovery tasks are NOT
//     executed in SCAN (a new alert could mark data an in-flight redo is
//     about to read);
//   * RECOVERY -- alert queue empty, units queued; the scheduler executes
//     them.
//
// Theorem 4 (strict correctness for normal tasks): new workflow runs
// submitted while the system is not NORMAL are held in a pending queue
// and released when recovery completes.
//
// The controller also measures the analyzer/scheduler cost per queue
// length -- the empirical mu_k and xi_k that Section VI's design
// guidelines need as inputs.
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "selfheal/deps/dependency.hpp"
#include "selfheal/engine/engine.hpp"
#include "selfheal/ids/ids.hpp"
#include "selfheal/recovery/analyzer.hpp"
#include "selfheal/recovery/scheduler.hpp"
#include "selfheal/util/stats.hpp"

namespace selfheal::recovery {

enum class SystemState { kNormal, kScan, kRecovery };

[[nodiscard]] const char* to_string(SystemState state);

/// Section III.D's recovery strategies.
enum class ConcurrencyStrategy {
  /// Strict correctness (the paper's choice): normal tasks submitted
  /// during SCAN/RECOVERY are deferred until recovery completes.
  kStrict,
  /// "Obtain concurrency while taking risks of corrupting tasks":
  /// normal tasks run immediately AND recovery re-executions read the
  /// live store, so both can be corrupted; more recovery rounds follow
  /// and termination is no longer guaranteed.
  kRisky,
  /// "Obtain concurrency while taking risks of corrupting only normal
  /// tasks": the versioned store supplies recovery with pre-attack
  /// versions (clean replay reads), so recovery stays correct; normal
  /// tasks run unblocked and any damage they pick up is repaired by
  /// later rounds. (The strategy the paper defers to another paper.)
  kMultiVersion,
};

[[nodiscard]] const char* to_string(ConcurrencyStrategy strategy);

/// How Theorem 4 blocking is applied under the strict strategy.
enum class BlockingGranularity {
  /// Whole runs submitted during SCAN/RECOVERY wait until NORMAL.
  kWholeRun,
  /// During RECOVERY (damage fully analyzed, so the dirty set is known),
  /// a new run executes task by task and parks only when its next task
  /// touches an object the queued recovery units will repair -- exactly
  /// the dependence conditions of Theorem 4. During SCAN everything
  /// still waits: the dirty set is not known yet (Section III.C).
  kPerTask,
};

/// Watches every recovery unit a controller executes (borrowed; must
/// outlive the controller). Differential tests use it to run a reference
/// executor on a copy of the engine and compare the results.
class RecoveryObserver {
 public:
  virtual ~RecoveryObserver() = default;
  /// Fired just before `plan` executes on `engine`.
  virtual void before_recovery(const engine::Engine& engine, const RecoveryPlan& plan,
                               const SchedulerOptions& options) = 0;
  /// Fired right after it executed.
  virtual void after_recovery(const engine::Engine& engine, const RecoveryPlan& plan,
                              const RecoveryOutcome& outcome) = 0;
};

struct ControllerConfig {
  std::size_t alert_buffer = 15;     // alerts queued at most (rest lost)
  std::size_t recovery_buffer = 15;  // recovery units queued at most
  ConcurrencyStrategy strategy = ConcurrencyStrategy::kStrict;
  BlockingGranularity granularity = BlockingGranularity::kWholeRun;
  /// Optional observer of every recovery execution (see above).
  RecoveryObserver* recovery_observer = nullptr;
};

struct ControllerStats {
  std::size_t alerts_received = 0;
  std::size_t alerts_lost = 0;         // dropped: alert queue full
  std::size_t alerts_blocked = 0;      // analyzer blocked: recovery queue full
  std::size_t scans = 0;               // alerts analyzed
  std::size_t recoveries = 0;          // units executed
  std::size_t scan_work = 0;           // total analyzer work units
  std::size_t recovery_work = 0;       // total scheduler work units
  std::size_t runs_deferred = 0;       // Theorem 4 whole-run deferrals
  std::size_t runs_parked = 0;         // Theorem 4 per-task blocks
  std::size_t tasks_before_park = 0;   // tasks executed before parking
  /// Wall microseconds from popping an alert to its recovery
  /// unit being queued: dependence-graph sync + analysis. The streaming
  /// taint layer exists to keep this O(frontier) under storm load. The
  /// histogram carries the same samples so per-controller (per-tenant)
  /// percentiles are readable without a global registry query.
  util::RunningStats alert_to_plan_us;
  util::Histogram alert_to_plan_hist{0.0, 5000.0, 64};
  /// Analyzer work per alert, keyed by units already queued when the
  /// scan ran (the paper's mu_k cost driver).
  std::map<int, util::RunningStats> scan_work_by_queue;
  /// Scheduler work per unit, keyed by units queued when it ran (xi_k).
  std::map<int, util::RunningStats> recovery_work_by_queue;
};

class SelfHealingController {
 public:
  SelfHealingController(engine::Engine& engine, ControllerConfig config = {});
  /// The analyzer and scheduler hold the address of the dependence index.
  SelfHealingController(const SelfHealingController&) = delete;
  SelfHealingController& operator=(const SelfHealingController&) = delete;

  /// Figure 3 state, derived from the two queues.
  [[nodiscard]] SystemState state() const;
  [[nodiscard]] std::size_t alerts_queued() const { return alerts_.size(); }
  [[nodiscard]] std::size_t units_queued() const { return queued_; }

  /// Enqueues an IDS alert; false (and counted lost) if the queue is full.
  bool submit_alert(ids::Alert alert);

  /// Starts a new workflow run, or defers it while recovery is in
  /// progress (Theorem 4). Deferred runs start when the system returns
  /// to NORMAL; returns the run id if started immediately.
  std::optional<engine::RunId> submit_run(const wfspec::WorkflowSpec& spec);

  /// SCAN step: analyzes one queued alert into one recovery unit.
  /// Returns the analyzer work spent, or nullopt if there was nothing to
  /// scan or the recovery buffer is full (analyzer blocked).
  std::optional<std::size_t> scan_one();

  /// RECOVERY step: executes one queued recovery unit. Per the paper,
  /// only legal when the alert queue is empty OR the recovery buffer is
  /// full (forced drain; see RecoveryStg). Returns the scheduler work
  /// spent, or nullopt if not allowed / nothing queued.
  std::optional<std::size_t> recover_one();

  /// Runs scans and recoveries until both queues are empty, releasing
  /// any deferred runs. Returns total work spent.
  std::size_t drain();

  [[nodiscard]] const ControllerStats& stats() const { return stats_; }
  [[nodiscard]] engine::Engine& engine() { return *engine_; }

 private:
  void release_pending();
  /// Objects the queued recovery units will touch (their undo/redo
  /// write sets): the data a normal task must not read or write yet.
  /// Sorted and deduplicated.
  [[nodiscard]] std::vector<wfspec::ObjectId> dirty_objects() const;
  /// Advances a run until completion or its next task touches `dirty`
  /// (a sorted object list). Returns true if the run completed.
  bool advance_until_blocked(engine::RunId run,
                             const std::vector<wfspec::ObjectId>& dirty);

  engine::Engine* engine_;
  ControllerConfig config_;
  ids::AlertQueue alerts_;
  /// Long-lived dependence graph, refreshed per scan and per recovery:
  /// appends only the log entries committed since the previous sync, and
  /// applies recovery rounds as an O(suffix) splice instead of a rebuild.
  /// Its streaming taint layer keeps the damage frontier materialized,
  /// and the scheduler reads the damage cone off the same index, so both
  /// scan and recovery cost track the damage, not the log.
  deps::DependencyAnalyzer deps_;
  /// The analyzer and the scheduler live as long as the controller, so
  /// their scratch (epoch-stamped sets, closure buffers, the cone
  /// round's overlay, walks and queues) is reused from alert to alert.
  RecoveryAnalyzer analyzer_;
  RecoveryScheduler scheduler_;
  /// units_[0, queued_) are the queued recovery units, oldest first; the
  /// rest are spent plans kept so the next scans analyze into their
  /// buffers.
  std::vector<RecoveryPlan> units_;
  std::size_t queued_ = 0;
  std::deque<const wfspec::WorkflowSpec*> pending_runs_;
  ControllerStats stats_;
};

}  // namespace selfheal::recovery
