// The workflow execution engine.
//
// Executes any number of workflow runs (instances of WorkflowSpecs over
// a shared object catalog) with interleaved commits, producing the
// system log and the versioned store that the recovery subsystem
// operates on. Attack injection marks (run, task, incarnation) triples
// whose execution is corrupted, modelling the paper's malicious tasks.
//
// The engine also exposes the primitive recovery actions -- undo
// (version restore) and redo / fresh execution -- which the recovery
// scheduler composes according to Theorems 1-4. Each primitive commits
// to the same system log.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "selfheal/engine/system_log.hpp"
#include "selfheal/engine/value.hpp"
#include "selfheal/engine/versioned_store.hpp"
#include "selfheal/util/rng.hpp"
#include "selfheal/wfspec/workflow_spec.hpp"

namespace selfheal::engine {

/// How ready tasks from concurrent runs are interleaved in commit order.
enum class Interleave {
  kRoundRobin,  // deterministic rotation over active runs (default)
  kRandom,      // seeded random pick among active runs
  kExplicit,    // follow set_schedule(), then fall back to round-robin
};

/// How a fault injector (chaos harness, operational monitor) reports an
/// execution attempt's fate to the engine.
enum class TaskFault {
  kNone,       // the attempt succeeds
  kTransient,  // the attempt fails; retry per RetryPolicy
  kPermanent,  // the task cannot succeed; abort the run (degradation)
};

/// Retry/backoff policy for transient task execution failures. Backoff
/// is logical (accumulated into the `engine.backoff_units` gauge), not
/// wall-clock: simulations must stay deterministic and fast.
struct RetryPolicy {
  /// Retries after the first failed attempt; when exhausted the fault is
  /// escalated to permanent (the run aborts).
  int max_retries = 3;
  /// Backoff charged for the k-th retry: base * multiplier^(k-1).
  double backoff_base = 1.0;
  double backoff_multiplier = 2.0;
};

struct EngineConfig {
  Interleave interleave = Interleave::kRoundRobin;
  std::uint64_t seed = 0x5e1f4ea1dead5eedULL;  // for kRandom interleaving
  /// Safety bound on loop unrolling: max incarnations of one task per run.
  int max_incarnations = 64;
  RetryPolicy retry;
};

/// Consulted before each NORMAL execution attempt (recovery actions are
/// never failed: they re-commit already-validated work). Arguments:
/// (run, task, incarnation, attempt) with attempt starting at 1.
using FaultInjector =
    std::function<TaskFault(RunId, wfspec::TaskId, int, int)>;

class Engine;

/// Observer of durable-relevant engine mutations: every run start, every
/// log commit and every out-of-band run-control change. The durable
/// session layer (engine/durable_session.hpp) implements this to mirror
/// engine state into a write-ahead log between snapshots; anything the
/// observer does not see cannot survive a crash.
class DurabilityObserver {
 public:
  virtual ~DurabilityObserver() = default;
  /// Fired after start_run registered `run`: active at its spec's start
  /// node, nothing committed yet.
  virtual void on_run_started(const Engine& engine, RunId run) = 0;
  /// Fired after `entry` committed to the log (any ActionKind). For
  /// original executions the run's control state (pc, visits, active)
  /// has already advanced past the commit when this fires.
  virtual void on_commit(const Engine& engine, const TaskInstance& entry) = 0;
  /// Fired after a run's control state changed outside a normal commit
  /// (resume_run, abort_run, inject_malicious).
  virtual void on_control_change(const Engine& engine, RunId run) = 0;
};

class Engine {
 public:
  explicit Engine(EngineConfig config = {});

  /// Registers a run of `spec` (which must be validated and outlive the
  /// engine). The run becomes active at its start node.
  RunId start_run(const wfspec::WorkflowSpec& spec);

  /// Marks the given (task, incarnation) of a run for malicious
  /// execution: its outputs (and branch choice) will be corrupted.
  /// Must be called before the task executes.
  void inject_malicious(RunId run, wfspec::TaskId task, int incarnation = 1);

  /// Installs (or clears, with nullptr) the durability observer. The
  /// pointer is borrowed: the observer must outlive the engine or be
  /// cleared first. Fires on every run start, every log commit and every
  /// out-of-band run control change; import_entry (restore) is
  /// deliberately silent.
  void set_durability_observer(DurabilityObserver* observer) noexcept {
    durability_observer_ = observer;
  }

  /// Installs (or clears, with nullptr) the task fault injector. Each
  /// normal execution attempt consults it; kTransient faults retry per
  /// EngineConfig::retry, kPermanent faults (and exhausted retries)
  /// abort the run -- graceful degradation: the failed branch of work
  /// stops, every other run keeps executing.
  void set_fault_injector(FaultInjector injector);

  /// Aborts a run: it stops executing (nothing further commits) but its
  /// committed history stays in the log and store. Recovery replays an
  /// aborted run only over its recorded prefix; the correctness oracle
  /// truncates its benign replay at the same point.
  void abort_run(RunId run);
  [[nodiscard]] bool run_aborted(RunId run) const;

  /// For Interleave::kExplicit: the run to advance at each commit slot.
  /// Slots whose run is complete are skipped; once the schedule is
  /// exhausted, execution falls back to round-robin. Used by the
  /// correctness oracle to replay the commit slots of an attacked
  /// execution benignly.
  void set_schedule(std::vector<RunId> schedule);

  /// Executes the next ready task of some active run. Returns false when
  /// no run is active.
  bool step();

  /// Executes the next ready task of a SPECIFIC run; false if that run
  /// is not active. Used by drivers that impose their own interleaving
  /// (the correctness oracle replays the recovery schedule this way).
  bool step_run(RunId run);

  /// Runs every active run to completion.
  void run_all();

  [[nodiscard]] bool run_active(RunId run) const;
  [[nodiscard]] std::size_t active_runs() const noexcept {
    return active_.size();
  }
  [[nodiscard]] std::size_t run_count() const noexcept { return runs_.size(); }
  [[nodiscard]] const wfspec::WorkflowSpec& spec_of(RunId run) const;
  /// The kMalicious entries of `run`, in commit order: what an alert for
  /// the run reports. Recovery keeps them (a redo is a new entry), so the
  /// list only grows; imports rebuild it.
  [[nodiscard]] const std::vector<InstanceId>& malicious_entries(RunId run) const;
  [[nodiscard]] std::vector<const wfspec::WorkflowSpec*> specs_by_run() const;

  [[nodiscard]] const SystemLog& log() const noexcept { return log_; }
  [[nodiscard]] const VersionedStore& store() const noexcept { return store_; }

  // --- Recovery primitives (used by recovery::RecoveryScheduler) ---

  /// Undoes `target` (an execution entry): restores each object it wrote
  /// to the version current just before its commit, skipping versions
  /// written by instances `skip_writer` accepts (already-undone writers,
  /// realising Theorem 3 rule 5's intent independently of undo commit
  /// order). Appends a kUndo entry and returns its id.
  InstanceId apply_undo(InstanceId target,
                        const VersionedStore::WriterFilter& skip_writer = nullptr);

  /// Re-executes the task of `target`, appending a kRedo entry (with
  /// target linkage). The redo occupies `logical_slot` if given (>0),
  /// else inherits the target's slot. When `read_values` is non-null it
  /// supplies the values the redo reads (in read-set order) -- the
  /// recovery scheduler passes its clean-timeline values, which is how
  /// this implementation realises Theorem 3's guarantee that a redo
  /// never reads data "from the future" of the repaired schedule.
  /// Without it the redo reads the current store. Returns the redo id;
  /// the entry's chosen_successor reflects the new branch decision.
  InstanceId apply_redo(InstanceId target, SeqNo logical_slot = 0,
                        const std::vector<Value>* read_values = nullptr);

  /// Executes (run, task, incarnation) for the first time during
  /// recovery (the task joined the execution path after a branch redo).
  /// `logical_slot` is the schedule slot the execution occupies;
  /// `read_values` as in apply_redo.
  InstanceId apply_fresh(RunId run, wfspec::TaskId task, int incarnation,
                         SeqNo logical_slot,
                         const std::vector<Value>* read_values = nullptr);

  /// Appends one kRepair entry writing the given (object, value) pairs:
  /// the scheduler's final masked-write reconciliation.
  InstanceId apply_repair(
      const std::vector<std::pair<wfspec::ObjectId, Value>>& fixes);

  /// Lowest logical slot at which a redo or fresh execution committed
  /// reads taken from the live store instead of a supplied clean
  /// timeline (the risky strategy), or 0 when there is none. Such reads
  /// may disagree with the effective schedule, so the recovery scheduler
  /// re-checks every step from this slot on and clears the floor after
  /// a clean-read round. Imported redo/fresh entries lower it too: a
  /// loaded log does not record how its reads were taken.
  [[nodiscard]] SeqNo unvalidated_read_floor() const noexcept {
    return unvalidated_read_floor_;
  }
  void clear_unvalidated_read_floor() noexcept { unvalidated_read_floor_ = 0; }

  /// The branch successor `task` would choose given current store
  /// contents (without committing anything).
  [[nodiscard]] std::optional<wfspec::TaskId> peek_choice(RunId run,
                                                          wfspec::TaskId task) const;

  /// The task an active run would execute next; nullopt if complete.
  [[nodiscard]] std::optional<wfspec::TaskId> peek_next_task(RunId run) const;

  /// Rewrites an in-flight run's control state after recovery moved it to
  /// a different execution path: the next task to execute and the visit
  /// counters along the repaired path. Passing pc == kInvalidTask marks
  /// the run complete.
  void resume_run(RunId run, wfspec::TaskId pc,
                  const std::map<wfspec::TaskId, int>& visits);

  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }

  // --- Snapshot / restore support (see engine/session_io.hpp) ---

  /// A run's control state, for persistence.
  struct RunSnapshot {
    wfspec::TaskId pc = wfspec::kInvalidTask;
    bool active = false;
    bool aborted = false;
    std::map<wfspec::TaskId, int> visits;
    std::vector<std::pair<wfspec::TaskId, int>> pending_malicious;
  };
  [[nodiscard]] RunSnapshot run_snapshot(RunId run) const;

  /// Re-appends a persisted log entry: applies its writes to the store
  /// and restores it into the log verbatim. Entries must be imported in
  /// their original order (ids/seqs must line up). Does not touch run
  /// control state -- restore that afterwards via resume_run and
  /// inject_malicious.
  void import_entry(TaskInstance entry);

 private:
  struct Run {
    const wfspec::WorkflowSpec* spec = nullptr;
    wfspec::TaskId pc = wfspec::kInvalidTask;  // next task to execute
    bool active = false;
    bool aborted = false;  // permanently failed (graceful degradation)
    /// Incarnation counters, sorted by task: a run visits a handful of
    /// tasks, so a flat array beats a tree node per task.
    std::vector<std::pair<wfspec::TaskId, int>> visits;
    std::set<std::pair<wfspec::TaskId, int>> malicious;
    std::vector<InstanceId> malicious_entries;
  };

  /// The visit counter of `task` in `run`, created at 0 when absent.
  static int& visit_count(Run& run, wfspec::TaskId task);
  /// The visit counter of `task` in `run`; 0 when absent.
  [[nodiscard]] static int visits_of(const Run& run, wfspec::TaskId task);

  /// Pure read/compute/branch phase of one task instance: builds the
  /// entry apply_* would commit, without metrics or side effects (except
  /// store reads when read_override is null). logical_slot == 0 means
  /// "assign the commit seq" (normal execution).
  [[nodiscard]] TaskInstance build_instance(
      RunId run, wfspec::TaskId task, int incarnation, ActionKind kind,
      InstanceId target, SeqNo logical_slot,
      const std::vector<Value>* read_override = nullptr) const;

  /// Commit phase: assigns seq/id, writes the store, appends the log.
  InstanceId commit_instance(TaskInstance entry);

  /// Executes one task instance and commits it (metrics + build +
  /// commit). Shared by normal execution, redo, and fresh execution.
  /// read_override, if non-null, replaces store reads (recovery
  /// clean-timeline values).
  InstanceId execute(RunId run, wfspec::TaskId task, int incarnation,
                     ActionKind kind, InstanceId target, SeqNo logical_slot,
                     const std::vector<Value>* read_override = nullptr);

  /// Executes the next task of runs_[pick] and advances its cursor.
  void advance(std::size_t pick);

  /// Sets runs_[index].active, keeping active_ in step.
  void set_active(std::size_t index, bool active);

  /// Lowers unvalidated_read_floor() to `slot`.
  void note_unvalidated_read(SeqNo slot);

  [[nodiscard]] SeqNo next_seq() const {
    return static_cast<SeqNo>(log_.size()) + 1;
  }

  EngineConfig config_;
  util::Rng rng_;
  FaultInjector fault_injector_;
  DurabilityObserver* durability_observer_ = nullptr;
  std::vector<Run> runs_;
  /// Indices of the active runs, ascending: step() picks among them
  /// without scanning every run ever started.
  std::vector<std::size_t> active_;
  SystemLog log_;
  VersionedStore store_;
  std::size_t rr_cursor_ = 0;  // round-robin position
  std::vector<RunId> schedule_;
  std::size_t schedule_cursor_ = 0;
  SeqNo unvalidated_read_floor_ = 0;
};

}  // namespace selfheal::engine
