// The system log (Section II.A): the committed-order sequence of task
// instances, across all workflows processed by the system. Precedence
// t_i < t_j (Section II.B) is exactly log order. Recovery actions (undo
// and redo executions) are appended to the same log with their own kind,
// so the log remains the single authoritative execution record.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <ranges>
#include <string>
#include <vector>

#include "selfheal/engine/versioned_store.hpp"
#include "selfheal/util/small_vector.hpp"
#include "selfheal/wfspec/workflow_spec.hpp"

namespace selfheal::engine {

using RunId = std::int32_t;
inline constexpr RunId kInvalidRun = -1;

enum class ActionKind {
  kNormal,     // original execution of a workflow task
  kMalicious,  // original execution, corrupted by the attacker
  kUndo,       // recovery: version-restore of a prior instance's writes
  kRedo,       // recovery: re-execution of a prior instance
  kFresh,      // recovery: first execution of a task that joined the path
  kRepair,     // recovery: final masked-write reconciliation (see scheduler)
};

[[nodiscard]] const char* to_string(ActionKind kind);

/// One committed execution (or recovery action) in the system log.
struct TaskInstance {
  InstanceId id = kInvalidInstance;  // == position in the log
  RunId run = kInvalidRun;
  wfspec::TaskId task = wfspec::kInvalidTask;
  int incarnation = 1;  // visit count for loops: t^1, t^2, ...
  ActionKind kind = ActionKind::kNormal;
  /// For kUndo / kRedo: the original instance being undone / redone.
  InstanceId target = kInvalidInstance;
  SeqNo seq = 0;  // commit sequence (== id; kept separate for clarity)
  /// The entry's position in the LOGICAL schedule: originals get their
  /// own seq; a redo inherits its target's slot; a fresh execution gets
  /// the slot it consumed (assigned by the recovery scheduler). The
  /// effective view below orders entries by this slot, which is what
  /// precedence (Section II.B) means once recovery has rewritten parts
  /// of the execution.
  SeqNo logical_slot = 0;

  /// Objects and values read and written, in the task's read/write-set
  /// order. Usually one or two each, so they are kept inline.
  util::SmallVector<wfspec::ObjectId, 2> read_objects;
  util::SmallVector<Value, 2> read_values;
  util::SmallVector<wfspec::ObjectId, 2> written_objects;
  util::SmallVector<Value, 2> written_values;

  /// For branch tasks: the successor chosen by this execution.
  std::optional<wfspec::TaskId> chosen_successor;

  [[nodiscard]] bool is_original() const noexcept {
    return kind == ActionKind::kNormal || kind == ActionKind::kMalicious;
  }
  [[nodiscard]] bool is_recovery() const noexcept { return !is_original(); }
};

class SystemLog {
 public:
  /// Appends an entry; fills in id and seq. Returns the instance id.
  InstanceId append(TaskInstance entry);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] const TaskInstance& entry(InstanceId id) const;
  /// The entries in commit order as a read-only random-access range
  /// (range-for, size(), operator[], back()). An append may move the
  /// entries of the newest chunk, so references into it do not outlive
  /// one.
  [[nodiscard]] auto entries() const {
    return std::views::iota(std::size_t{0}, size_) |
           std::views::transform(
               [this](std::size_t i) -> const TaskInstance& { return at(i); });
  }

  /// The trace of a run (Section II.A): its original-execution instances
  /// in commit order (recovery actions excluded).
  [[nodiscard]] std::vector<InstanceId> trace(RunId run) const;

  /// The original-execution instance of (run, task, incarnation), if any.
  [[nodiscard]] std::optional<InstanceId> find_original(RunId run, wfspec::TaskId task,
                                                        int incarnation) const;

  /// The EFFECTIVE execution: for each (run, task, incarnation) the
  /// latest execution entry (normal/malicious/redo/fresh), excluding
  /// triples whose latest state is undone (an undo entry committed after
  /// the latest execution). Sorted by logical_slot (ties by id). Before
  /// any recovery this is every original execution in commit order.
  /// Dependence analysis for later recovery rounds runs over this view.
  [[nodiscard]] std::vector<InstanceId> effective() const;

  /// Final value per object under the effective view replayed in
  /// logical order, indexed by object id up to the highest one written
  /// (Value{} for objects in between that nothing effective wrote). The
  /// live store is not comparable across a crash: it retains stale
  /// physical versions of undone writes that nothing restored
  /// (restore-on-demand), while a reloaded store is rebuilt from the log
  /// and never had them.
  [[nodiscard]] std::vector<Value> effective_store() const;

  /// Latest execution entry of (run, task, incarnation) -- normal,
  /// malicious, redo or fresh -- whether or not currently undone.
  /// Answered from the triple index maintained on append, in O(tasks of
  /// the run) plus the incarnations above `incarnation`.
  [[nodiscard]] std::optional<InstanceId> find_latest_execution(
      RunId run, wfspec::TaskId task, int incarnation) const;

  /// True iff the triple's latest execution is superseded by an undo,
  /// via the triple index.
  [[nodiscard]] bool currently_undone(InstanceId execution) const;

  /// True iff `execution` is the entry representing its (run, task,
  /// incarnation) triple in the effective view: an execution kind, not
  /// undone, and not superseded by a later execution. Via the triple
  /// index; the streaming dependence index uses this to diff effective
  /// membership without replaying the log.
  [[nodiscard]] bool is_live_execution(InstanceId execution) const;

  /// Human-readable rendering, e.g. "t1 t7 t2 ..." with kind markers;
  /// names resolved via `spec_of(run)`.
  [[nodiscard]] std::string render(
      const std::vector<const wfspec::WorkflowSpec*>& spec_of_run) const;

  /// The next logical slot a fresh original commit would receive.
  [[nodiscard]] SeqNo next_slot() const noexcept { return next_slot_; }

  /// Number of recovery entries (undo/redo/fresh/repair) committed so
  /// far. Monotone; the incremental dependence analyzer compares it
  /// across refreshes to detect that a recovery round rewrote the
  /// effective schedule (its invalidation rule).
  [[nodiscard]] std::size_t recovery_entry_count() const noexcept {
    return recovery_entries_;
  }

  /// Appends a persisted entry verbatim (id, seq, slot already set).
  /// The entry must be the next one in order; throws otherwise.
  void restore_entry(TaskInstance entry);

 private:
  /// Latest state of one (run, task, incarnation): its newest execution
  /// entry and its newest undo. Whichever committed last decides whether
  /// the triple is live. Repairs carry no identity and are never indexed.
  /// Records sit in one flat array in first-commit order. Each run lists
  /// its tasks, and each task chains its incarnations highest first, so a
  /// lookup walks the run's tasks and then only the incarnations above
  /// the one it asks for (none in a run without loops).
  struct TripleRecord {
    wfspec::TaskId task = wfspec::kInvalidTask;
    int incarnation = 1;
    InstanceId latest_execution = kInvalidInstance;
    InstanceId latest_undo = kInvalidInstance;
    std::int32_t lower = -1;      // the task's next lower incarnation, -1 at the end
    std::int32_t next_task = -1;  // on a task's highest incarnation: the run's next task

    [[nodiscard]] bool undone() const noexcept { return latest_undo > latest_execution; }
  };

  /// The entries are stored in chunks of kChunkEntries. A full chunk
  /// never moves, so an append costs the same at any history length.
  static constexpr std::size_t kChunkShift = 9;
  static constexpr std::size_t kChunkEntries = std::size_t{1} << kChunkShift;

  /// Unchecked access to entry `i`.
  [[nodiscard]] const TaskInstance& at(std::size_t i) const {
    return chunks_[i >> kChunkShift][i & (kChunkEntries - 1)];
  }
  /// Stores `entry` as entry size() and indexes it.
  void push(TaskInstance entry);
  void index_entry(const TaskInstance& entry);
  /// Adds a record for a triple the run has none for; returns its index.
  std::int32_t insert_triple(std::size_t run, wfspec::TaskId task, int incarnation);
  /// Index of the triple's record in triples_, -1 if none.
  [[nodiscard]] std::int32_t find_triple(RunId run, wfspec::TaskId task,
                                         int incarnation) const;
  [[nodiscard]] const TripleRecord* triple(RunId run, wfspec::TaskId task,
                                           int incarnation) const {
    const auto i = find_triple(run, task, incarnation);
    return i < 0 ? nullptr : &triples_[static_cast<std::size_t>(i)];
  }

  /// Entry i is chunks_[i / kChunkEntries][i % kChunkEntries]; only the
  /// last chunk is not full.
  std::vector<std::vector<TaskInstance>> chunks_;
  std::size_t size_ = 0;
  SeqNo next_slot_ = 1;
  std::size_t recovery_entries_ = 0;
  /// Lookups for find_latest_execution / currently_undone /
  /// is_live_execution that walk one run's tasks, and an O(triples)
  /// effective() sweep -- the alert hot path must not rescan the log,
  /// and a commit allocates no node.
  std::vector<TripleRecord> triples_;
  /// first_task_[run]: the highest-incarnation record of the first task
  /// in the run's list, -1 for none.
  std::vector<std::int32_t> first_task_;
};

}  // namespace selfheal::engine
