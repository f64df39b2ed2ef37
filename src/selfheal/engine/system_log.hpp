// The system log (Section II.A): the committed-order sequence of task
// instances, across all workflows processed by the system. Precedence
// t_i < t_j (Section II.B) is exactly log order. Recovery actions (undo
// and redo executions) are appended to the same log with their own kind,
// so the log remains the single authoritative execution record.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
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

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] const TaskInstance& entry(InstanceId id) const;
  [[nodiscard]] const std::vector<TaskInstance>& entries() const noexcept {
    return entries_;
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
  /// malicious, redo or fresh -- whether or not currently undone. O(1):
  /// answered from the triple index maintained on append.
  [[nodiscard]] std::optional<InstanceId> find_latest_execution(
      RunId run, wfspec::TaskId task, int incarnation) const;

  /// True iff the triple's latest execution is superseded by an undo.
  /// O(1) via the triple index.
  [[nodiscard]] bool currently_undone(InstanceId execution) const;

  /// True iff `execution` is the entry representing its (run, task,
  /// incarnation) triple in the effective view: an execution kind, not
  /// undone, and not superseded by a later execution. O(1); the
  /// streaming dependence index uses this to diff effective membership
  /// without replaying the log.
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
  struct TripleKey {
    RunId run = kInvalidRun;
    wfspec::TaskId task = wfspec::kInvalidTask;
    int incarnation = 1;
    bool operator==(const TripleKey&) const = default;
  };
  struct TripleKeyHash {
    [[nodiscard]] std::size_t operator()(const TripleKey& k) const noexcept {
      std::uint64_t h = static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.run));
      h = h * 0x9E3779B97F4A7C15ULL ^
          static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.task));
      h = h * 0x9E3779B97F4A7C15ULL ^
          static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.incarnation));
      return static_cast<std::size_t>(h ^ (h >> 32));
    }
  };
  /// Latest state of one (run, task, incarnation): the newest execution
  /// entry and the newest DECISIVE entry (execution or undo -- whichever
  /// committed last decides whether the triple is live). Repairs carry
  /// no identity and are never indexed.
  struct TripleState {
    InstanceId latest_execution = kInvalidInstance;
    InstanceId latest_decisive = kInvalidInstance;
    bool decisive_is_undo = false;
  };

  void index_entry(const TaskInstance& entry);
  /// Makes room for one more entry.
  void reserve_next();
  [[nodiscard]] const TripleState* triple_state(RunId run, wfspec::TaskId task,
                                                int incarnation) const;

  std::vector<TaskInstance> entries_;
  SeqNo next_slot_ = 1;
  std::size_t recovery_entries_ = 0;
  /// O(1) lookups for find_latest_execution / currently_undone /
  /// is_live_execution and an O(triples) effective() sweep -- the alert
  /// hot path must not rescan the log.
  std::unordered_map<TripleKey, TripleState, TripleKeyHash> triple_index_;
};

}  // namespace selfheal::engine
