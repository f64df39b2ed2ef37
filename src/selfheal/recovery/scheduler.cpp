#include "selfheal/recovery/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>

#include "selfheal/obs/metrics.hpp"
#include "selfheal/obs/trace.hpp"
#include "selfheal/recovery/replay_order.hpp"
#include "selfheal/util/epoch_map.hpp"

namespace selfheal::recovery {

namespace {

struct SchedulerMetrics {
  obs::Counter& plans_executed = obs::metrics().counter("recovery.plans_executed");
  obs::Counter& undo_tasks = obs::metrics().counter("recovery.undo_tasks");
  obs::Counter& redo_tasks = obs::metrics().counter("recovery.redo_tasks");
  obs::Counter& fresh_tasks = obs::metrics().counter("recovery.fresh_tasks");
  obs::Counter& reused_tasks = obs::metrics().counter("recovery.reused_tasks");
  obs::Counter& orphaned_tasks = obs::metrics().counter("recovery.orphaned_tasks");
  obs::Counter& repair_entries = obs::metrics().counter("recovery.repair_entries");
  obs::Counter& divergences = obs::metrics().counter("recovery.divergences");
  obs::Counter& work_units = obs::metrics().counter("recovery.work_units");
  obs::StatMetric& execute_ms = obs::metrics().stats("scheduler.execute_ms");
  obs::HistogramMetric& undo_depth =
      obs::metrics().histogram("recovery.undo_cascade_depth", 0, 256, 32);
};

SchedulerMetrics& scheduler_metrics() {
  static SchedulerMetrics m;
  return m;
}

using engine::SeqNo;
using engine::Value;
using wfspec::ObjectId;
using wfspec::TaskId;

constexpr SeqNo kEndOfTime = std::numeric_limits<SeqNo>::max();

double ms_since(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   since)
      .count();
}

// Per-round bits over instance ids in the scratch's marks.
constexpr std::uint32_t kUndone = 1;   // undone this round
constexpr std::uint32_t kVisited = 2;  // replayed this round

/// The walk of one run a round touched. Runs the round never touches
/// keep their recorded path and are not represented at all.
struct RunState {
  engine::RunId run = engine::kInvalidRun;
  const wfspec::WorkflowSpec* spec = nullptr;
  std::span<const InstanceId> recorded;  // effective entries at round start
  ReplayCursor cursor;
  bool halted = false;    // in flight or aborted when the round began
  bool aborted = false;
  bool diverged = false;  // off its recorded path: every step is visited
  TaskId node = wfspec::kInvalidTask;  // walk position once diverged
  engine::VisitCounts visits;          // walk visit counts once diverged

  /// Back to a default-constructed state, keeping the buffers' capacity
  /// (the scratch pools one state per walk across rounds).
  void reset() {
    RunState fresh;
    fresh.cursor.slots.swap(cursor.slots);
    fresh.cursor.slots.clear();
    fresh.visits.swap(visits);
    fresh.visits.clear();
    *this = std::move(fresh);
  }
};

/// This round's change at one slot of an object's timeline: the value
/// written there, or a recorded write that was removed.
struct SlotChange {
  SeqNo slot = 0;
  Value value = 0;
  bool removed = false;
};

}  // namespace

/// Everything a cone round works in. A scheduler keeps one for its
/// lifetime and each round starts a new epoch of its maps instead of
/// clearing them; the overlays and walks the maps index are pooled, and
/// every buffer keeps its capacity. So a round costs O(what it touches)
/// and allocates only where it touches more than every earlier round.
struct RecoveryScheduler::Scratch {
  RecoveryOutcome outcome;
  util::EpochMap marks;  // instance id -> kUndone | kVisited
  /// This round's changes to the recorded timeline: object id -> its
  /// slot-sorted changes in `overlays`.
  util::EpochMap overlay_of;
  std::vector<std::vector<SlotChange>> overlays;
  /// The run walks this round touched: run id -> its state in `runs`.
  util::EpochMap walk_of;
  std::vector<RunState> runs;
  /// Candidate undos as (instance, position in the plan), sorted; built
  /// on first use in a round.
  std::vector<std::pair<InstanceId, std::size_t>> undo_guards;
  std::vector<std::pair<SeqNo, engine::RunId>> pending;  // min-heap
  std::vector<InstanceId> damage;
  std::vector<ObjectId> touched;
  std::vector<Value> reads;
  std::vector<engine::RunId> resync;
  std::vector<std::pair<ObjectId, Value>> fixes;

  /// Starts a round: every per-round set reads empty.
  void begin() {
    outcome.reset();
    marks.reset();
    overlay_of.reset();
    walk_of.reset();
    undo_guards.clear();
    pending.clear();
    touched.clear();
  }
};

namespace {

/// One recovery round over the damage cone. The borrowed dependence
/// index describes the effective schedule as it was when the round
/// began (the "recorded timeline"); the round's own commits are tracked
/// in an overlay on top of it.
class ConeRound {
 public:
  ConeRound(engine::Engine& engine, const deps::DependencyAnalyzer& deps,
            const RecoveryPlan& plan, bool clean_reads, RecoveryScheduler::Scratch& scratch)
      : engine_(engine), log_(engine.log()), deps_(deps), plan_(plan),
        clean_reads_(clean_reads), scratch_(scratch), outcome_(scratch.outcome) {}

  void run() {
    scratch_.begin();
    // Seeds go on the queue before the undo phase changes which
    // executions are live.
    request_seeds();

    // ---- Phase 1: undo the damage closure, reverse slot order. ----
    obs::Span undo_span("scheduler.undo_phase", "recovery");
    auto phase_start = std::chrono::steady_clock::now();
    auto& damage = scratch_.damage;
    damage.assign(plan_.damaged.begin(), plan_.damaged.end());
    std::sort(damage.begin(), damage.end(), [&](InstanceId a, InstanceId b) {
      const auto sa = log_.entry(a).logical_slot;
      const auto sb = log_.entry(b).logical_slot;
      return sa != sb ? sa > sb : a > b;
    });
    for (const auto id : damage) {
      const auto& e = log_.entry(id);
      if (triple_undone(e.run, e.task, e.incarnation)) {
        mark(id, kUndone);
        continue;
      }
      commit_undo(id);
    }
    outcome_.undo_ms = ms_since(phase_start);
    undo_span.end();

    // ---- Phase 2: slot-ordered replay of the damage cone. ----
    obs::Span replay_span("scheduler.replay_phase", "recovery");
    phase_start = std::chrono::steady_clock::now();
    // Overflow slots (paths that grew longer) sort above every recorded
    // slot of this round's schedule.
    overflow_base_ = log_.next_slot();
    auto& pending = scratch_.pending;
    while (!pending.empty()) {
      std::pop_heap(pending.begin(), pending.end(), std::greater<>{});
      const auto [slot, run] = pending.back();
      pending.pop_back();
      RunState& s = state(run);
      if (s.cursor.done) continue;
      if (s.diverged) {
        if (slot != s.cursor.next_slot(run)) continue;  // queued twice
      } else {
        // A run on its recorded path jumps straight to the requested
        // step: every step it passes is reused without a visit.
        const auto& slots = s.cursor.slots;
        const auto it = std::lower_bound(slots.begin(), slots.end(), slot);
        if (it == slots.end() || *it != slot) continue;
        const auto k = static_cast<std::size_t>(it - slots.begin());
        if (k < s.cursor.step) continue;  // already past it
        s.cursor.step = k;
      }
      step(s);
      if (!s.cursor.done && s.diverged) request(s.cursor.next_slot(run), run);
    }
    finish_replay();
    outcome_.replay_ms = ms_since(phase_start);
    replay_span.end();

    // ---- Phase 3: reconcile masked writes against the clean timeline. ----
    obs::Span reconcile_span("scheduler.reconcile_phase", "recovery");
    phase_start = std::chrono::steady_clock::now();
    reconcile();
    outcome_.reconcile_ms = ms_since(phase_start);
    reconcile_span.end();
  }

 private:
  void request_seeds() {
    // Rule 1: the LIVE execution of every damaged triple (candidate
    // redos included) -- an earlier round may have moved a triple to
    // another slot. Candidate undos are not seeds: one whose fate
    // changes is reached through its run's divergence or a changed read,
    // and the Theorem 1 c4 closure can name most of the log.
    for (const auto id : plan_.damaged) {
      const auto& e = log_.entry(id);
      const auto live = log_.find_latest_execution(e.run, e.task, e.incarnation);
      if (live && log_.is_live_execution(*live)) {
        request(log_.entry(*live).logical_slot, e.run);
      }
    }
    // Rule 2: every live malicious entry is redone wherever it sits.
    deps_.for_each_taint_source([&](InstanceId id) {
      const auto& e = log_.entry(id);
      request(e.logical_slot, e.run);
    });
    // Rule 3: recorded reads at or above the floor may disagree with the
    // effective schedule, so every step there is re-checked.
    if (const SeqNo floor = engine_.unvalidated_read_floor(); floor > 0) {
      const auto schedule = deps_.schedule();
      auto it = std::lower_bound(
          schedule.begin(), schedule.end(), floor,
          [&](InstanceId id, SeqNo s) { return log_.entry(id).logical_slot < s; });
      for (; it != schedule.end(); ++it) {
        const auto& e = log_.entry(*it);
        request(e.logical_slot, e.run);
      }
    }
  }

  void request(SeqNo slot, engine::RunId run) {
    scratch_.pending.emplace_back(slot, run);
    std::push_heap(scratch_.pending.begin(), scratch_.pending.end(), std::greater<>{});
  }

  /// The walk of `run` this round, started on first use. The reference
  /// is valid until the next state() call that starts a walk.
  RunState& state(engine::RunId run) {
    const auto walks = scratch_.walk_of.size();
    const auto index = scratch_.walk_of.get_or_insert(run, static_cast<std::uint32_t>(walks));
    if (index < walks) return scratch_.runs[index];
    if (index == scratch_.runs.size()) scratch_.runs.emplace_back();
    RunState& s = scratch_.runs[index];
    s.reset();
    s.run = run;
    s.spec = &engine_.spec_of(run);
    s.recorded = deps_.run_instances(run);
    s.halted = engine_.run_active(run) || engine_.run_aborted(run);
    s.aborted = engine_.run_aborted(run);
    s.cursor.overflow_base = overflow_base_;
    for (const auto id : s.recorded) {
      s.cursor.slots.push_back(log_.entry(id).logical_slot);
    }
    if (s.cursor.slots.empty() && (!engine_.run_active(run) || s.aborted)) {
      s.cursor.done = true;
    }
    return s;
  }

  /// The damaged branch guarding candidate `id`, if it is a candidate
  /// (Theorem 3 rule 10 reporting). Candidate redos are damaged and
  /// few; candidate undos are never damaged but may name most of the
  /// log, so their index is built only once a non-damaged entry is
  /// redone.
  [[nodiscard]] std::optional<InstanceId> guard_of(InstanceId id) {
    for (const auto& c : plan_.candidate_redos) {
      if (c.instance == id) return c.guard_branch;
    }
    if (std::binary_search(plan_.damaged.begin(), plan_.damaged.end(), id)) {
      return std::nullopt;
    }
    auto& guards = scratch_.undo_guards;
    if (guards.empty()) {
      for (std::size_t i = 0; i < plan_.candidate_undos.size(); ++i) {
        guards.emplace_back(plan_.candidate_undos[i].instance, i);
      }
      std::sort(guards.begin(), guards.end());
    }
    // The first listed candidate for `id` decides.
    const auto it = std::lower_bound(guards.begin(), guards.end(),
                                     std::pair<InstanceId, std::size_t>{id, 0});
    if (it == guards.end() || it->first != id) return std::nullopt;
    return plan_.candidate_undos[it->second].guard_branch;
  }

  [[nodiscard]] bool marked(InstanceId id, std::uint32_t bit) const {
    const auto* bits = scratch_.marks.find(id);
    return bits != nullptr && (*bits & bit) != 0;
  }
  [[nodiscard]] bool undone_now(InstanceId id) const { return marked(id, kUndone); }
  [[nodiscard]] bool visited(InstanceId id) const { return marked(id, kVisited); }
  void mark(InstanceId id, std::uint32_t bit) { scratch_.marks.get_or_insert(id, 0) |= bit; }

  [[nodiscard]] bool triple_undone(engine::RunId run, TaskId task, int inc) const {
    const auto latest = log_.find_latest_execution(run, task, inc);
    return latest && log_.currently_undone(*latest);
  }

  void commit_undo(InstanceId victim) {
    const auto uid = engine_.apply_undo(
        victim, [this](InstanceId writer) { return undone_now(writer); });
    mark(victim, kUndone);
    outcome_.undone.push_back(victim);
    outcome_.action_entries.push_back(uid);
    const auto& written = log_.entry(victim).written_objects;
    scratch_.touched.insert(scratch_.touched.end(), written.begin(), written.end());
    outcome_.work_units += written.size() + 1;
  }

  /// This round's changes to `object`'s timeline, or null when none.
  [[nodiscard]] const std::vector<SlotChange>* changes_of(ObjectId object) const {
    const auto* index = scratch_.overlay_of.find(object);
    return index == nullptr ? nullptr : &scratch_.overlays[*index];
  }

  /// Records this round's change at `slot` of `object`'s timeline.
  void put_change(ObjectId object, SeqNo slot, Value value, bool removed) {
    const auto used = scratch_.overlay_of.size();
    const auto index = scratch_.overlay_of.get_or_insert(object, static_cast<std::uint32_t>(used));
    if (index == scratch_.overlays.size()) scratch_.overlays.emplace_back();
    auto& changes = scratch_.overlays[index];
    if (index == used) changes.clear();  // first change this round
    const auto it = std::lower_bound(
        changes.begin(), changes.end(), slot,
        [](const SlotChange& c, SeqNo s) { return c.slot < s; });
    if (it != changes.end() && it->slot == slot) {
      *it = SlotChange{slot, value, removed};
    } else {
      changes.insert(it, SlotChange{slot, value, removed});
    }
  }

  /// The value `object` holds just before `slot` in this round's clean
  /// timeline: the latest overlay write or surviving recorded write
  /// below the slot, else the initial value.
  [[nodiscard]] Value clean_value(ObjectId object, SeqNo slot) const {
    const auto writers = deps_.writers_of(object);
    auto w = static_cast<std::size_t>(
        std::lower_bound(writers.begin(), writers.end(), slot,
                         [](const auto& rec, SeqNo s) { return rec.slot < s; }) -
        writers.begin());
    const auto* changes = changes_of(object);
    // changes[0, c) lie below the slot.
    auto c = changes != nullptr
                 ? static_cast<std::size_t>(
                       std::lower_bound(changes->begin(), changes->end(), slot,
                                        [](const SlotChange& ch, SeqNo s) {
                                          return ch.slot < s;
                                        }) -
                       changes->begin())
                 : std::size_t{0};
    while (true) {
      if (c > 0) {
        const auto& prior = (*changes)[c - 1];
        if (w == 0 || prior.slot >= writers[w - 1].slot) {
          if (!prior.removed) return prior.value;
          // A removed write: fall back past the recorded one it removed.
          while (w > 0 && writers[w - 1].slot == prior.slot) --w;
          --c;
          continue;
        }
      }
      if (w == 0) return engine::initial_value(object);
      return *written_value(log_.entry(writers[w - 1].reader), object);
    }
  }

  /// The (last) value `e` wrote to `object`, if it wrote it.
  [[nodiscard]] static std::optional<Value> written_value(const engine::TaskInstance& e,
                                                          ObjectId object) {
    for (std::size_t i = e.written_objects.size(); i-- > 0;) {
      if (e.written_objects[i] == object) return e.written_values[i];
    }
    return std::nullopt;
  }

  /// Records what this round wrote at `slot` against what the recorded
  /// timeline had there (`recorded_id`'s writes, if any), and queues the
  /// recorded readers of every object whose value there changed.
  void settle(SeqNo slot, InstanceId recorded_id,
              std::span<const ObjectId> objects, std::span<const Value> values) {
    const engine::TaskInstance* rec =
        recorded_id == engine::kInvalidInstance ? nullptr : &log_.entry(recorded_id);
    if (rec != nullptr) {
      for (const auto object : rec->written_objects) {
        if (std::find(objects.begin(), objects.end(), object) == objects.end()) {
          put_change(object, slot, 0, /*removed=*/true);
          changed(object, slot);
        }
      }
    }
    for (std::size_t i = 0; i < objects.size(); ++i) {
      // Same value as recorded: nothing downstream moves.
      if (rec != nullptr && written_value(*rec, objects[i]) == values[i]) continue;
      put_change(objects[i], slot, values[i], /*removed=*/false);
      changed(objects[i], slot);
    }
  }

  /// `object` changed at `slot`: its recorded readers up to and
  /// including the next recorded writer may now read a different value.
  void changed(ObjectId object, SeqNo slot) {
    const auto writers = deps_.writers_of(object);
    const auto next_writer = std::upper_bound(
        writers.begin(), writers.end(), slot,
        [](SeqNo s, const auto& rec) { return s < rec.slot; });
    const SeqNo until = next_writer == writers.end() ? kEndOfTime : next_writer->slot;
    const auto readers = deps_.readers_of(object);
    for (auto it = std::upper_bound(readers.begin(), readers.end(), slot,
                                    [](SeqNo s, const auto& rec) { return s < rec.slot; });
         it != readers.end() && it->slot <= until; ++it) {
      request(it->slot, log_.entry(it->reader).run);
    }
  }

  /// One replay step of run `s` at its cursor: the full sweep's rule,
  /// verbatim, with clean values read through the overlay.
  void step(RunState& s) {
    if (s.halted && s.cursor.in_overflow()) {
      // A halted run replays only its recorded history.
      s.cursor.done = true;
      return;
    }
    const InstanceId recorded_id =
        s.cursor.in_overflow() ? engine::kInvalidInstance : s.recorded[s.cursor.step];
    TaskId node;
    int inc;
    if (s.diverged) {
      node = s.node;
      inc = ++engine::visit_count(s.visits, node);
    } else {
      const auto& rec = log_.entry(recorded_id);
      node = rec.task;
      inc = rec.incarnation;
    }
    if (inc > engine_.config().max_incarnations) {
      throw std::runtime_error("RecoveryScheduler: replay exceeded max incarnations");
    }
    const SeqNo slot = s.cursor.next_slot(s.run);

    // The triple's latest execution, by id: committing recovery entries
    // appends to the log and may move its storage, so entries are read
    // again after every commit instead of being held across one.
    const auto found = log_.find_latest_execution(s.run, node, inc);
    const InstanceId orig = found ? *found : engine::kInvalidInstance;
    std::optional<TaskId> old_choice;
    bool reused = false;
    if (found) {
      const auto& o = log_.entry(orig);
      old_choice = o.chosen_successor;
      if (o.kind != engine::ActionKind::kMalicious && !undone_now(orig) &&
          !triple_undone(s.run, node, inc)) {
        reused = true;
        for (std::size_t i = 0; i < o.read_objects.size(); ++i) {
          ++outcome_.work_units;
          if (clean_value(o.read_objects[i], slot) != o.read_values[i]) {
            reused = false;
            break;
          }
        }
      }
    }

    std::optional<TaskId> chosen;
    if (reused) {
      const auto& o = log_.entry(orig);
      mark(orig, kVisited);
      settle(slot, recorded_id, o.written_objects, o.written_values);
      chosen = o.chosen_successor;
    } else {
      // Re-executions read the clean timeline, never the store's
      // possibly-"future" values (Theorem 3's ordering guarantee) --
      // unless the risky strategy was chosen (SchedulerOptions).
      auto& reads = scratch_.reads;
      reads.clear();
      for (const auto object : s.spec->task(node).reads) {
        reads.push_back(clean_value(object, slot));
      }
      const auto* read_values = clean_reads_ ? &reads : nullptr;
      InstanceId exec_id;
      if (found) {
        if (!undone_now(orig) && !triple_undone(s.run, node, inc)) {
          // Stale (Theorem 1 c3/c4 discovered dynamically): undo before
          // redo (Theorem 3 rule 3).
          commit_undo(orig);
        }
        exec_id = engine_.apply_redo(orig, slot, read_values);
        outcome_.redone.push_back(orig);
        mark(orig, kVisited);
        // Rule 10 reporting: a candidate redo resolved on-path.
        if (const auto guard = guard_of(orig)) {
          outcome_.resolved.push_back(OrderConstraint{ActionType::kRedo, *guard,
                                                      ActionType::kRedo, orig, 10});
        }
      } else {
        exec_id = engine_.apply_fresh(s.run, node, inc, slot, read_values);
        outcome_.fresh_entries.push_back(exec_id);
      }
      outcome_.action_entries.push_back(exec_id);
      const auto& exec = log_.entry(exec_id);
      scratch_.touched.insert(scratch_.touched.end(), exec.written_objects.begin(),
                        exec.written_objects.end());
      outcome_.work_units += exec.read_objects.size() + exec.written_objects.size() + 1;
      settle(slot, recorded_id, exec.written_objects, exec.written_values);
      chosen = exec.chosen_successor;
    }

    // Branch divergence (Theorem 1 c2): undo everything of this run that
    // has not been replayed yet -- off-path entries stay undone
    // (orphans), re-chosen entries will be redone when the walk reaches
    // them (Theorem 3 rule 8: redo(branch) precedes these undos).
    if (old_choice.has_value() && chosen.has_value() && *old_choice != *chosen) {
      ++outcome_.divergences;
      if (!s.diverged) {
        s.diverged = true;
        for (std::size_t j = 0; j <= s.cursor.step; ++j) {
          ++engine::visit_count(s.visits, log_.entry(s.recorded[j]).task);
        }
      }
      for (std::size_t i = s.recorded.size(); i-- > s.cursor.step + 1;) {
        const auto victim = s.recorded[i];
        ++outcome_.work_units;
        const auto& ve = log_.entry(victim);
        if (visited(victim) || undone_now(victim) ||
            triple_undone(ve.run, ve.task, ve.incarnation)) {
          continue;
        }
        commit_undo(victim);
        outcome_.resolved.push_back(OrderConstraint{ActionType::kRedo, orig,
                                                    ActionType::kUndo, victim, 8});
      }
    }

    // Consume the slot and advance the walk.
    s.cursor.consume();
    if (chosen.has_value()) {
      s.node = *chosen;
    } else if (s.spec->graph().out_degree(node) == 1) {
      s.node = s.spec->graph().successors(node)[0];
    } else {
      s.cursor.done = true;  // end node
      s.node = wfspec::kInvalidTask;
    }
    if (s.halted && s.cursor.in_overflow()) s.cursor.done = true;
    if (s.cursor.done) {
      // Recorded steps the walk never reached lose their writes.
      for (auto k = s.cursor.step; k < s.recorded.size(); ++k) {
        settle(s.cursor.slots[k], s.recorded[k], {}, {});
      }
    }
  }

  void finish_replay() {
    // Every step outside a diverged run is consumed exactly once, so the
    // reused count follows from the effective size without visiting.
    auto reused = static_cast<std::ptrdiff_t>(deps_.schedule().size()) -
                  static_cast<std::ptrdiff_t>(outcome_.redone.size() +
                                              outcome_.fresh_entries.size());
    auto& resync = scratch_.resync;
    resync.clear();
    for (std::size_t i = 0; i < scratch_.walk_of.size(); ++i) {
      const RunState& s = scratch_.runs[i];
      if (!s.diverged) continue;
      reused += static_cast<std::ptrdiff_t>(s.cursor.step + s.cursor.overflow) -
                static_cast<std::ptrdiff_t>(s.recorded.size());
      // Aborted runs are not resumed: their degradation decision
      // outlives recovery.
      if (s.halted && !s.aborted) resync.push_back(s.run);
    }
    outcome_.reused = static_cast<std::size_t>(reused);

    // Resync in-flight runs whose path changed, in run order.
    std::sort(resync.begin(), resync.end());
    for (const auto run : resync) {
      const auto& s = state(run);
      engine_.resume_run(run, s.node, s.visits);
    }

    // Orphans: undone but never re-executed.
    for (const auto id : outcome_.undone) {
      if (!visited(id)) outcome_.orphaned.push_back(id);
    }
  }

  void reconcile() {
    // Only objects this round wrote or restored can differ from the
    // clean timeline: every earlier round left store == timeline.
    auto& touched = scratch_.touched;
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    auto& fixes = scratch_.fixes;
    fixes.clear();
    const auto& store = engine_.store();
    for (const auto object : touched) {
      ++outcome_.work_units;
      const Value clean = clean_value(object, kEndOfTime);
      if (store.read(object) != clean) fixes.emplace_back(object, clean);
    }
    if (!fixes.empty()) {
      const auto rid = engine_.apply_repair(fixes);
      outcome_.repair_entries.push_back(rid);
      outcome_.action_entries.push_back(rid);
    }
  }

  engine::Engine& engine_;
  const engine::SystemLog& log_;
  const deps::DependencyAnalyzer& deps_;
  const RecoveryPlan& plan_;
  const bool clean_reads_;
  RecoveryScheduler::Scratch& scratch_;
  RecoveryOutcome& outcome_;
  SeqNo overflow_base_ = 0;
};

}  // namespace

bool RecoveryOutcome::was_undone(InstanceId id) const {
  return std::find(undone.begin(), undone.end(), id) != undone.end();
}

bool RecoveryOutcome::was_redone(InstanceId id) const {
  return std::find(redone.begin(), redone.end(), id) != redone.end();
}

void RecoveryOutcome::reset() {
  RecoveryOutcome fresh;
  const auto keep = [](auto& to, auto& from) {
    to.swap(from);
    to.clear();
  };
  keep(fresh.action_entries, action_entries);
  keep(fresh.undone, undone);
  keep(fresh.redone, redone);
  keep(fresh.orphaned, orphaned);
  keep(fresh.fresh_entries, fresh_entries);
  keep(fresh.repair_entries, repair_entries);
  keep(fresh.resolved, resolved);
  *this = std::move(fresh);
}

std::string RecoveryOutcome::signature() const {
  std::ostringstream out;
  const auto ids = [&out](const char* name, const std::vector<InstanceId>& v) {
    out << name << ":";
    for (const auto id : v) out << " " << id;
    out << "\n";
  };
  ids("actions", action_entries);
  ids("undone", undone);
  ids("redone", redone);
  ids("orphaned", orphaned);
  ids("fresh", fresh_entries);
  ids("repair", repair_entries);
  out << "reused: " << reused << "\ndivergences: " << divergences << "\nresolved:";
  for (const auto& c : resolved) {
    out << " " << to_string(c.before_type) << c.before << "<"
        << to_string(c.after_type) << c.after << "@r" << c.rule;
  }
  out << "\n";
  return out.str();
}

RecoveryScheduler::RecoveryScheduler(engine::Engine& engine, SchedulerOptions options)
    : engine_(&engine), options_(options) {}

RecoveryScheduler::RecoveryScheduler(engine::Engine& engine,
                                     deps::DependencyAnalyzer& deps,
                                     SchedulerOptions options)
    : engine_(&engine), deps_(&deps), options_(options) {}

RecoveryScheduler::~RecoveryScheduler() = default;

const RecoveryOutcome& RecoveryScheduler::execute(const RecoveryPlan& plan) {
  auto& sm = scheduler_metrics();
  obs::Span span("scheduler.execute", "recovery");
  const obs::ScopedTimerMs timer(sm.execute_ms);

  // The cone is read off the effective schedule as of now: bring the
  // borrowed index up to date (an O(suffix) splice after the previous
  // round), or build one when the caller has none.
  std::optional<deps::DependencyAnalyzer> owned;
  const deps::DependencyAnalyzer* deps = deps_;
  if (deps_ != nullptr) {
    if (!deps_->synced_with(engine_->log())) {
      deps_->refresh(engine_->log(), engine_->specs_by_run());
    }
  } else {
    deps = &owned.emplace(engine_->log(), engine_->specs_by_run());
  }

  if (scratch_ == nullptr) scratch_ = std::make_unique<Scratch>();
  ConeRound(*engine_, *deps, plan, options_.clean_reads, *scratch_).run();
  const RecoveryOutcome& outcome = scratch_->outcome;
  // A clean-read round re-checked every step above the floor.
  if (options_.clean_reads) engine_->clear_unvalidated_read_floor();

  sm.plans_executed.inc();
  sm.undo_tasks.inc(outcome.undone.size());
  sm.redo_tasks.inc(outcome.redone.size());
  sm.fresh_tasks.inc(outcome.fresh_entries.size());
  sm.reused_tasks.inc(outcome.reused);
  sm.orphaned_tasks.inc(outcome.orphaned.size());
  sm.repair_entries.inc(outcome.repair_entries.size());
  sm.divergences.inc(outcome.divergences);
  sm.work_units.inc(outcome.work_units);
  sm.undo_depth.observe(static_cast<double>(outcome.undone.size()));
  if (span.active()) {
    span.set_detail("undone=" + std::to_string(outcome.undone.size()) +
                    " redone=" + std::to_string(outcome.redone.size()) +
                    " reused=" + std::to_string(outcome.reused));
  }
  return outcome;
}

}  // namespace selfheal::recovery
