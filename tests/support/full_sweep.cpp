#include "full_sweep.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>

#include "selfheal/recovery/replay_order.hpp"

namespace selfheal::testing {

namespace {

using engine::InstanceId;
using engine::SeqNo;
using engine::Value;
using recovery::ActionType;
using recovery::OrderConstraint;
using wfspec::ObjectId;
using wfspec::TaskId;

/// One-sweep index of the log's latest execution (and undone state) per
/// (run, task, incarnation).
class EffectiveIndex {
 public:
  explicit EffectiveIndex(const engine::SystemLog& log) {
    for (const auto& e : log.entries()) {
      const Key key{e.run, e.task, e.incarnation};
      switch (e.kind) {
        case engine::ActionKind::kNormal:
        case engine::ActionKind::kMalicious:
        case engine::ActionKind::kRedo:
        case engine::ActionKind::kFresh:
          state_[key] = {e.id, false};
          break;
        case engine::ActionKind::kUndo: {
          const auto it = state_.find(key);
          if (it != state_.end()) it->second.undone = true;
          break;
        }
        case engine::ActionKind::kRepair:
          break;
      }
    }
  }

  [[nodiscard]] std::optional<InstanceId> latest(engine::RunId run, TaskId task,
                                                 int incarnation) const {
    const auto it = state_.find(Key{run, task, incarnation});
    if (it == state_.end()) return std::nullopt;
    return it->second.id;
  }

  [[nodiscard]] bool undone(engine::RunId run, TaskId task, int incarnation) const {
    const auto it = state_.find(Key{run, task, incarnation});
    return it != state_.end() && it->second.undone;
  }

  void mark_undone(engine::RunId run, TaskId task, int incarnation) {
    state_[Key{run, task, incarnation}].undone = true;
  }
  void record_execution(engine::RunId run, TaskId task, int incarnation,
                        InstanceId id) {
    state_[Key{run, task, incarnation}] = {id, false};
  }

 private:
  struct Key {
    engine::RunId run;
    TaskId task;
    int incarnation;
    auto operator<=>(const Key&) const = default;
  };
  struct State {
    InstanceId id = engine::kInvalidInstance;
    bool undone = false;
  };
  std::map<Key, State> state_;
};

/// The clean timeline: object values as a benign execution over the
/// logical slots would produce them.
class SimStore {
 public:
  [[nodiscard]] Value get(ObjectId o) const {
    const auto it = values_.find(o);
    return it == values_.end() ? engine::initial_value(o) : it->second;
  }
  void put(ObjectId o, Value v) { values_[o] = v; }
  [[nodiscard]] const std::map<ObjectId, Value>& values() const { return values_; }

 private:
  std::map<ObjectId, Value> values_;
};

}  // namespace

recovery::RecoveryOutcome full_sweep_execute(engine::Engine& engine,
                                             const recovery::RecoveryPlan& plan,
                                             bool clean_reads) {
  const auto& log = engine.log();
  const auto specs = engine.specs_by_run();
  recovery::RecoveryOutcome outcome;

  // Snapshot the effective execution BEFORE this round commits anything.
  const auto effective = log.effective();
  EffectiveIndex index(log);
  std::map<engine::RunId, std::vector<InstanceId>> run_slots;
  for (const auto id : effective) {
    run_slots[log.entry(id).run].push_back(id);  // already slot-sorted
  }

  // Guard map for rule-10 reporting: instance -> guarding branch.
  std::map<InstanceId, InstanceId> guard_of;
  for (const auto& c : plan.candidate_undos) guard_of.emplace(c.instance, c.guard_branch);
  for (const auto& c : plan.candidate_redos) guard_of.emplace(c.instance, c.guard_branch);

  std::set<InstanceId> undone_now;
  const auto skip_undone = [&undone_now](InstanceId writer) {
    return undone_now.count(writer) > 0;
  };

  auto commit_undo = [&](InstanceId victim) {
    const auto uid = engine.apply_undo(victim, skip_undone);
    undone_now.insert(victim);
    outcome.undone.push_back(victim);
    outcome.action_entries.push_back(uid);
    const auto& ve = log.entry(victim);
    index.mark_undone(ve.run, ve.task, ve.incarnation);
    outcome.work_units += ve.written_objects.size() + 1;
  };

  // ---- Phase 1: undo the damage closure, reverse slot order. ----
  std::vector<InstanceId> damage = plan.damaged;
  std::sort(damage.begin(), damage.end(), [&](InstanceId a, InstanceId b) {
    const auto sa = log.entry(a).logical_slot;
    const auto sb = log.entry(b).logical_slot;
    return sa != sb ? sa > sb : a > b;
  });
  for (const auto id : damage) {
    const auto& e = log.entry(id);
    if (index.undone(e.run, e.task, e.incarnation)) {
      undone_now.insert(id);
      continue;
    }
    commit_undo(id);
  }

  // ---- Phase 2: slot-ordered replay of every run over a clean timeline.
  SimStore sim;

  struct RunState {
    engine::RunId run = engine::kInvalidRun;
    const wfspec::WorkflowSpec* spec = nullptr;
    TaskId cursor = wfspec::kInvalidTask;
    bool was_active = false;
    bool aborted = false;
    bool diverged = false;
    engine::VisitCounts visits;

    [[nodiscard]] bool halted() const { return was_active || aborted; }
  };
  SeqNo overflow_base = log.next_slot();
  for (const auto id : effective) {
    overflow_base = std::max(overflow_base, log.entry(id).logical_slot + 1);
  }

  std::vector<RunState> states;
  std::vector<recovery::ReplayCursor> cursors(engine.run_count());
  for (std::size_t r = 0; r < engine.run_count(); ++r) {
    RunState s;
    s.run = static_cast<engine::RunId>(r);
    s.spec = specs[r];
    s.cursor = s.spec->start();
    s.was_active = engine.run_active(s.run);
    s.aborted = engine.run_aborted(s.run);
    cursors[r].overflow_base = overflow_base;
    for (const auto id : run_slots[s.run]) {
      cursors[r].slots.push_back(log.entry(id).logical_slot);
    }
    if (cursors[r].slots.empty() && (!s.was_active || s.aborted)) {
      cursors[r].done = true;
    }
    states.push_back(std::move(s));
  }

  std::set<InstanceId> visited;
  while (true) {
    const auto pick = recovery::pick_next_run(cursors);
    if (pick == static_cast<std::size_t>(-1)) break;
    RunState& s = states[pick];
    recovery::ReplayCursor& cursor = cursors[pick];
    const auto& slots = run_slots[s.run];

    if (s.halted() && cursor.in_overflow()) {
      cursor.done = true;
      continue;
    }

    const TaskId node = s.cursor;
    const int inc = ++engine::visit_count(s.visits, node);
    if (inc > engine.config().max_incarnations) {
      throw std::runtime_error("full sweep: replay exceeded max incarnations");
    }
    const SeqNo slot = cursor.next_slot(s.run);

    const auto found = index.latest(s.run, node, inc);
    std::optional<engine::TaskInstance> orig;
    if (found) orig = log.entry(*found);
    std::optional<TaskId> old_choice;
    if (orig.has_value()) old_choice = orig->chosen_successor;

    std::optional<TaskId> chosen;
    bool reused = false;
    if (orig.has_value() && orig->kind != engine::ActionKind::kMalicious &&
        undone_now.count(orig->id) == 0 && !index.undone(s.run, node, inc)) {
      reused = true;
      for (std::size_t i = 0; i < orig->read_objects.size(); ++i) {
        ++outcome.work_units;
        if (sim.get(orig->read_objects[i]) != orig->read_values[i]) {
          reused = false;
          break;
        }
      }
    }

    if (reused) {
      visited.insert(orig->id);
      ++outcome.reused;
      for (std::size_t i = 0; i < orig->written_objects.size(); ++i) {
        sim.put(orig->written_objects[i], orig->written_values[i]);
      }
      chosen = orig->chosen_successor;
    } else {
      std::vector<Value> reads;
      for (const auto object : s.spec->task(node).reads) {
        reads.push_back(sim.get(object));
      }
      const auto* read_values = clean_reads ? &reads : nullptr;
      InstanceId exec_id;
      if (orig.has_value()) {
        if (undone_now.count(orig->id) == 0 && !index.undone(s.run, node, inc)) {
          commit_undo(orig->id);
        }
        exec_id = engine.apply_redo(orig->id, slot, read_values);
        outcome.redone.push_back(orig->id);
        visited.insert(orig->id);
        const auto git = guard_of.find(orig->id);
        if (git != guard_of.end()) {
          outcome.resolved.push_back(OrderConstraint{ActionType::kRedo, git->second,
                                                     ActionType::kRedo, orig->id, 10});
        }
      } else {
        exec_id = engine.apply_fresh(s.run, node, inc, slot, read_values);
        outcome.fresh_entries.push_back(exec_id);
      }
      outcome.action_entries.push_back(exec_id);
      index.record_execution(s.run, node, inc, exec_id);
      const auto& exec = log.entry(exec_id);
      outcome.work_units += exec.read_objects.size() + exec.written_objects.size() + 1;
      for (std::size_t i = 0; i < exec.written_objects.size(); ++i) {
        sim.put(exec.written_objects[i], exec.written_values[i]);
      }
      chosen = exec.chosen_successor;
    }

    if (orig.has_value() && old_choice.has_value() && chosen.has_value() &&
        *old_choice != *chosen) {
      ++outcome.divergences;
      s.diverged = true;
      for (std::size_t i = slots.size(); i-- > cursor.step + 1;) {
        const auto victim = slots[i];
        ++outcome.work_units;
        const auto& ve = log.entry(victim);
        if (visited.count(victim) || undone_now.count(victim) ||
            index.undone(ve.run, ve.task, ve.incarnation)) {
          continue;
        }
        commit_undo(victim);
        outcome.resolved.push_back(OrderConstraint{ActionType::kRedo, orig->id,
                                                   ActionType::kUndo, victim, 8});
      }
    }

    cursor.consume();
    if (chosen.has_value()) {
      s.cursor = *chosen;
    } else if (s.spec->graph().out_degree(node) == 1) {
      s.cursor = s.spec->graph().successors(node)[0];
    } else {
      cursor.done = true;
      s.cursor = wfspec::kInvalidTask;
    }
    if (s.halted() && cursor.in_overflow()) cursor.done = true;
  }

  for (auto& s : states) {
    if (s.was_active && !s.aborted && s.diverged) {
      engine.resume_run(s.run, s.cursor, s.visits);
    }
  }
  for (const auto id : outcome.undone) {
    if (!visited.count(id)) outcome.orphaned.push_back(id);
  }

  // ---- Phase 3: reconcile every object against the clean timeline. ----
  std::vector<std::pair<ObjectId, Value>> fixes;
  const auto& store = engine.store();
  for (std::size_t o = 0; o < store.object_count(); ++o) {
    const auto object = static_cast<ObjectId>(o);
    ++outcome.work_units;
    if (store.read(object) != sim.get(object)) {
      fixes.emplace_back(object, sim.get(object));
    }
  }
  for (const auto& [object, value] : sim.values()) {
    if (static_cast<std::size_t>(object) >= store.object_count()) {
      fixes.emplace_back(object, value);
    }
  }
  if (!fixes.empty()) {
    const auto rid = engine.apply_repair(fixes);
    outcome.repair_entries.push_back(rid);
    outcome.action_entries.push_back(rid);
  }
  if (clean_reads) engine.clear_unvalidated_read_floor();
  return outcome;
}

}  // namespace selfheal::testing
