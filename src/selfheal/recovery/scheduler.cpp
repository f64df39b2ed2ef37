#include "selfheal/recovery/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <queue>
#include <span>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "selfheal/obs/metrics.hpp"
#include "selfheal/obs/trace.hpp"
#include "selfheal/recovery/replay_order.hpp"

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

/// One recovery round over the damage cone. The borrowed dependence
/// index describes the effective schedule as it was when the round
/// began (the "recorded timeline"); the round's own commits are tracked
/// in an overlay on top of it.
class ConeRound {
 public:
  ConeRound(engine::Engine& engine, const deps::DependencyAnalyzer& deps,
            const RecoveryPlan& plan, bool clean_reads, RecoveryOutcome& outcome)
      : engine_(engine), log_(engine.log()), deps_(deps), plan_(plan),
        clean_reads_(clean_reads), outcome_(outcome) {}

  void run() {
    const auto seeds = collect_seeds();

    // ---- Phase 1: undo the damage closure, reverse slot order. ----
    obs::Span undo_span("scheduler.undo_phase", "recovery");
    auto phase_start = std::chrono::steady_clock::now();
    std::vector<InstanceId> damage = plan_.damaged;
    std::sort(damage.begin(), damage.end(), [&](InstanceId a, InstanceId b) {
      const auto sa = log_.entry(a).logical_slot;
      const auto sb = log_.entry(b).logical_slot;
      return sa != sb ? sa > sb : a > b;
    });
    for (const auto id : damage) {
      const auto& e = log_.entry(id);
      if (triple_undone(e.run, e.task, e.incarnation)) {
        undone_now_.insert(id);
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
    for (const auto& [slot, run] : seeds) request(slot, run);
    while (!pending_.empty()) {
      const auto [slot, run] = pending_.top();
      pending_.pop();
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
  /// The walk of one run this round touched. Runs the round never
  /// touches keep their recorded path and are not represented at all.
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
  };

  using Request = std::pair<SeqNo, engine::RunId>;

  [[nodiscard]] std::vector<Request> collect_seeds() const {
    std::vector<Request> seeds;
    // Rule 1: the LIVE execution of every damaged triple (candidate
    // redos included) -- an earlier round may have moved a triple to
    // another slot. Candidate undos are not seeds: one whose fate
    // changes is reached through its run's divergence or a changed read,
    // and the Theorem 1 c4 closure can name most of the log.
    for (const auto id : plan_.damaged) {
      const auto& e = log_.entry(id);
      const auto live = log_.find_latest_execution(e.run, e.task, e.incarnation);
      if (live && log_.is_live_execution(*live)) {
        seeds.emplace_back(log_.entry(*live).logical_slot, e.run);
      }
    }
    // Rule 2: every live malicious entry is redone wherever it sits.
    for (const auto id : deps_.taint_sources()) {
      const auto& e = log_.entry(id);
      seeds.emplace_back(e.logical_slot, e.run);
    }
    // Rule 3: recorded reads at or above the floor may disagree with the
    // effective schedule, so every step there is re-checked.
    if (const SeqNo floor = engine_.unvalidated_read_floor(); floor > 0) {
      const auto schedule = deps_.schedule();
      auto it = std::lower_bound(
          schedule.begin(), schedule.end(), floor,
          [&](InstanceId id, SeqNo s) { return log_.entry(id).logical_slot < s; });
      for (; it != schedule.end(); ++it) {
        const auto& e = log_.entry(*it);
        seeds.emplace_back(e.logical_slot, e.run);
      }
    }
    return seeds;
  }

  void request(SeqNo slot, engine::RunId run) { pending_.emplace(slot, run); }

  RunState& state(engine::RunId run) {
    const auto [it, inserted] = runs_.try_emplace(run);
    RunState& s = it->second;
    if (inserted) {
      s.run = run;
      s.spec = &engine_.spec_of(run);
      s.recorded = deps_.run_instances(run);
      s.halted = engine_.run_active(run) || engine_.run_aborted(run);
      s.aborted = engine_.run_aborted(run);
      s.cursor.overflow_base = overflow_base_;
      s.cursor.slots.reserve(s.recorded.size());
      for (const auto id : s.recorded) {
        s.cursor.slots.push_back(log_.entry(id).logical_slot);
      }
      if (s.cursor.slots.empty() && (!engine_.run_active(run) || s.aborted)) {
        s.cursor.done = true;
      }
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
    if (!undo_guards_) {
      undo_guards_.emplace();
      for (const auto& c : plan_.candidate_undos) {
        undo_guards_->emplace(c.instance, c.guard_branch);
      }
    }
    const auto it = undo_guards_->find(id);
    if (it == undo_guards_->end()) return std::nullopt;
    return it->second;
  }

  [[nodiscard]] bool triple_undone(engine::RunId run, TaskId task, int inc) const {
    const auto latest = log_.find_latest_execution(run, task, inc);
    return latest && log_.currently_undone(*latest);
  }

  void commit_undo(InstanceId victim) {
    const auto uid = engine_.apply_undo(
        victim, [this](InstanceId writer) { return undone_now_.count(writer) > 0; });
    undone_now_.insert(victim);
    outcome_.undone.push_back(victim);
    outcome_.action_entries.push_back(uid);
    const auto& written = log_.entry(victim).written_objects;
    touched_.insert(touched_.end(), written.begin(), written.end());
    outcome_.work_units += written.size() + 1;
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
    const auto ov = overlay_.find(object);
    const auto* changes = ov == overlay_.end() ? nullptr : &ov->second;
    auto c = changes != nullptr ? changes->lower_bound(slot)
                                : std::map<SeqNo, std::optional<Value>>::const_iterator{};
    while (true) {
      const bool has_change = changes != nullptr && c != changes->begin();
      if (has_change) {
        const auto prior = std::prev(c);
        if (w == 0 || prior->first >= writers[w - 1].slot) {
          if (prior->second) return *prior->second;
          // A removed write: fall back past the recorded one it removed.
          while (w > 0 && writers[w - 1].slot == prior->first) --w;
          c = prior;
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
          overlay_[object][slot] = std::nullopt;
          changed(object, slot);
        }
      }
    }
    for (std::size_t i = 0; i < objects.size(); ++i) {
      // Same value as recorded: nothing downstream moves.
      if (rec != nullptr && written_value(*rec, objects[i]) == values[i]) continue;
      overlay_[objects[i]][slot] = values[i];
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

    const auto found = log_.find_latest_execution(s.run, node, inc);
    // Copy, not reference: committing recovery entries appends to the
    // log and may reallocate its storage.
    std::optional<engine::TaskInstance> orig;
    if (found) orig = log_.entry(*found);
    std::optional<TaskId> old_choice;
    if (orig.has_value()) old_choice = orig->chosen_successor;

    std::optional<TaskId> chosen;
    bool reused = false;
    if (orig.has_value() && orig->kind != engine::ActionKind::kMalicious &&
        undone_now_.count(orig->id) == 0 && !triple_undone(s.run, node, inc)) {
      reused = true;
      for (std::size_t i = 0; i < orig->read_objects.size(); ++i) {
        ++outcome_.work_units;
        if (clean_value(orig->read_objects[i], slot) != orig->read_values[i]) {
          reused = false;
          break;
        }
      }
    }

    if (reused) {
      visited_.insert(orig->id);
      settle(slot, recorded_id, orig->written_objects, orig->written_values);
      chosen = orig->chosen_successor;
    } else {
      // Re-executions read the clean timeline, never the store's
      // possibly-"future" values (Theorem 3's ordering guarantee) --
      // unless the risky strategy was chosen (SchedulerOptions).
      std::vector<Value> reads;
      for (const auto object : s.spec->task(node).reads) {
        reads.push_back(clean_value(object, slot));
      }
      const auto* read_values = clean_reads_ ? &reads : nullptr;
      InstanceId exec_id;
      if (orig.has_value()) {
        if (undone_now_.count(orig->id) == 0 && !triple_undone(s.run, node, inc)) {
          // Stale (Theorem 1 c3/c4 discovered dynamically): undo before
          // redo (Theorem 3 rule 3).
          commit_undo(orig->id);
        }
        exec_id = engine_.apply_redo(orig->id, slot, read_values);
        outcome_.redone.push_back(orig->id);
        visited_.insert(orig->id);
        // Rule 10 reporting: a candidate redo resolved on-path.
        if (const auto guard = guard_of(orig->id)) {
          outcome_.resolved.push_back(OrderConstraint{ActionType::kRedo, *guard,
                                                      ActionType::kRedo, orig->id, 10});
        }
      } else {
        exec_id = engine_.apply_fresh(s.run, node, inc, slot, read_values);
        outcome_.fresh_entries.push_back(exec_id);
      }
      outcome_.action_entries.push_back(exec_id);
      const auto exec = log_.entry(exec_id);
      touched_.insert(touched_.end(), exec.written_objects.begin(),
                      exec.written_objects.end());
      outcome_.work_units += exec.read_objects.size() + exec.written_objects.size() + 1;
      settle(slot, recorded_id, exec.written_objects, exec.written_values);
      chosen = exec.chosen_successor;
    }

    // Branch divergence (Theorem 1 c2): undo everything of this run that
    // has not been replayed yet -- off-path entries stay undone
    // (orphans), re-chosen entries will be redone when the walk reaches
    // them (Theorem 3 rule 8: redo(branch) precedes these undos).
    if (orig.has_value() && old_choice.has_value() && chosen.has_value() &&
        *old_choice != *chosen) {
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
        if (visited_.count(victim) || undone_now_.count(victim) ||
            triple_undone(ve.run, ve.task, ve.incarnation)) {
          continue;
        }
        commit_undo(victim);
        outcome_.resolved.push_back(OrderConstraint{ActionType::kRedo, orig->id,
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
    std::vector<engine::RunId> resync;
    for (const auto& [run, s] : runs_) {
      if (!s.diverged) continue;
      reused += static_cast<std::ptrdiff_t>(s.cursor.step + s.cursor.overflow) -
                static_cast<std::ptrdiff_t>(s.recorded.size());
      // Aborted runs are not resumed: their degradation decision
      // outlives recovery.
      if (s.halted && !s.aborted) resync.push_back(run);
    }
    outcome_.reused = static_cast<std::size_t>(reused);

    // Resync in-flight runs whose path changed, in run order.
    std::sort(resync.begin(), resync.end());
    for (const auto run : resync) {
      const auto& s = runs_.at(run);
      engine_.resume_run(run, s.node, s.visits);
    }

    // Orphans: undone but never re-executed.
    for (const auto id : outcome_.undone) {
      if (!visited_.count(id)) outcome_.orphaned.push_back(id);
    }
  }

  void reconcile() {
    // Only objects this round wrote or restored can differ from the
    // clean timeline: every earlier round left store == timeline.
    std::sort(touched_.begin(), touched_.end());
    touched_.erase(std::unique(touched_.begin(), touched_.end()), touched_.end());
    std::vector<std::pair<ObjectId, Value>> fixes;
    const auto& store = engine_.store();
    for (const auto object : touched_) {
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
  RecoveryOutcome& outcome_;

  /// Candidate undo -> guarding branch, built on first use.
  std::optional<std::unordered_map<InstanceId, InstanceId>> undo_guards_;
  std::unordered_set<InstanceId> undone_now_;
  std::unordered_set<InstanceId> visited_;
  std::vector<ObjectId> touched_;
  /// This round's changes to the recorded timeline, per object and
  /// slot: the value written there, or nullopt where a recorded write
  /// was removed.
  std::unordered_map<ObjectId, std::map<SeqNo, std::optional<Value>>> overlay_;
  std::unordered_map<engine::RunId, RunState> runs_;
  std::priority_queue<Request, std::vector<Request>, std::greater<>> pending_;
  SeqNo overflow_base_ = 0;
};

}  // namespace

bool RecoveryOutcome::was_undone(InstanceId id) const {
  return std::find(undone.begin(), undone.end(), id) != undone.end();
}

bool RecoveryOutcome::was_redone(InstanceId id) const {
  return std::find(redone.begin(), redone.end(), id) != redone.end();
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

RecoveryOutcome RecoveryScheduler::execute(const RecoveryPlan& plan) {
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

  RecoveryOutcome outcome;
  ConeRound(*engine_, *deps, plan, options_.clean_reads, outcome).run();
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
