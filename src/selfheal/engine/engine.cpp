#include "selfheal/engine/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "selfheal/obs/metrics.hpp"
#include "selfheal/obs/trace.hpp"

namespace selfheal::engine {

namespace {

/// Instrument references resolved once: the per-commit fast path is one
/// relaxed atomic increment per counter touched.
struct EngineMetrics {
  obs::Counter& tasks_executed = obs::metrics().counter("engine.tasks_executed");
  obs::Counter& tasks_malicious = obs::metrics().counter("engine.tasks_malicious");
  obs::Counter& redo_actions = obs::metrics().counter("engine.redo_actions");
  obs::Counter& fresh_actions = obs::metrics().counter("engine.fresh_actions");
  obs::Counter& undo_actions = obs::metrics().counter("engine.undo_actions");
  obs::Counter& repair_actions = obs::metrics().counter("engine.repair_actions");
  obs::Counter& runs_started = obs::metrics().counter("engine.runs_started");
  obs::Counter& task_retries = obs::metrics().counter("engine.task_retries");
  obs::Counter& transient_faults = obs::metrics().counter("engine.transient_faults");
  obs::Counter& permanent_faults = obs::metrics().counter("engine.permanent_faults");
  obs::Counter& runs_aborted = obs::metrics().counter("engine.runs_aborted");
  obs::Gauge& backoff_units = obs::metrics().gauge("engine.backoff_units");
};

EngineMetrics& engine_metrics() {
  static EngineMetrics m;
  return m;
}

const char* span_name(ActionKind kind) {
  switch (kind) {
    case ActionKind::kNormal: return "engine.task";
    case ActionKind::kMalicious: return "engine.task.malicious";
    case ActionKind::kRedo: return "engine.task.redo";
    case ActionKind::kFresh: return "engine.task.fresh";
    case ActionKind::kUndo: return "engine.undo";
    case ActionKind::kRepair: return "engine.repair";
  }
  return "engine.task";
}

}  // namespace

Engine::Engine(EngineConfig config) : config_(config), rng_(config.seed) {}

void Engine::set_schedule(std::vector<RunId> schedule) {
  schedule_ = std::move(schedule);
  schedule_cursor_ = 0;
}

RunId Engine::start_run(const wfspec::WorkflowSpec& spec) {
  if (!spec.validated()) {
    throw std::logic_error("Engine::start_run: spec '" + spec.name() +
                           "' not validated");
  }
  Run run;
  run.spec = &spec;
  run.pc = spec.start();
  runs_.push_back(std::move(run));
  set_active(runs_.size() - 1, true);
  engine_metrics().runs_started.inc();
  const auto id = static_cast<RunId>(runs_.size() - 1);
  if (durability_observer_) durability_observer_->on_run_started(*this, id);
  return id;
}

void Engine::inject_malicious(RunId run, wfspec::TaskId task, int incarnation) {
  auto& r = runs_.at(static_cast<std::size_t>(run));
  if (visits_of(r, task) >= incarnation) {
    throw std::logic_error("inject_malicious: instance already executed");
  }
  r.malicious.emplace(task, incarnation);
  if (durability_observer_) durability_observer_->on_control_change(*this, run);
}

void Engine::set_active(std::size_t index, bool active) {
  Run& run = runs_[index];
  if (run.active == active) return;
  run.active = active;
  const auto it = std::lower_bound(active_.begin(), active_.end(), index);
  if (active) {
    active_.insert(it, index);
  } else {
    active_.erase(it);
  }
}

bool Engine::step() {
  if (active_.empty()) return false;

  std::size_t pick = 0;
  bool picked = false;
  if (config_.interleave == Interleave::kExplicit) {
    // Consume schedule slots, skipping completed runs.
    while (schedule_cursor_ < schedule_.size()) {
      const auto candidate = schedule_[schedule_cursor_++];
      if (candidate >= 0 && static_cast<std::size_t>(candidate) < runs_.size() &&
          runs_[static_cast<std::size_t>(candidate)].active) {
        pick = static_cast<std::size_t>(candidate);
        picked = true;
        break;
      }
    }
  }
  if (picked) {
    // fall through to execution below
  } else if (config_.interleave == Interleave::kRandom) {
    pick = active_[rng_.index_into(active_)];
  } else {
    // Round-robin: next active run at or after the cursor.
    const auto next = std::lower_bound(active_.begin(), active_.end(), rr_cursor_);
    pick = next != active_.end() ? *next : active_.front();
    rr_cursor_ = pick + 1;
    if (rr_cursor_ >= runs_.size()) rr_cursor_ = 0;
  }

  advance(pick);
  return true;
}

bool Engine::step_run(RunId run) {
  if (run < 0 || static_cast<std::size_t>(run) >= runs_.size() ||
      !runs_[static_cast<std::size_t>(run)].active) {
    return false;
  }
  advance(static_cast<std::size_t>(run));
  return true;
}

void Engine::set_fault_injector(FaultInjector injector) {
  fault_injector_ = std::move(injector);
}

void Engine::abort_run(RunId run_id) {
  runs_.at(static_cast<std::size_t>(run_id)).aborted = true;
  set_active(static_cast<std::size_t>(run_id), false);
  if (durability_observer_) {
    durability_observer_->on_control_change(*this, run_id);
  }
}

bool Engine::run_aborted(RunId run) const {
  return runs_.at(static_cast<std::size_t>(run)).aborted;
}

void Engine::advance(std::size_t pick) {
  Run& run = runs_[pick];
  const wfspec::TaskId task = run.pc;
  const int incarnation = visit_count(run, task) + 1;

  if (fault_injector_) {
    auto& em = engine_metrics();
    double backoff = config_.retry.backoff_base;
    for (int attempt = 1;; ++attempt) {
      const TaskFault fault =
          fault_injector_(static_cast<RunId>(pick), task, incarnation, attempt);
      if (fault == TaskFault::kNone) break;
      if (fault == TaskFault::kTransient) em.transient_faults.inc();
      if (fault == TaskFault::kPermanent ||
          attempt > config_.retry.max_retries) {
        if (fault == TaskFault::kPermanent) em.permanent_faults.inc();
        em.runs_aborted.inc();
        abort_run(static_cast<RunId>(pick));
        return;  // graceful degradation: nothing commits for this run
      }
      em.task_retries.inc();
      em.backoff_units.add(backoff);
      backoff *= config_.retry.backoff_multiplier;
    }
  }
  if (incarnation > config_.max_incarnations) {
    throw std::runtime_error("Engine: task " + run.spec->task(task).name +
                             " exceeded max incarnations (cyclic workflow?)");
  }
  visit_count(run, task) = incarnation;

  const bool malicious = run.malicious.count({task, incarnation}) > 0;
  const auto id = execute(static_cast<RunId>(pick), task, incarnation,
                          malicious ? ActionKind::kMalicious : ActionKind::kNormal,
                          kInvalidInstance, /*logical_slot=*/0);
  if (malicious) run.malicious_entries.push_back(id);

  // Advance the program counter along the (possibly chosen) successor.
  const auto& committed = log_.entry(id);
  if (committed.chosen_successor) {
    run.pc = *committed.chosen_successor;
  } else if (run.spec->graph().out_degree(task) == 1) {
    run.pc = run.spec->graph().successors(task)[0];
  } else {
    set_active(pick, false);  // end node reached
  }
  // Fire after the pc/visits update: the observer's view of run control
  // must already include this commit's consequences.
  if (durability_observer_) durability_observer_->on_commit(*this, committed);
}

void Engine::run_all() {
  while (step()) {
  }
}

bool Engine::run_active(RunId run) const {
  return runs_.at(static_cast<std::size_t>(run)).active;
}

const wfspec::WorkflowSpec& Engine::spec_of(RunId run) const {
  return *runs_.at(static_cast<std::size_t>(run)).spec;
}

const std::vector<InstanceId>& Engine::malicious_entries(RunId run) const {
  return runs_.at(static_cast<std::size_t>(run)).malicious_entries;
}

std::vector<const wfspec::WorkflowSpec*> Engine::specs_by_run() const {
  std::vector<const wfspec::WorkflowSpec*> result;
  result.reserve(runs_.size());
  for (const auto& r : runs_) result.push_back(r.spec);
  return result;
}

TaskInstance Engine::build_instance(RunId run_id, wfspec::TaskId task,
                                    int incarnation, ActionKind kind,
                                    InstanceId target, SeqNo logical_slot,
                                    const std::vector<Value>* read_override) const {
  const Run& run = runs_.at(static_cast<std::size_t>(run_id));
  const auto& spec = *run.spec;
  const auto& task_spec = spec.task(task);
  const bool malicious = kind == ActionKind::kMalicious;

  TaskInstance entry;
  entry.run = run_id;
  entry.task = task;
  entry.incarnation = incarnation;
  entry.kind = kind;
  entry.target = target;
  entry.logical_slot = logical_slot;

  // Read phase.
  entry.read_objects.assign(task_spec.reads);
  if (read_override != nullptr) {
    if (read_override->size() != task_spec.reads.size()) {
      throw std::invalid_argument(
          "Engine::build_instance: read override size mismatch");
    }
    entry.read_values.assign(*read_override);
  } else {
    entry.read_values.reserve(task_spec.reads.size());
    for (const auto object : task_spec.reads) {
      entry.read_values.push_back(store_.read(object));
    }
  }

  // Compute phase.
  const auto seed = task_seed(spec.name(), task_spec.name);
  entry.written_objects.assign(task_spec.writes);
  entry.written_values.reserve(task_spec.writes.size());
  for (const auto object : task_spec.writes) {
    Value out = compute_output(seed, object, incarnation, entry.read_values);
    if (malicious) out = corrupt(out);
    entry.written_values.push_back(out);
  }

  // Branch decision from the selector object's (possibly corrupted) value.
  if (spec.is_branch(task)) {
    const auto selector = *task_spec.selector;
    Value sel_value = 0;
    for (std::size_t i = 0; i < entry.read_objects.size(); ++i) {
      if (entry.read_objects[i] == selector) sel_value = entry.read_values[i];
    }
    if (malicious) sel_value = corrupt(sel_value);
    const auto& succ = spec.graph().successors(task);
    entry.chosen_successor = succ[choose_branch(sel_value, succ.size())];
  }

  return entry;
}

InstanceId Engine::commit_instance(TaskInstance entry) {
  // Commit phase: write the store, then append to the log.
  const SeqNo seq = next_seq();
  const auto id = static_cast<InstanceId>(log_.size());
  for (std::size_t i = 0; i < entry.written_objects.size(); ++i) {
    store_.write(entry.written_objects[i], entry.written_values[i], seq, id);
  }
  return log_.append(std::move(entry));
}

InstanceId Engine::execute(RunId run_id, wfspec::TaskId task, int incarnation,
                           ActionKind kind, InstanceId target, SeqNo logical_slot,
                           const std::vector<Value>* read_override) {
  const bool malicious = kind == ActionKind::kMalicious;
  auto& em = engine_metrics();
  em.tasks_executed.inc();
  if (malicious) em.tasks_malicious.inc();
  if (kind == ActionKind::kRedo) em.redo_actions.inc();
  if (kind == ActionKind::kFresh) em.fresh_actions.inc();
  obs::Span span(span_name(kind), "engine");
  if (span.active()) {
    const auto& spec = *runs_.at(static_cast<std::size_t>(run_id)).spec;
    span.set_detail(spec.name() + ":" + spec.task(task).name);
  }
  return commit_instance(build_instance(run_id, task, incarnation, kind, target,
                                        logical_slot, read_override));
}

InstanceId Engine::apply_undo(InstanceId target,
                              const VersionedStore::WriterFilter& skip_writer) {
  const auto& victim = log_.entry(target);
  if (victim.kind == ActionKind::kUndo || victim.kind == ActionKind::kRepair) {
    throw std::logic_error("apply_undo: target is not an execution entry");
  }

  engine_metrics().undo_actions.inc();
  obs::Span span("engine.undo", "engine");

  TaskInstance entry;
  entry.run = victim.run;
  entry.task = victim.task;
  entry.incarnation = victim.incarnation;
  entry.kind = ActionKind::kUndo;
  entry.target = target;
  entry.logical_slot = victim.logical_slot;

  const SeqNo seq = next_seq();
  const auto id = static_cast<InstanceId>(log_.size());
  for (const auto object : victim.written_objects) {
    entry.written_objects.push_back(object);
    entry.written_values.push_back(
        store_.restore_before(object, victim.seq, seq, id, skip_writer));
  }
  const auto undo_id = log_.append(std::move(entry));
  if (durability_observer_) {
    durability_observer_->on_commit(*this, log_.entry(undo_id));
  }
  return undo_id;
}

InstanceId Engine::apply_redo(InstanceId target, SeqNo logical_slot,
                              const std::vector<Value>* read_values) {
  const auto& victim = log_.entry(target);
  const SeqNo slot = logical_slot > 0 ? logical_slot : victim.logical_slot;
  const auto id = execute(victim.run, victim.task, victim.incarnation,
                          ActionKind::kRedo, target, slot, read_values);
  if (read_values == nullptr) note_unvalidated_read(slot);
  if (durability_observer_) durability_observer_->on_commit(*this, log_.entry(id));
  return id;
}

InstanceId Engine::apply_fresh(RunId run, wfspec::TaskId task, int incarnation,
                               SeqNo logical_slot,
                               const std::vector<Value>* read_values) {
  const auto id = execute(run, task, incarnation, ActionKind::kFresh,
                          kInvalidInstance, logical_slot, read_values);
  if (read_values == nullptr) note_unvalidated_read(logical_slot);
  if (durability_observer_) durability_observer_->on_commit(*this, log_.entry(id));
  return id;
}

void Engine::note_unvalidated_read(SeqNo slot) {
  if (unvalidated_read_floor_ == 0 || slot < unvalidated_read_floor_) {
    unvalidated_read_floor_ = slot;
  }
}

InstanceId Engine::apply_repair(
    const std::vector<std::pair<wfspec::ObjectId, Value>>& fixes) {
  engine_metrics().repair_actions.inc();
  obs::Span span("engine.repair", "engine");
  TaskInstance entry;
  entry.kind = ActionKind::kRepair;
  const SeqNo seq = next_seq();
  const auto id = static_cast<InstanceId>(log_.size());
  for (const auto& [object, value] : fixes) {
    entry.written_objects.push_back(object);
    entry.written_values.push_back(value);
    store_.write(object, value, seq, id);
  }
  const auto repair_id = log_.append(std::move(entry));
  if (durability_observer_) {
    durability_observer_->on_commit(*this, log_.entry(repair_id));
  }
  return repair_id;
}

Engine::RunSnapshot Engine::run_snapshot(RunId run_id) const {
  const Run& run = runs_.at(static_cast<std::size_t>(run_id));
  RunSnapshot snapshot;
  snapshot.pc = run.active ? run.pc : wfspec::kInvalidTask;
  snapshot.active = run.active;
  snapshot.aborted = run.aborted;
  snapshot.visits.insert(run.visits.begin(), run.visits.end());
  for (const auto& [task, inc] : run.malicious) {
    // Only injections that have not fired yet are still pending; fired
    // ones live on in the log as kMalicious entries.
    if (inc > visits_of(run, task)) snapshot.pending_malicious.emplace_back(task, inc);
  }
  return snapshot;
}

void Engine::import_entry(TaskInstance entry) {
  for (std::size_t i = 0; i < entry.written_objects.size(); ++i) {
    store_.write(entry.written_objects[i], entry.written_values[i], entry.seq,
                 entry.id);
  }
  const auto id = entry.id;
  const auto kind = entry.kind;
  const auto run = static_cast<std::size_t>(entry.run);
  const auto slot = entry.logical_slot;
  log_.restore_entry(std::move(entry));
  if (kind == ActionKind::kRedo || kind == ActionKind::kFresh) {
    note_unvalidated_read(slot);
  }
  if (kind == ActionKind::kMalicious && run < runs_.size()) {
    runs_[run].malicious_entries.push_back(id);
  }
}

int& Engine::visit_count(Run& run, wfspec::TaskId task) {
  auto it = std::lower_bound(
      run.visits.begin(), run.visits.end(), task,
      [](const std::pair<wfspec::TaskId, int>& v, wfspec::TaskId t) { return v.first < t; });
  if (it == run.visits.end() || it->first != task) it = run.visits.insert(it, {task, 0});
  return it->second;
}

int Engine::visits_of(const Run& run, wfspec::TaskId task) {
  const auto it = std::lower_bound(
      run.visits.begin(), run.visits.end(), task,
      [](const std::pair<wfspec::TaskId, int>& v, wfspec::TaskId t) { return v.first < t; });
  return it == run.visits.end() || it->first != task ? 0 : it->second;
}

std::optional<wfspec::TaskId> Engine::peek_next_task(RunId run_id) const {
  const Run& run = runs_.at(static_cast<std::size_t>(run_id));
  if (!run.active) return std::nullopt;
  return run.pc;
}

void Engine::resume_run(RunId run_id, wfspec::TaskId pc,
                        const std::map<wfspec::TaskId, int>& visits) {
  Run& run = runs_.at(static_cast<std::size_t>(run_id));
  run.visits.assign(visits.begin(), visits.end());
  if (pc != wfspec::kInvalidTask) run.pc = pc;
  set_active(static_cast<std::size_t>(run_id), pc != wfspec::kInvalidTask);
  if (durability_observer_) {
    durability_observer_->on_control_change(*this, run_id);
  }
}

std::optional<wfspec::TaskId> Engine::peek_choice(RunId run_id,
                                                  wfspec::TaskId task) const {
  const Run& run = runs_.at(static_cast<std::size_t>(run_id));
  const auto& spec = *run.spec;
  if (!spec.is_branch(task)) return std::nullopt;
  const auto selector = *spec.task(task).selector;
  const Value sel_value = store_.read(selector);
  const auto& succ = spec.graph().successors(task);
  return succ[choose_branch(sel_value, succ.size())];
}

}  // namespace selfheal::engine
