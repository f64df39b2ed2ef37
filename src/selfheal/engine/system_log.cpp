#include "selfheal/engine/system_log.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace selfheal::engine {

const char* to_string(ActionKind kind) {
  switch (kind) {
    case ActionKind::kNormal: return "normal";
    case ActionKind::kMalicious: return "malicious";
    case ActionKind::kUndo: return "undo";
    case ActionKind::kRedo: return "redo";
    case ActionKind::kFresh: return "fresh";
    case ActionKind::kRepair: return "repair";
  }
  return "?";
}

namespace {
bool is_execution(ActionKind kind) {
  return kind == ActionKind::kNormal || kind == ActionKind::kMalicious ||
         kind == ActionKind::kRedo || kind == ActionKind::kFresh;
}
}  // namespace

void SystemLog::index_entry(const TaskInstance& entry) {
  // Repairs carry no (run, task, incarnation) identity of interest.
  if (entry.kind == ActionKind::kRepair) return;
  auto& state = triple_index_[TripleKey{entry.run, entry.task, entry.incarnation}];
  if (is_execution(entry.kind)) {
    state.latest_execution = entry.id;
    state.latest_decisive = entry.id;
    state.decisive_is_undo = false;
  } else if (entry.kind == ActionKind::kUndo) {
    state.latest_decisive = entry.id;
    state.decisive_is_undo = true;
  }
}

const SystemLog::TripleState* SystemLog::triple_state(RunId run, wfspec::TaskId task,
                                                      int incarnation) const {
  const auto it = triple_index_.find(TripleKey{run, task, incarnation});
  return it == triple_index_.end() ? nullptr : &it->second;
}

void SystemLog::reserve_next() {
  // Grow by an eighth instead of doubling: the log is a long-lived
  // tenant's largest allocation, and doubling leaves up to half of it
  // unused. Entries move cheaply, so growth stays amortised O(1).
  if (entries_.size() == entries_.capacity()) {
    entries_.reserve(entries_.size() + entries_.size() / 8 + 64);
  }
}

InstanceId SystemLog::append(TaskInstance entry) {
  entry.id = static_cast<InstanceId>(entries_.size());
  entry.seq = static_cast<SeqNo>(entries_.size()) + 1;  // seq 0 = initial store
  // Fresh slots are handed out from a globally monotone counter: work
  // committed after a recovery round sorts after the slots that round
  // stamped (which may be far above the raw commit sequence).
  if (entry.logical_slot == 0) entry.logical_slot = next_slot_;
  next_slot_ = std::max(next_slot_, entry.logical_slot + 1);
  if (entry.is_recovery()) ++recovery_entries_;
  reserve_next();
  entries_.push_back(std::move(entry));
  index_entry(entries_.back());
  return entries_.back().id;
}

void SystemLog::restore_entry(TaskInstance entry) {
  if (entry.id != static_cast<InstanceId>(entries_.size()) ||
      entry.seq != static_cast<SeqNo>(entries_.size()) + 1) {
    throw std::invalid_argument("SystemLog::restore_entry: out-of-order entry");
  }
  next_slot_ = std::max(next_slot_, entry.logical_slot + 1);
  if (entry.is_recovery()) ++recovery_entries_;
  reserve_next();
  entries_.push_back(std::move(entry));
  index_entry(entries_.back());
}

const TaskInstance& SystemLog::entry(InstanceId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= entries_.size()) {
    throw std::out_of_range("SystemLog: invalid instance id " + std::to_string(id));
  }
  return entries_[static_cast<std::size_t>(id)];
}

std::vector<InstanceId> SystemLog::trace(RunId run) const {
  std::vector<InstanceId> result;
  for (const auto& e : entries_) {
    if (e.run == run && e.is_original()) result.push_back(e.id);
  }
  return result;
}

std::optional<InstanceId> SystemLog::find_original(RunId run, wfspec::TaskId task,
                                                   int incarnation) const {
  for (const auto& e : entries_) {
    if (e.run == run && e.task == task && e.incarnation == incarnation &&
        e.is_original()) {
      return e.id;
    }
  }
  return std::nullopt;
}

std::optional<InstanceId> SystemLog::find_latest_execution(RunId run,
                                                           wfspec::TaskId task,
                                                           int incarnation) const {
  const auto* state = triple_state(run, task, incarnation);
  if (state == nullptr || state->latest_execution == kInvalidInstance) {
    return std::nullopt;
  }
  return state->latest_execution;
}

bool SystemLog::currently_undone(InstanceId execution) const {
  const auto& base = entry(execution);
  // The LATEST undo-or-execution entry for the triple decides its state.
  // Index invariant: latest_decisive >= any of the triple's entries, so
  // an undo AFTER `execution` means undone; a later execution (or the
  // entry itself being the decisive one) means not.
  const auto* state = triple_state(base.run, base.task, base.incarnation);
  return state != nullptr && state->decisive_is_undo &&
         state->latest_decisive > execution;
}

bool SystemLog::is_live_execution(InstanceId execution) const {
  const auto& base = entry(execution);
  if (!is_execution(base.kind)) return false;
  const auto* state = triple_state(base.run, base.task, base.incarnation);
  return state != nullptr && !state->decisive_is_undo &&
         state->latest_decisive == execution;
}

std::vector<InstanceId> SystemLog::effective() const {
  // One pass over the triple index (latest state per (run, task,
  // incarnation) is maintained on append); order restored by the final
  // (logical_slot, id) sort, so map iteration order does not leak.
  std::vector<InstanceId> result;
  result.reserve(triple_index_.size());
  for (const auto& [key, state] : triple_index_) {
    if (!state.decisive_is_undo && state.latest_decisive != kInvalidInstance) {
      result.push_back(state.latest_decisive);
    }
  }
  std::sort(result.begin(), result.end(), [this](InstanceId a, InstanceId b) {
    const auto& ea = entry(a);
    const auto& eb = entry(b);
    if (ea.logical_slot != eb.logical_slot) return ea.logical_slot < eb.logical_slot;
    return a < b;
  });
  return result;
}

std::vector<Value> SystemLog::effective_store() const {
  std::vector<Value> values;
  for (const auto id : effective()) {
    const auto& e = entry(id);
    for (std::size_t i = 0; i < e.written_objects.size(); ++i) {
      const auto object = static_cast<std::size_t>(e.written_objects[i]);
      if (object >= values.size()) values.resize(object + 1, Value{});
      values[object] = e.written_values[i];
    }
  }
  return values;
}

std::string SystemLog::render(
    const std::vector<const wfspec::WorkflowSpec*>& spec_of_run) const {
  std::ostringstream out;
  for (const auto& e : entries_) {
    const auto* spec = e.run >= 0 && static_cast<std::size_t>(e.run) < spec_of_run.size()
                           ? spec_of_run[static_cast<std::size_t>(e.run)]
                           : nullptr;
    if (e.id > 0) out << " ";
    if (spec) {
      out << spec->task(e.task).name;
    } else {
      out << "task" << e.task;
    }
    if (e.incarnation > 1) out << "^" << e.incarnation;
    switch (e.kind) {
      case ActionKind::kNormal: break;
      case ActionKind::kMalicious: out << "[B]"; break;
      case ActionKind::kUndo: out << "[undo]"; break;
      case ActionKind::kRedo: out << "[redo]"; break;
      case ActionKind::kFresh: out << "[fresh]"; break;
      case ActionKind::kRepair: out << "[repair]"; break;
    }
  }
  return out.str();
}

}  // namespace selfheal::engine
