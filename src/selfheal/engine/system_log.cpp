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
  if (entry.kind == ActionKind::kRepair || entry.run < 0) return;
  const auto r = static_cast<std::size_t>(entry.run);
  if (r >= first_task_.size()) first_task_.resize(r + 1, -1);
  auto i = find_triple(entry.run, entry.task, entry.incarnation);
  if (i < 0) i = insert_triple(r, entry.task, entry.incarnation);
  auto& record = triples_[static_cast<std::size_t>(i)];
  if (is_execution(entry.kind)) {
    record.latest_execution = entry.id;
  } else if (entry.kind == ActionKind::kUndo) {
    record.latest_undo = entry.id;
  }
}

std::int32_t SystemLog::insert_triple(std::size_t run, wfspec::TaskId task,
                                      int incarnation) {
  const auto fresh = static_cast<std::int32_t>(triples_.size());
  triples_.push_back(TripleRecord{task, incarnation});
  auto record = [this](std::int32_t i) -> TripleRecord& {
    return triples_[static_cast<std::size_t>(i)];
  };
  // The task's highest incarnation, and the task before it in the list.
  std::int32_t before = -1;
  auto head = first_task_[run];
  while (head >= 0 && record(head).task != task) {
    before = head;
    head = record(head).next_task;
  }
  if (head < 0) {
    // The run's first record of this task heads the list.
    record(fresh).next_task = first_task_[run];
    first_task_[run] = fresh;
  } else if (incarnation > record(head).incarnation) {
    // A new highest incarnation takes the task's place in the list.
    record(fresh).lower = head;
    record(fresh).next_task = record(head).next_task;
    record(head).next_task = -1;
    (before < 0 ? first_task_[run] : record(before).next_task) = fresh;
  } else {
    // Below the highest (rare: a run visits a task's incarnations in
    // order): keep the chain descending.
    auto above = head;
    while (record(above).lower >= 0 &&
           record(record(above).lower).incarnation > incarnation) {
      above = record(above).lower;
    }
    record(fresh).lower = record(above).lower;
    record(above).lower = fresh;
  }
  return fresh;
}

std::int32_t SystemLog::find_triple(RunId run, wfspec::TaskId task,
                                    int incarnation) const {
  const auto r = static_cast<std::size_t>(run);
  if (run < 0 || r >= first_task_.size()) return -1;
  auto i = first_task_[r];
  while (i >= 0 && triples_[static_cast<std::size_t>(i)].task != task) {
    i = triples_[static_cast<std::size_t>(i)].next_task;
  }
  // Down the task's incarnations, highest first.
  while (i >= 0) {
    const auto& record = triples_[static_cast<std::size_t>(i)];
    if (record.incarnation <= incarnation) {
      return record.incarnation == incarnation ? i : -1;
    }
    i = record.lower;
  }
  return -1;
}

void SystemLog::push(TaskInstance entry) {
  // Growth never copies the log: a full chunk stays where it is and the
  // next entry opens a new one. The newest chunk grows by an eighth up
  // to kChunkEntries, so a short log holds little unused capacity (the
  // log is a long-lived tenant's largest allocation).
  if (chunks_.empty() || chunks_.back().size() == kChunkEntries) chunks_.emplace_back();
  auto& chunk = chunks_.back();
  if (chunk.size() == chunk.capacity()) {
    chunk.reserve(std::min(kChunkEntries, chunk.size() + chunk.size() / 8 + 64));
  }
  chunk.push_back(std::move(entry));
  ++size_;
  index_entry(chunk.back());
}

InstanceId SystemLog::append(TaskInstance entry) {
  entry.id = static_cast<InstanceId>(size_);
  entry.seq = static_cast<SeqNo>(size_) + 1;  // seq 0 = initial store
  // Fresh slots are handed out from a globally monotone counter: work
  // committed after a recovery round sorts after the slots that round
  // stamped (which may be far above the raw commit sequence).
  if (entry.logical_slot == 0) entry.logical_slot = next_slot_;
  next_slot_ = std::max(next_slot_, entry.logical_slot + 1);
  if (entry.is_recovery()) ++recovery_entries_;
  const auto id = entry.id;
  push(std::move(entry));
  return id;
}

void SystemLog::restore_entry(TaskInstance entry) {
  if (entry.id != static_cast<InstanceId>(size_) ||
      entry.seq != static_cast<SeqNo>(size_) + 1) {
    throw std::invalid_argument("SystemLog::restore_entry: out-of-order entry");
  }
  next_slot_ = std::max(next_slot_, entry.logical_slot + 1);
  if (entry.is_recovery()) ++recovery_entries_;
  push(std::move(entry));
}

const TaskInstance& SystemLog::entry(InstanceId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= size_) {
    throw std::out_of_range("SystemLog: invalid instance id " + std::to_string(id));
  }
  return at(static_cast<std::size_t>(id));
}

std::vector<InstanceId> SystemLog::trace(RunId run) const {
  std::vector<InstanceId> result;
  for (const auto& e : entries()) {
    if (e.run == run && e.is_original()) result.push_back(e.id);
  }
  return result;
}

std::optional<InstanceId> SystemLog::find_original(RunId run, wfspec::TaskId task,
                                                   int incarnation) const {
  for (const auto& e : entries()) {
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
  const auto* record = triple(run, task, incarnation);
  if (record == nullptr || record->latest_execution == kInvalidInstance) {
    return std::nullopt;
  }
  return record->latest_execution;
}

bool SystemLog::currently_undone(InstanceId execution) const {
  const auto& base = entry(execution);
  // The LATEST undo-or-execution entry for the triple decides its state.
  // Index invariant: the decisive entry is >= any of the triple's
  // entries, so an undo AFTER `execution` means undone; a later
  // execution (or the entry itself being the decisive one) means not.
  const auto* record = triple(base.run, base.task, base.incarnation);
  return record != nullptr && record->undone() && record->latest_undo > execution;
}

bool SystemLog::is_live_execution(InstanceId execution) const {
  const auto& base = entry(execution);
  if (!is_execution(base.kind)) return false;
  const auto* record = triple(base.run, base.task, base.incarnation);
  return record != nullptr && !record->undone() && record->latest_execution == execution;
}

std::vector<InstanceId> SystemLog::effective() const {
  // One pass over the triple records (latest state per (run, task,
  // incarnation) is maintained on append); order restored by the final
  // (logical_slot, id) sort, so record order does not leak.
  std::vector<InstanceId> result;
  result.reserve(triples_.size());
  for (const auto& record : triples_) {
    if (!record.undone() && record.latest_execution != kInvalidInstance) {
      result.push_back(record.latest_execution);
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
  for (const auto& e : entries()) {
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
