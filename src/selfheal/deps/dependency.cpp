#include "selfheal/deps/dependency.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>

#include "selfheal/obs/metrics.hpp"

namespace selfheal::deps {

namespace {

struct DepsMetrics {
  obs::Counter& incremental_appends = obs::metrics().counter("deps.incremental_appends");
  obs::Counter& recovery_splices = obs::metrics().counter("deps.recovery_splices");
  obs::Counter& full_rebuilds = obs::metrics().counter("deps.full_rebuilds");
  obs::Counter& stream_tags_propagated =
      obs::metrics().counter("deps.stream_tags_propagated");
  obs::Counter& stream_retractions = obs::metrics().counter("deps.stream_retractions");
  obs::StatMetric& closure_visited = obs::metrics().stats("analyzer.closure_visited");
};

DepsMetrics& deps_metrics() {
  static DepsMetrics m;
  return m;
}

}  // namespace

const char* to_string(DepKind kind) {
  switch (kind) {
    case DepKind::kFlow: return "flow";
    case DepKind::kAnti: return "anti";
    case DepKind::kOutput: return "output";
    case DepKind::kControl: return "control";
  }
  return "?";
}

DependencyAnalyzer::DependencyAnalyzer(
    const engine::SystemLog& log,
    const std::vector<const wfspec::WorkflowSpec*>& spec_of_run) {
  rebuild(log, spec_of_run);
}

void DependencyAnalyzer::reset_state() {
  edges_.clear();
  in_begin_.clear();
  in_count_.clear();
  out_head_.clear();
  out_next_.clear();
  readers_by_object_.clear();
  writers_by_object_.clear();
  last_instance_.clear();
  last_instance_base_.clear();
  instances_by_run_.clear();
  schedule_.clear();
  taint_.clear();
  tainted_ids_.clear();
  taint_sources_ = 0;
  recovery_entries_seen_ = 0;
  n_ = 0;
}

void DependencyAnalyzer::rebuild(
    const engine::SystemLog& log,
    const std::vector<const wfspec::WorkflowSpec*>& spec_of_run) {
  reset_state();
  log_ = &log;
  specs_ = &spec_of_run;
  n_ = log.size();
  in_begin_.assign(n_, 0);
  in_count_.assign(n_, 0);
  out_head_.assign(n_, -1);
  taint_.assign(n_, 0);

  // The analysis runs over the EFFECTIVE execution in logical-slot
  // order: before any recovery this is exactly the original log; after
  // a recovery round it is the repaired schedule, so later rounds see
  // dependences through redone/fresh entries too.
  for (const auto id : log.effective()) ingest(log.entry(id));

  recovery_entries_seen_ = log.recovery_entry_count();
  deps_metrics().full_rebuilds.inc();
}

bool DependencyAnalyzer::refresh(
    const engine::SystemLog& log,
    const std::vector<const wfspec::WorkflowSpec*>& spec_of_run) {
  // The incremental paths are sound only while the existing graph is a
  // prefix of the current effective schedule; (re)attaching to a new log
  // is the one case that inherently needs a scratch build.
  const bool same_log = log_ == &log && n_ <= log.size();
  if (!same_log) {
    rebuild(log, spec_of_run);
    return false;
  }

  specs_ = &spec_of_run;
  if (n_ == log.size()) return true;  // nothing new

  if (log.recovery_entry_count() != recovery_entries_seen_) {
    // A recovery round rewrote part of the schedule (undos evict,
    // redos/freshes re-slot). Every dependence edge points from a lower
    // logical slot to a higher one, so the rewrite is confined to the
    // schedule suffix from the earliest touched slot: splice it.
    if (splice_recovery(log)) {
      deps_metrics().recovery_splices.inc();
      return true;
    }
    // Checked fallback: a structural invariant did not hold. Counted in
    // deps.full_rebuilds so benches prove this does not fire steady-state.
    rebuild(log, spec_of_run);
    return false;
  }

  // New ORIGINAL entries append: their fresh logical slots sort after
  // every existing entry and they never evict one.
  const std::size_t first_new = n_;
  n_ = log.size();
  in_begin_.resize(n_, 0);
  in_count_.resize(n_, 0);
  out_head_.resize(n_, -1);
  taint_.resize(n_, 0);
  for (std::size_t i = first_new; i < n_; ++i) {
    ingest(log.entry(static_cast<InstanceId>(i)));
  }
  deps_metrics().incremental_appends.inc();
  return true;
}

bool DependencyAnalyzer::splice_recovery(const engine::SystemLog& log) {
  // 1. The earliest logical slot the new batch touches. Undo entries
  //    carry their victim's slot, redos their target's, freshes the slot
  //    the scheduler assigned, originals a fresh tail slot; repairs are
  //    not part of the effective schedule.
  const std::size_t first_new = n_;
  engine::SeqNo s_min = std::numeric_limits<engine::SeqNo>::max();
  for (std::size_t i = first_new; i < log.size(); ++i) {
    const auto& e = log.entry(static_cast<InstanceId>(i));
    if (e.kind == engine::ActionKind::kRepair) continue;
    if (e.logical_slot <= 0) return false;  // unstamped recovery entry
    s_min = std::min(s_min, e.logical_slot);
  }

  // 2. Cut point: the first ingested schedule position at slot >= s_min.
  //    Edge blocks are contiguous in schedule order, so the cut maps to
  //    an edge-array prefix.
  const auto cut = std::lower_bound(
      schedule_.begin(), schedule_.end(), s_min,
      [&](InstanceId id, engine::SeqNo slot) {
        return log.entry(id).logical_slot < slot;
      });
  const auto k = static_cast<std::size_t>(cut - schedule_.begin());
  const std::size_t e0 =
      k < schedule_.size()
          ? static_cast<std::size_t>(in_begin_[static_cast<std::size_t>(schedule_[k])])
          : edges_.size();

  // 3. Retract the suffix, newest first: pop chain heads, per-object
  //    records and taint tags in exact reverse-ingest order. That leaves
  //    every object's state as it was at the cut; only the (run, task)
  //    pairs whose last instance was popped need a lookup.
  auto& dm = deps_metrics();
  auto& dirty_tasks = dirty_tasks_;
  dirty_tasks.clear();
  for (std::size_t j = schedule_.size(); j-- > k;) {
    const auto id = schedule_[j];
    const auto node = static_cast<std::size_t>(id);
    const auto& e = log.entry(id);
    if (spec_for(e.run) != nullptr) {
      const auto r = static_cast<std::size_t>(e.run);
      if (r >= instances_by_run_.size() || instances_by_run_[r].empty() ||
          instances_by_run_[r].back() != id) {
        return false;
      }
      instances_by_run_[r].pop_back();
      dirty_tasks.emplace_back(r, e.task);
    }
    for (std::size_t w = e.written_objects.size(); w-- > 0;) {
      const auto o = static_cast<std::size_t>(e.written_objects[w]);
      if (o >= writers_by_object_.size() || writers_by_object_[o].empty() ||
          writers_by_object_[o].back().reader != id) {
        return false;
      }
      writers_by_object_[o].pop_back();
    }
    for (std::size_t r = e.read_objects.size(); r-- > 0;) {
      const auto o = static_cast<std::size_t>(e.read_objects[r]);
      if (o >= readers_by_object_.size() || readers_by_object_[o].empty() ||
          readers_by_object_[o].back().reader != id) {
        return false;
      }
      readers_by_object_[o].pop_back();
    }
    if ((taint_[node] & kTainted) != 0) {
      if ((taint_[node] & kSource) != 0) --taint_sources_;
      taint_[node] = 0;
      dm.stream_retractions.inc();
    }
    // Entries evicted by this round must read as edgeless afterwards,
    // exactly as they would after a scratch rebuild; live ones get their
    // block back on re-ingest.
    in_begin_[node] = 0;
    in_count_[node] = 0;
  }
  std::erase_if(tainted_ids_, [&](InstanceId id) {
    return (taint_[static_cast<std::size_t>(id)] & kTainted) == 0;
  });

  // Pop dropped edges off their source chains (strict LIFO per source).
  for (std::size_t idx = edges_.size(); idx-- > e0;) {
    const auto src = static_cast<std::size_t>(edges_[idx].from);
    if (out_head_[src] != static_cast<std::int32_t>(idx)) return false;
    out_head_[src] = out_next_[idx];
  }
  edges_.resize(e0);
  out_next_.resize(e0);

  // 4. Reconstruct each touched run's last instance of each popped task.
  std::sort(dirty_tasks.begin(), dirty_tasks.end());
  dirty_tasks.erase(std::unique(dirty_tasks.begin(), dirty_tasks.end()),
                    dirty_tasks.end());
  for (const auto& [r, task] : dirty_tasks) {
    auto latest = engine::kInvalidInstance;
    const auto& history = instances_by_run_[r];
    for (std::size_t j = history.size(); j-- > 0;) {
      if (log.entry(history[j]).task == task) {
        latest = history[j];
        break;
      }
    }
    last_instance_[last_instance_base_[r] + static_cast<std::size_t>(task)] = latest;
  }

  // 5. Re-ingest the repaired suffix: dropped entries that are still
  //    live in the effective view, plus the new batch's live entries, in
  //    (logical_slot, id) order -- exactly what a scratch rebuild would
  //    ingest from this slot on, so the edge array comes out
  //    byte-identical to a rebuild.
  auto& suffix = suffix_;
  suffix.clear();
  for (std::size_t j = k; j < schedule_.size(); ++j) {
    if (log.is_live_execution(schedule_[j])) suffix.push_back(schedule_[j]);
  }
  schedule_.resize(k);
  for (std::size_t i = first_new; i < log.size(); ++i) {
    const auto id = static_cast<InstanceId>(i);
    if (log.is_live_execution(id)) suffix.push_back(id);
  }
  std::sort(suffix.begin(), suffix.end(), [&](InstanceId a, InstanceId b) {
    const auto sa = log.entry(a).logical_slot;
    const auto sb = log.entry(b).logical_slot;
    if (sa != sb) return sa < sb;
    return a < b;
  });

  n_ = log.size();
  in_begin_.resize(n_, 0);
  in_count_.resize(n_, 0);
  out_head_.resize(n_, -1);
  taint_.resize(n_, 0);
  for (const auto id : suffix) ingest(log.entry(id));

  recovery_entries_seen_ = log.recovery_entry_count();
  return true;
}

const wfspec::WorkflowSpec* DependencyAnalyzer::spec_for(engine::RunId run) const {
  return specs_ != nullptr && run >= 0 &&
                 static_cast<std::size_t>(run) < specs_->size()
             ? (*specs_)[static_cast<std::size_t>(run)]
             : nullptr;
}

void DependencyAnalyzer::ensure_object(wfspec::ObjectId object) {
  const auto o = static_cast<std::size_t>(object);
  if (o >= readers_by_object_.size()) {
    readers_by_object_.resize(o + 1);
    writers_by_object_.resize(o + 1);
  }
}

void DependencyAnalyzer::add_edge(InstanceId from, InstanceId to, DepKind kind,
                                  wfspec::ObjectId object) {
  if (from == to) return;
  const auto index = static_cast<EdgeIndex>(edges_.size());
  edges_.push_back(DepEdge{from, to, kind, object});
  out_next_.push_back(out_head_[static_cast<std::size_t>(from)]);
  out_head_[static_cast<std::size_t>(from)] = static_cast<std::int32_t>(index);
  ++in_count_[static_cast<std::size_t>(to)];
}

void DependencyAnalyzer::ingest(const engine::TaskInstance& e) {
  // All edges added below target e.id, so this entry's in-edges form the
  // next contiguous range of edges_ (the implicit in-CSR).
  in_begin_[static_cast<std::size_t>(e.id)] = static_cast<EdgeIndex>(edges_.size());
  schedule_.push_back(e.id);

  // Read phase first (a task reads the pre-state, then writes).
  for (const auto object : e.read_objects) {
    ensure_object(object);
    const auto o = static_cast<std::size_t>(object);
    const auto& writes = writers_by_object_[o];
    if (!writes.empty()) add_edge(writes.back().reader, e.id, DepKind::kFlow, object);
    readers_by_object_[o].push_back(ReaderRecord{e.logical_slot, e.id});
  }
  for (const auto object : e.written_objects) {
    ensure_object(object);
    const auto o = static_cast<std::size_t>(object);
    auto& writes = writers_by_object_[o];
    const auto& reads = readers_by_object_[o];
    // The reads since the last write, this entry's own read included
    // (add_edge drops the self edge).
    for (std::size_t r = writes.empty() ? 0 : writes.back().read_mark;
         r < reads.size(); ++r) {
      add_edge(reads[r].reader, e.id, DepKind::kAnti, object);
    }
    if (!writes.empty()) add_edge(writes.back().reader, e.id, DepKind::kOutput, object);
    writes.push_back(ReaderRecord{e.logical_slot, e.id,
                                  static_cast<std::uint32_t>(reads.size())});
  }

  // Control dependences: from the latest preceding instance of each
  // dominant (branch) node of the task, within the same run.
  if (const auto* spec = spec_for(e.run)) {
    const auto r = static_cast<std::size_t>(e.run);
    if (r >= last_instance_base_.size()) {
      last_instance_base_.resize(r + 1, kNoBlock);
      instances_by_run_.resize(r + 1);
    }
    if (last_instance_base_[r] == kNoBlock) {
      // A run's first entry: its block of last instances, and room for a
      // loop-free walk of its spec.
      last_instance_base_[r] = static_cast<std::uint32_t>(last_instance_.size());
      last_instance_.resize(last_instance_.size() + spec->task_count(),
                            engine::kInvalidInstance);
      instances_by_run_[r].reserve(spec->task_count());
    }
    const auto* last_instance = last_instance_.data() + last_instance_base_[r];
    for (const auto dominant : spec->dominant_nodes(e.task)) {
      const auto prior = last_instance[static_cast<std::size_t>(dominant)];
      if (prior != engine::kInvalidInstance) {
        add_edge(prior, e.id, DepKind::kControl, wfspec::kInvalidObject);
      }
    }
    last_instance_[last_instance_base_[r] + static_cast<std::size_t>(e.task)] = e.id;
    instances_by_run_[r].push_back(e.id);
  }

  const auto count = static_cast<EdgeIndex>(edges_.size()) -
                     in_begin_[static_cast<std::size_t>(e.id)];
  in_count_[static_cast<std::size_t>(e.id)] = count;

  // Online taint (SLEUTH-style): an instance is damage-tainted iff it is
  // a live malicious entry or reads from a tainted last-writer. Because
  // every flow edge points from a lower logical slot to a higher one,
  // ingest order IS topological order, so this single O(in-edges) pass
  // maintains the exact flow closure of the live malicious set.
  const auto node = static_cast<std::size_t>(e.id);
  std::uint8_t tag = 0;
  if (e.kind == engine::ActionKind::kMalicious) {
    tag = kTainted | kSource;
  } else {
    const DepEdge* block = edges_.data() + in_begin_[node];
    for (EdgeIndex i = 0; i < count; ++i) {
      const auto& edge = block[i];
      if (edge.kind == DepKind::kFlow && tainted(edge.from)) {
        tag = kTainted;
        break;
      }
    }
  }
  if (tag != 0) {
    taint_[node] = tag;
    tainted_ids_.push_back(e.id);
    if ((tag & kSource) != 0) ++taint_sources_;
    deps_metrics().stream_tags_propagated.inc();
  }
}

std::span<const DepEdge> DependencyAnalyzer::in_edges(InstanceId i) const {
  if (i < 0 || static_cast<std::size_t>(i) >= n_) {
    throw std::out_of_range("DependencyAnalyzer::in_edges: invalid instance");
  }
  const auto node = static_cast<std::size_t>(i);
  return {edges_.data() + in_begin_[node], in_count_[node]};
}

bool DependencyAnalyzer::depends(InstanceId from, InstanceId to, DepKind kind) const {
  // The target's in-edges are a contiguous span; scan the smaller side.
  for (const auto& e : in_edges(to)) {
    if (e.from == from && e.kind == kind) return true;
  }
  return false;
}

void DependencyAnalyzer::flow_closure(std::span<const InstanceId> seeds,
                                      std::vector<InstanceId>& out) const {
  if (stamp_.size() < n_) stamp_.resize(n_, 0);
  if (++epoch_ == 0) {  // stamp wrap-around: invalidate all stamps once
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
  // `out` doubles as the breadth-first worklist.
  out.clear();
  for (const auto id : seeds) {
    const auto i = static_cast<std::size_t>(id);
    if (i >= n_ || stamp_[i] == epoch_) continue;
    stamp_[i] = epoch_;
    out.push_back(id);
  }
  for (std::size_t head = 0; head < out.size(); ++head) {
    for_each_out_edge(out[head], [&](EdgeIndex idx) {
      const auto& e = edges_[idx];
      if (e.kind != DepKind::kFlow) return;
      const auto t = static_cast<std::size_t>(e.to);
      if (stamp_[t] != epoch_) {
        stamp_[t] = epoch_;
        out.push_back(e.to);
      }
    });
  }
  deps_metrics().closure_visited.observe(static_cast<double>(out.size()));
  std::sort(out.begin(), out.end());
}

void DependencyAnalyzer::controlled_by(InstanceId branch,
                                       std::vector<InstanceId>& out) const {
  out.clear();
  for_each_out_edge(branch, [&](EdgeIndex idx) {
    const auto& e = edges_[idx];
    if (e.kind == DepKind::kControl) out.push_back(e.to);
  });
  std::sort(out.begin(), out.end());
}

std::span<const DependencyAnalyzer::ReaderRecord> DependencyAnalyzer::readers_of(
    wfspec::ObjectId object) const {
  const auto o = static_cast<std::size_t>(object);
  if (object < 0 || o >= readers_by_object_.size()) return {};
  return readers_by_object_[o];
}

void DependencyAnalyzer::readers_after(wfspec::ObjectId object, engine::SeqNo slot,
                                       std::vector<InstanceId>& out) const {
  const auto readers = readers_of(object);
  // Records are appended in effective-schedule order, so they are sorted
  // by slot; find the first record strictly after `slot`.
  auto it = std::upper_bound(
      readers.begin(), readers.end(), slot,
      [](engine::SeqNo s, const ReaderRecord& r) { return s < r.slot; });
  for (; it != readers.end(); ++it) out.push_back(it->reader);
}

std::span<const DependencyAnalyzer::ReaderRecord> DependencyAnalyzer::writers_of(
    wfspec::ObjectId object) const {
  const auto o = static_cast<std::size_t>(object);
  if (object < 0 || o >= writers_by_object_.size()) return {};
  return writers_by_object_[o];
}

std::span<const InstanceId> DependencyAnalyzer::run_instances(
    engine::RunId run) const {
  const auto r = static_cast<std::size_t>(run);
  if (run < 0 || r >= instances_by_run_.size()) return {};
  return instances_by_run_[r];
}

void DependencyAnalyzer::tainted_frontier(std::vector<InstanceId>& out) const {
  out.assign(tainted_ids_.begin(), tainted_ids_.end());
  std::sort(out.begin(), out.end());
}

bool DependencyAnalyzer::frontier_covers(const std::vector<InstanceId>& seeds) const {
  // seeds must be sorted + deduplicated (the analyzer's moot-filtered
  // malicious set is). They cover the frontier iff they are EXACTLY the
  // live malicious set: each seed a source, and no source missing.
  if (seeds.size() != taint_sources_) return false;
  for (const auto id : seeds) {
    const auto node = static_cast<std::size_t>(id);
    if (node >= taint_.size() || (taint_[node] & kSource) == 0) return false;
  }
  return true;
}

std::string to_dot(const DependencyAnalyzer& deps, const engine::SystemLog& log,
                   const std::vector<const wfspec::WorkflowSpec*>& spec_of_run) {
  std::ostringstream out;
  out << "digraph dependences {\n  rankdir=LR;\n";
  for (const auto id : log.effective()) {
    const auto& e = log.entry(id);
    const auto* spec = spec_of_run.at(static_cast<std::size_t>(e.run));
    out << "  i" << id << " [label=\"" << spec->task(e.task).name;
    if (e.incarnation > 1) out << "^" << e.incarnation;
    out << "\\nrun" << e.run << "\"";
    if (e.kind == engine::ActionKind::kMalicious) {
      out << ", style=filled, fillcolor=\"#ffb3b3\"";
    }
    out << "];\n";
  }
  for (const auto& edge : deps.edges()) {
    const char* color = "black";
    switch (edge.kind) {
      case DepKind::kFlow: color = "blue"; break;
      case DepKind::kAnti: color = "orange"; break;
      case DepKind::kOutput: color = "purple"; break;
      case DepKind::kControl: color = "gray"; break;
    }
    out << "  i" << edge.from << " -> i" << edge.to << " [color=" << color;
    if (edge.object != wfspec::kInvalidObject) {
      // Name the carrying object through the catalog of the run that
      // OWNS the edge's source: runs may use distinct catalogs, and the
      // same interned id can name different objects in each.
      const auto run = log.entry(edge.from).run;
      const auto* spec = run >= 0 && static_cast<std::size_t>(run) < spec_of_run.size()
                             ? spec_of_run[static_cast<std::size_t>(run)]
                             : nullptr;
      if (spec != nullptr) {
        out << ", label=\"" << spec->catalog().name(edge.object) << "\"";
      }
    } else if (edge.kind == DepKind::kControl) {
      out << ", style=dashed";
    }
    out << "];\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace selfheal::deps
