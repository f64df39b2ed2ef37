#include "selfheal/recovery/analyzer.hpp"

#include <algorithm>
#include <cassert>

#include "selfheal/obs/metrics.hpp"
#include "selfheal/obs/trace.hpp"

namespace selfheal::recovery {

namespace {

struct AnalyzerMetrics {
  obs::Counter& analyses = obs::metrics().counter("analyzer.analyses");
  obs::Counter& frontier_hits = obs::metrics().counter("analyzer.frontier_hits");
  obs::Counter& work_units = obs::metrics().counter("analyzer.work_units");
  obs::Counter& damaged_instances = obs::metrics().counter("analyzer.damaged_instances");
  obs::Counter& candidate_undos = obs::metrics().counter("analyzer.candidate_undos");
  obs::Counter& candidate_redos = obs::metrics().counter("analyzer.candidate_redos");
  obs::Gauge& frontier_max = obs::metrics().gauge("analyzer.damage_frontier_max");
  obs::StatMetric& analyze_ms = obs::metrics().stats("analyzer.analyze_ms");
};

AnalyzerMetrics& analyzer_metrics() {
  static AnalyzerMetrics m;
  return m;
}

// Per-analysis membership bits over instance ids: the analyze() hot
// loops test membership once per dependence edge.
constexpr std::uint32_t kDamaged = 1;
constexpr std::uint32_t kCandidate = 2;

}  // namespace

RecoveryAnalyzer::RecoveryAnalyzer(const engine::Engine& engine)
    : engine_(engine), specs_(engine.specs_by_run()),
      owned_deps_(std::in_place, engine.log(), specs_),
      deps_(&*owned_deps_) {}

RecoveryAnalyzer::RecoveryAnalyzer(const engine::Engine& engine,
                                   const deps::DependencyAnalyzer& deps)
    : engine_(engine), specs_(engine.specs_by_run()), deps_(&deps) {}

RecoveryPlan RecoveryAnalyzer::analyze(const std::vector<InstanceId>& malicious) const {
  RecoveryPlan plan;
  analyze(malicious, plan);
  return plan;
}

void RecoveryAnalyzer::analyze(const std::vector<InstanceId>& malicious,
                               RecoveryPlan& plan) const {
  auto& am = analyzer_metrics();
  obs::Span span("analyzer.analyze", "recovery");
  const obs::ScopedTimerMs timer(am.analyze_ms);
  work_units_ = 0;
  const auto& log = engine_.log();
  plan.clear();
  marks_.reset();
  const auto damaged = [this](InstanceId id) {
    const auto* bits = marks_.find(id);
    return bits != nullptr && (*bits & kDamaged) != 0;
  };

  // Keep only reports that still name the live execution of their task:
  // an instance already undone or superseded by a redo was repaired by an
  // earlier recovery round, so a (late, duplicate) alert for it is moot.
  for (const auto id : malicious) {
    const auto& e = log.entry(id);
    const auto latest = log.find_latest_execution(e.run, e.task, e.incarnation);
    if (latest == id && !log.currently_undone(id)) plan.malicious.push_back(id);
  }
  std::sort(plan.malicious.begin(), plan.malicious.end());
  plan.malicious.erase(std::unique(plan.malicious.begin(), plan.malicious.end()),
                       plan.malicious.end());

  // Theorem 1, conditions 1 + 3: the damage closure over flow dependence.
  // O(frontier) fast path: when the alert covers exactly the live
  // malicious set, the analyzer's streaming taint layer has the closure
  // already materialized -- read it off instead of walking the graph.
  if (deps_->frontier_covers(plan.malicious)) {
    deps_->tainted_frontier(plan.damaged);
    am.frontier_hits.inc();
#ifndef NDEBUG
    std::vector<InstanceId> walked;
    deps_->flow_closure(plan.malicious, walked);
    assert(plan.damaged == walked &&
           "streaming taint frontier must equal the batch flow closure");
#endif
  } else {
    deps_->flow_closure(plan.malicious, plan.damaged);
  }
  for (const auto id : plan.damaged) marks_.get_or_insert(id, kDamaged);
  work_units_ += plan.damaged.size();

  // Damaged branch instances: their redo may re-choose the path.
  for (const auto id : plan.damaged) {
    const auto& e = log.entry(id);
    const auto* spec = specs_.at(static_cast<std::size_t>(e.run));
    if (spec->is_branch(e.task)) plan.damaged_branches.push_back(id);
  }

  // Theorem 1, condition 2: executed instances control-dependent on a
  // damaged branch are candidate undos (off-path after the redo?). If a
  // candidate IS undone, its flow dependents read removed data, so
  // Theorem 1 c3 applies to the grown B: the candidate set is closed
  // under flow dependence (dependents inherit the guard).
  const auto add_candidate = [&](InstanceId instance, InstanceId branch, int condition) {
    if (marks_.find(instance) != nullptr) return;  // damaged or seen
    marks_.get_or_insert(instance, kCandidate);
    plan.candidate_undos.push_back(CandidateUndo{instance, branch, condition});
  };
  for (const auto branch : plan.damaged_branches) {
    deps_->controlled_by(branch, controlled_);
    deps_->flow_closure(controlled_, closure_);
    for (const auto instance : closure_) {
      ++work_units_;
      add_candidate(instance, branch, 2);
    }
  }

  // Theorem 1, condition 4: an unexecuted task t_k controlled by a
  // damaged branch may join the re-executed path; executed instances
  // (potentially) flow-dependent on t_k read data that is then not up to
  // date. Potential flow is judged by read/write-set overlap, extended
  // with the real flow closure. The analyzer's object->readers index
  // answers "who read an object of W(t_k) after the branch's slot" by
  // binary search -- no effective-log rescan per (branch, task) pair.
  for (const auto branch : plan.damaged_branches) {
    const auto& be = log.entry(branch);
    const auto* spec = specs_.at(static_cast<std::size_t>(be.run));
    for (std::size_t u = 0; u < spec->task_count(); ++u) {
      const auto task_u = static_cast<wfspec::TaskId>(u);
      ++work_units_;
      if (!spec->control_dependent(be.task, task_u)) continue;
      // t_k must NOT be in the (effective) execution.
      const auto executed = log.find_latest_execution(be.run, task_u, 1);
      if (executed && !log.currently_undone(*executed)) continue;
      const auto& writes_u = spec->task(task_u).writes;
      if (writes_u.empty()) continue;

      direct_.clear();
      for (const auto object : writes_u) {
        deps_->readers_after(object, be.logical_slot, direct_);
      }
      work_units_ += direct_.size();
      deps_->flow_closure(direct_, closure_);
      for (const auto j : closure_) {
        ++work_units_;
        add_candidate(j, branch, 4);
      }
    }
  }

  // Theorem 2: split damaged instances into definite and candidate redos.
  for (const auto id : plan.damaged) {
    InstanceId guard = engine::kInvalidInstance;
    for (const auto& e : deps_->in_edges(id)) {
      ++work_units_;
      if (e.kind == deps::DepKind::kControl && damaged(e.from)) {
        guard = e.from;
        break;
      }
    }
    if (guard == engine::kInvalidInstance) {
      plan.definite_redos.push_back(id);
    } else {
      plan.candidate_redos.push_back(CandidateRedo{id, guard});
    }
  }

  // Theorem 3 constraints (static rules). The full redo set for rule
  // purposes is definite + candidate; damaged is sorted, so the union is
  // the (sorted) damaged vector itself and membership is the damaged
  // mark, as it is for the undo set.

  // Rule 3: undo(t) < redo(t).
  for (const auto id : plan.damaged) {
    plan.constraints.push_back(
        OrderConstraint{ActionType::kUndo, id, ActionType::kRedo, id, 3});
  }
  // Rule 1: precedence order among redos (chained: t_i < t_j adjacent in
  // commit order implies the full order transitively).
  const std::vector<InstanceId>& redos_sorted = plan.damaged;
  for (std::size_t i = 1; i < redos_sorted.size(); ++i) {
    plan.constraints.push_back(OrderConstraint{ActionType::kRedo, redos_sorted[i - 1],
                                               ActionType::kRedo, redos_sorted[i], 1});
  }
  // Rules 2, 4, 5 from the dependence edges. Every rule needs the edge's
  // SOURCE in the damaged set, so only edges incident to damaged
  // instances can contribute: collect them via the out-adjacency instead
  // of scanning the whole edge array -- O(incident edges), not O(E).
  // Sorting the indices restores edge-array order, so the constraint
  // sequence is byte-identical to the full scan's.
  incident_.clear();
  for (const auto id : plan.damaged) {
    deps_->for_each_out_edge(id, [&](deps::DependencyAnalyzer::EdgeIndex idx) {
      ++work_units_;
      if (damaged(deps_->edge(idx).to)) incident_.push_back(idx);
    });
  }
  std::sort(incident_.begin(), incident_.end());
  // Both endpoints of every collected edge are damaged by construction,
  // so each edge is in the redo and the undo set at both ends.
  for (const auto idx : incident_) {
    const auto& e = deps_->edge(idx);
    // Rule 2: t_i -> t_j (any dependence) orders their redos.
    plan.constraints.push_back(
        OrderConstraint{ActionType::kRedo, e.from, ActionType::kRedo, e.to, 2});
    if (e.kind == deps::DepKind::kAnti) {
      // Rule 4: t_i ->_a t_j: undo(t_j) < redo(t_i).
      plan.constraints.push_back(
          OrderConstraint{ActionType::kUndo, e.to, ActionType::kRedo, e.from, 4});
    }
    if (e.kind == deps::DepKind::kOutput) {
      // Rule 5: t_i ->_o t_j: undo(t_j) < undo(t_i).
      plan.constraints.push_back(
          OrderConstraint{ActionType::kUndo, e.to, ActionType::kUndo, e.from, 5});
    }
  }

  am.analyses.inc();
  am.work_units.inc(work_units_);
  am.damaged_instances.inc(plan.damaged.size());
  am.candidate_undos.inc(plan.candidate_undos.size());
  am.candidate_redos.inc(plan.candidate_redos.size());
  // The damage frontier: how far one alert's closure reached. The max
  // over a run anchors "worst single analysis" comparisons across PRs.
  am.frontier_max.update_max(static_cast<double>(plan.damaged.size()));
  if (span.active()) {
    span.set_detail("damaged=" + std::to_string(plan.damaged.size()) +
                    " work=" + std::to_string(work_units_));
  }
}

}  // namespace selfheal::recovery
