// Workflow specifications (Section II.A).
//
// A workflow is a directed graph <V, E> of tasks with immediate
// precedence edges. It has one start node (0-indegree) and one or more
// end nodes (0-outdegree); any start-to-end walk is an execution path.
// Nodes with out-degree > 1 are branch ("dominant") nodes: at run time
// exactly one successor is chosen, based on a data object the task read
// (its selector). Cycles are allowed; different visits to the same node
// are different task instances (t^1, t^2, ... in the paper).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "selfheal/graph/digraph.hpp"
#include "selfheal/graph/dominators.hpp"
#include "selfheal/wfspec/object_catalog.hpp"

namespace selfheal::wfspec {

using TaskId = graph::NodeId;
inline constexpr TaskId kInvalidTask = graph::kInvalidNode;

/// Static description of one task: its name and read/write sets
/// (Section II.C's R(T) and W(T)).
struct TaskSpec {
  std::string name;
  std::vector<ObjectId> reads;
  std::vector<ObjectId> writes;
  /// For branch nodes: the read object whose value selects the successor.
  /// Defaults to the first read object if unset at validation time.
  std::optional<ObjectId> selector;
};

class WorkflowSpec {
 public:
  /// `catalog` must outlive the spec; workflows sharing data must share it.
  WorkflowSpec(std::string name, ObjectCatalog& catalog);

  /// Adds a task; read/write sets are given as object names and interned
  /// into the shared catalog.
  TaskId add_task(const std::string& name, const std::vector<std::string>& reads,
                  const std::vector<std::string>& writes);

  /// Declares the branch selector object of `task` (must be in its reads).
  void set_selector(TaskId task, const std::string& object_name);

  /// Adds the immediate-precedence edge from -> to.
  void add_edge(TaskId from, TaskId to);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] ObjectCatalog& catalog() const noexcept { return *catalog_; }
  [[nodiscard]] const graph::Digraph& graph() const noexcept { return graph_; }
  [[nodiscard]] std::size_t task_count() const noexcept { return tasks_.size(); }
  [[nodiscard]] const TaskSpec& task(TaskId id) const;
  [[nodiscard]] TaskId task_by_name(const std::string& name) const;

  [[nodiscard]] bool is_branch(TaskId id) const { return graph_.out_degree(id) > 1; }

  /// Finalises the spec: checks exactly one start node, >= 1 end node,
  /// all tasks reachable from the start, and that every branch node has
  /// a selector within its read set (defaulting it to the first read).
  /// Must be called before the structural queries below. Throws
  /// std::logic_error with a description of the first problem found.
  void validate();
  [[nodiscard]] bool validated() const noexcept { return postdominators_ != nullptr; }

  [[nodiscard]] TaskId start() const;
  [[nodiscard]] std::vector<TaskId> ends() const;

  /// True iff every complete execution path passes through `task`
  /// (equivalently: `task` post-dominates the start node). Section
  /// II.D's "unavoidable node".
  [[nodiscard]] bool unavoidable(TaskId task) const;

  /// Direct-or-transitive control dependence t_i ->_c* t_j (Section
  /// II.D): t_i is a branch node on a path to t_j whose decision can
  /// avoid t_j. Formally: out-degree(t_i) > 1, t_j reachable from t_i,
  /// and t_j does NOT post-dominate t_i (some choice at t_i reaches an
  /// end without executing t_j). Post-dominance captures the paper's
  /// "unavoidable" exemption per branch (e.g. Figure 1's t6 is reachable
  /// from t2 but post-dominates it, so t2 does not control t6), and the
  /// relation is transitive as the paper requires.
  [[nodiscard]] bool control_dependent(TaskId ti, TaskId tj) const;

  /// All branch nodes t_i with t_i ->_c* `task` (its dominant nodes).
  [[nodiscard]] std::vector<TaskId> dominant_nodes(TaskId task) const;

  /// DOT rendering with task names (and read/write sets as tooltips).
  [[nodiscard]] std::string to_dot() const;

 private:
  void require_validated() const;

  std::string name_;
  ObjectCatalog* catalog_;
  graph::Digraph graph_;
  std::vector<TaskSpec> tasks_;
  std::unique_ptr<graph::Dominators> postdominators_;  // on reversed graph + exit
  std::vector<std::vector<bool>> reach_;               // transitive reachability
  std::vector<bool> unavoidable_;
};

}  // namespace selfheal::wfspec
