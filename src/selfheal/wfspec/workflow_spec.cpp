#include "selfheal/wfspec/workflow_spec.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "selfheal/graph/dot.hpp"
#include "selfheal/graph/traversal.hpp"

namespace selfheal::wfspec {

WorkflowSpec::WorkflowSpec(std::string name, ObjectCatalog& catalog)
    : name_(std::move(name)), catalog_(&catalog) {}

TaskId WorkflowSpec::add_task(const std::string& name,
                              const std::vector<std::string>& reads,
                              const std::vector<std::string>& writes) {
  postdominators_.reset();  // structure changes invalidate analyses
  TaskSpec spec;
  spec.name = name;
  for (const auto& r : reads) spec.reads.push_back(catalog_->intern(r));
  for (const auto& w : writes) spec.writes.push_back(catalog_->intern(w));
  tasks_.push_back(std::move(spec));
  return graph_.add_node();
}

void WorkflowSpec::set_selector(TaskId task, const std::string& object_name) {
  auto& spec = tasks_.at(static_cast<std::size_t>(task));
  const auto id = catalog_->find(object_name);
  if (!id) throw std::invalid_argument("set_selector: unknown object " + object_name);
  if (std::find(spec.reads.begin(), spec.reads.end(), *id) == spec.reads.end()) {
    throw std::invalid_argument("set_selector: " + object_name + " not in reads of " +
                                spec.name);
  }
  spec.selector = *id;
}

void WorkflowSpec::add_edge(TaskId from, TaskId to) {
  postdominators_.reset();
  if (graph_.has_edge(from, to)) {
    throw std::invalid_argument("duplicate workflow edge");
  }
  graph_.add_edge(from, to);
}

const TaskSpec& WorkflowSpec::task(TaskId id) const {
  return tasks_.at(static_cast<std::size_t>(id));
}

TaskId WorkflowSpec::task_by_name(const std::string& name) const {
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (tasks_[i].name == name) return static_cast<TaskId>(i);
  }
  throw std::out_of_range("no task named " + name + " in workflow " + name_);
}

void WorkflowSpec::validate() {
  const auto starts = graph_.sources();
  if (starts.size() != 1) {
    throw std::logic_error("workflow " + name_ + " must have exactly one start node, has " +
                           std::to_string(starts.size()));
  }
  const auto ends = graph_.sinks();
  if (ends.empty()) {
    throw std::logic_error("workflow " + name_ + " has no end node");
  }
  const auto reach = graph::reachable_from(graph_, starts[0]);
  for (std::size_t n = 0; n < graph_.node_count(); ++n) {
    if (!reach[n]) {
      throw std::logic_error("task " + tasks_[n].name + " unreachable from start");
    }
  }
  for (std::size_t n = 0; n < tasks_.size(); ++n) {
    auto& spec = tasks_[n];
    if (graph_.out_degree(static_cast<TaskId>(n)) > 1) {
      if (!spec.selector) {
        if (spec.reads.empty()) {
          throw std::logic_error("branch task " + spec.name +
                                 " reads nothing: no selector possible");
        }
        spec.selector = spec.reads.front();
      }
    }
  }

  // Post-dominators: dominators of the reversed graph rooted at a
  // virtual exit node that absorbs every end node.
  graph::Digraph reversed = graph_.reversed();
  const auto exit_node = reversed.add_node();
  for (const TaskId end : ends) reversed.add_edge(exit_node, end);
  postdominators_ = std::make_unique<graph::Dominators>(reversed, exit_node);

  reach_ = graph::transitive_closure(graph_);

  unavoidable_.assign(graph_.node_count(), false);
  for (std::size_t n = 0; n < graph_.node_count(); ++n) {
    // On every complete path <=> post-dominates the start node.
    unavoidable_[n] =
        postdominators_->dominates(static_cast<TaskId>(n), starts[0]);
  }
}

void WorkflowSpec::require_validated() const {
  if (!validated()) {
    throw std::logic_error("WorkflowSpec " + name_ + ": call validate() first");
  }
}

TaskId WorkflowSpec::start() const {
  const auto starts = graph_.sources();
  if (starts.size() != 1) throw std::logic_error("workflow has no unique start");
  return starts[0];
}

std::vector<TaskId> WorkflowSpec::ends() const { return graph_.sinks(); }

bool WorkflowSpec::unavoidable(TaskId task) const {
  require_validated();
  return unavoidable_.at(static_cast<std::size_t>(task));
}

bool WorkflowSpec::control_dependent(TaskId ti, TaskId tj) const {
  require_validated();
  if (!is_branch(ti)) return false;
  if (ti == tj) return false;
  if (!reach_[static_cast<std::size_t>(ti)][static_cast<std::size_t>(tj)]) return false;
  return !postdominators_->dominates(tj, ti);
}

std::vector<TaskId> WorkflowSpec::dominant_nodes(TaskId task) const {
  require_validated();
  std::vector<TaskId> result;
  for (std::size_t b = 0; b < graph_.node_count(); ++b) {
    const auto branch = static_cast<TaskId>(b);
    if (control_dependent(branch, task)) result.push_back(branch);
  }
  return result;
}

std::string WorkflowSpec::to_dot() const {
  return graph::to_dot(graph_, name_, [this](TaskId n) {
    graph::DotNodeStyle style;
    const auto& spec = task(n);
    std::ostringstream label;
    label << spec.name;
    style.label = label.str();
    if (graph_.out_degree(n) > 1) style.shape = "diamond";
    return style;
  });
}

}  // namespace selfheal::wfspec
