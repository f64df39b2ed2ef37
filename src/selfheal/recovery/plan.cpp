#include "selfheal/recovery/plan.hpp"

#include <algorithm>
#include <sstream>

namespace selfheal::recovery {

const char* to_string(ActionType type) {
  return type == ActionType::kUndo ? "undo" : "redo";
}

bool RecoveryPlan::is_damaged(InstanceId id) const {
  return std::find(damaged.begin(), damaged.end(), id) != damaged.end();
}

void RecoveryPlan::clear() {
  malicious.clear();
  damaged.clear();
  candidate_undos.clear();
  definite_redos.clear();
  candidate_redos.clear();
  constraints.clear();
  damaged_branches.clear();
}

std::string RecoveryPlan::describe(
    const engine::SystemLog& log,
    const std::vector<const wfspec::WorkflowSpec*>& spec_of_run) const {
  auto name_of = [&](InstanceId id) -> std::string {
    const auto& e = log.entry(id);
    const auto* spec = spec_of_run.at(static_cast<std::size_t>(e.run));
    std::string name = spec->task(e.task).name;
    if (e.incarnation > 1) name += "^" + std::to_string(e.incarnation);
    return name + "@run" + std::to_string(e.run);
  };

  std::ostringstream out;
  out << "RecoveryPlan\n";
  out << "  malicious (B):";
  for (auto id : malicious) out << " " << name_of(id);
  out << "\n  damaged (undo, Thm1 c1+c3):";
  for (auto id : damaged) out << " " << name_of(id);
  out << "\n  candidate undos:";
  for (const auto& c : candidate_undos) {
    out << " " << name_of(c.instance) << "(c" << c.condition << ", guard "
        << name_of(c.guard_branch) << ")";
  }
  out << "\n  definite redos (Thm2 c1):";
  for (auto id : definite_redos) out << " " << name_of(id);
  out << "\n  candidate redos (Thm2 c2):";
  for (const auto& c : candidate_redos) {
    out << " " << name_of(c.instance) << "(guard " << name_of(c.guard_branch) << ")";
  }
  out << "\n  constraints: " << constraints.size() << "\n";
  for (const auto& c : constraints) {
    out << "    " << to_string(c.before_type) << "(" << name_of(c.before) << ") < "
        << to_string(c.after_type) << "(" << name_of(c.after) << ")  [rule "
        << c.rule << "]\n";
  }
  return out.str();
}

std::string RecoveryPlan::to_dot(
    const engine::SystemLog& log,
    const std::vector<const wfspec::WorkflowSpec*>& spec_of_run) const {
  auto name_of = [&](InstanceId id) -> std::string {
    const auto& e = log.entry(id);
    const auto* spec = spec_of_run.at(static_cast<std::size_t>(e.run));
    std::string name = spec->task(e.task).name;
    if (e.incarnation > 1) name += "^" + std::to_string(e.incarnation);
    return name;
  };
  auto node_id = [](ActionType type, InstanceId id) {
    return std::string(type == ActionType::kUndo ? "u" : "r") + std::to_string(id);
  };

  std::ostringstream out;
  out << "digraph recovery_plan {\n  rankdir=LR;\n";
  // Undo nodes: everything damaged, plus candidate undos (dashed).
  for (const auto id : damaged) {
    out << "  " << node_id(ActionType::kUndo, id) << " [label=\"undo "
        << name_of(id) << "\", style=filled, fillcolor=\"#ffd9b3\"];\n";
  }
  for (const auto& c : candidate_undos) {
    out << "  " << node_id(ActionType::kUndo, c.instance) << " [label=\"undo? "
        << name_of(c.instance) << " (c" << c.condition << ")\", style=dashed];\n";
  }
  // Redo nodes.
  for (const auto id : definite_redos) {
    out << "  " << node_id(ActionType::kRedo, id) << " [label=\"redo "
        << name_of(id) << "\", style=filled, fillcolor=\"#b3e6b3\"];\n";
  }
  for (const auto& c : candidate_redos) {
    out << "  " << node_id(ActionType::kRedo, c.instance) << " [label=\"redo? "
        << name_of(c.instance) << "\", style=dashed];\n";
  }
  for (const auto& c : constraints) {
    out << "  " << node_id(c.before_type, c.before) << " -> "
        << node_id(c.after_type, c.after) << " [label=\"r" << c.rule << "\"];\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace selfheal::recovery
