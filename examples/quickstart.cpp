// Quickstart: the paper's Figure 1, end to end.
//
// Builds the two example workflows, lets an attacker corrupt t1, shows
// how the damage spreads (t2, t4, t8, t10 infected; t2 takes the wrong
// path P1), then runs the recovery analyzer + scheduler and verifies
// strict correctness against the clean-execution oracle.
//
//   $ ./quickstart [--dot]
#include <cstdio>
#include <set>
#include <string>

#include "selfheal/deps/dependency.hpp"
#include "selfheal/graph/dot.hpp"
#include "selfheal/recovery/analyzer.hpp"
#include "selfheal/recovery/correctness.hpp"
#include "selfheal/recovery/scheduler.hpp"
#include "selfheal/util/flags.hpp"
#include "selfheal/wfspec/workflow_spec.hpp"

using namespace selfheal;

namespace {

std::string name_of(const engine::Engine& eng, engine::InstanceId id) {
  const auto& e = eng.log().entry(id);
  return eng.spec_of(e.run).task(e.task).name;
}

// Picks a workflow name whose deterministic task semantics send the
// benign execution down P2 (t5) and the corrupted one down P1 (t3),
// matching the paper's Figure 1 story exactly.
std::string pick_orders_name(wfspec::ObjectCatalog& catalog) {
  const auto o1 = catalog.intern("o1");
  for (int salt = 0;; ++salt) {
    const std::string name = "orders-" + std::to_string(salt);
    const auto clean =
        engine::compute_output(engine::task_seed(name, "t1"), o1, 1, {});
    if (engine::choose_branch(clean, 2) == 1 &&
        engine::choose_branch(engine::corrupt(clean), 2) == 0) {
      return name;
    }
  }
}

void print_ids(const char* label, const engine::Engine& eng,
               const std::vector<engine::InstanceId>& ids) {
  std::printf("%s", label);
  for (const auto id : ids) std::printf(" %s", name_of(eng, id).c_str());
  std::printf("\n");
}

}  // namespace

int run(const util::Flags& flags) {
  const bool dot = flags.get_bool("dot", false);
  flags.done();

  // --- Build the Figure 1 workflows over a shared object catalog.
  wfspec::ObjectCatalog catalog;

  wfspec::WorkflowSpec wf1(pick_orders_name(catalog), catalog);
  const auto t1 = wf1.add_task("t1", {}, {"o1"});
  const auto t2 = wf1.add_task("t2", {"o1"}, {"o2"});
  const auto t3 = wf1.add_task("t3", {"c3"}, {"o3"});
  const auto t4 = wf1.add_task("t4", {"o3", "o2"}, {"o4"});
  const auto t5 = wf1.add_task("t5", {"o2"}, {"o5"});
  const auto t6 = wf1.add_task("t6", {"o5"}, {"o6"});
  wf1.add_edge(t1, t2);
  wf1.add_edge(t2, t3);  // path P1
  wf1.add_edge(t2, t5);  // path P2
  wf1.add_edge(t3, t4);
  wf1.add_edge(t4, t6);
  wf1.add_edge(t5, t6);
  wf1.validate();

  wfspec::WorkflowSpec wf2("audit", catalog);
  const auto t7 = wf2.add_task("t7", {}, {"p1"});
  const auto t8 = wf2.add_task("t8", {"p1", "o1"}, {"p2"});  // shares o1!
  const auto t9 = wf2.add_task("t9", {"p1"}, {"p3"});
  const auto t10 = wf2.add_task("t10", {"p2"}, {"p4"});
  wf2.add_edge(t7, t8);
  wf2.add_edge(t8, t9);
  wf2.add_edge(t9, t10);
  wf2.validate();

  if (dot) {
    std::printf("%s\n%s\n", wf1.to_dot().c_str(), wf2.to_dot().c_str());
  }

  // --- Execute with t1 corrupted by the attacker.
  engine::Engine eng;
  const auto r1 = eng.start_run(wf1);
  eng.start_run(wf2);
  eng.inject_malicious(r1, t1);
  eng.run_all();

  std::printf("system log (attacked execution):\n  %s\n\n",
              eng.log().render(eng.specs_by_run()).c_str());

  // --- What did the attack damage? (Theorem 1)
  engine::InstanceId bad = engine::kInvalidInstance;
  for (const auto& e : eng.log().entries()) {
    if (e.kind == engine::ActionKind::kMalicious) bad = e.id;
  }
  std::printf("IDS reports: %s\n", name_of(eng, bad).c_str());

  const recovery::RecoveryAnalyzer analyzer(eng);
  const auto plan = analyzer.analyze({bad});
  print_ids("damaged (undo):     ", eng, plan.damaged);
  std::printf("candidate undos:    ");
  for (const auto& c : plan.candidate_undos) {
    std::printf(" %s(c%d)", name_of(eng, c.instance).c_str(), c.condition);
  }
  std::printf("\n");
  print_ids("definite redos:     ", eng, plan.definite_redos);
  std::printf("candidate redos:    ");
  for (const auto& c : plan.candidate_redos) {
    std::printf(" %s", name_of(eng, c.instance).c_str());
  }
  std::printf("\npartial-order constraints: %zu (Theorem 3)\n\n",
              plan.constraints.size());

  // --- Execute the recovery (Theorem 2 + scheduler).
  recovery::RecoveryScheduler scheduler(eng);
  const auto outcome = scheduler.execute(plan);
  print_ids("undone:   ", eng, outcome.undone);
  print_ids("redone:   ", eng, outcome.redone);
  print_ids("orphaned: ", eng, outcome.orphaned);
  std::printf("fresh executions:");
  for (const auto id : outcome.fresh_entries) {
    std::printf(" %s", name_of(eng, id).c_str());
  }
  std::printf("\nreused untouched: %zu, divergences: %zu\n\n", outcome.reused,
              outcome.divergences);

  std::printf("system log (after recovery):\n  %s\n\n",
              eng.log().render(eng.specs_by_run()).c_str());

  // --- Verify strict correctness (Definition 2).
  const recovery::CorrectnessChecker checker(eng);
  const auto report = checker.check();
  std::printf("strict correct: %s (%s)\n", report.strict_correct() ? "YES" : "NO",
              report.summary.c_str());
  return report.strict_correct() ? 0 : 1;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, run); }
