// Bank-fraud scenario (the paper's first motivating example: "an
// attacker may forge bank transactions to steal money from accounts of
// others").
//
// Three transfer workflows (defined in the text DSL) and one audit
// workflow share a ledger. The attacker forges the validation step of
// one transfer; the forged validation corrupts the routing decision and
// the ledger, and the audit workflow is infected through the shared
// objects. The self-healing controller receives the IDS alert, analyzes
// the damage, repairs it, and the oracle confirms the ledger is clean.
//
//   $ ./bank_fraud
#include <cstdio>
#include <string>

#include "selfheal/recovery/controller.hpp"
#include "selfheal/recovery/correctness.hpp"
#include "selfheal/util/flags.hpp"
#include "selfheal/wfspec/parser.hpp"

using namespace selfheal;

namespace {

std::string transfer_dsl(const std::string& name) {
  return "workflow " + name + R"(
task submit writes request
task validate reads request writes approval
task route reads approval writes decision selector approval
task execute_debit reads decision writes ledger
task execute_credit reads ledger decision writes ledger
task reject reads decision writes rejection_log
task notify reads ledger rejection_log writes notice
edge submit validate
edge validate route
edge route execute_debit reject
edge execute_debit execute_credit
edge execute_credit notify
edge reject notify
)";
}

constexpr const char* kAuditDsl = R"(
workflow audit
task open_books reads ledger writes working_set
task reconcile reads working_set ledger writes reconciliation
task report reads reconciliation writes audit_report
edge open_books reconcile
edge reconcile report
)";

}  // namespace

int run(const util::Flags& flags) {
  flags.done();
  wfspec::ObjectCatalog catalog;

  // Shared catalog: every transfer and the audit touch the same ledger.
  const auto wf_a = wfspec::parse_workflow(transfer_dsl("transfer_alice"), catalog);
  const auto wf_b = wfspec::parse_workflow(transfer_dsl("transfer_bob"), catalog);
  const auto wf_c = wfspec::parse_workflow(transfer_dsl("transfer_carol"), catalog);
  const auto wf_audit = wfspec::parse_workflow(kAuditDsl, catalog);

  engine::Engine eng;
  const auto run_a = eng.start_run(wf_a);
  eng.start_run(wf_b);
  eng.start_run(wf_audit);

  // The attacker forges Alice's validation (stolen credentials).
  eng.inject_malicious(run_a, wf_a.task_by_name("validate"));
  eng.run_all();

  const auto ledger = *catalog.find("ledger");
  std::printf("attacked execution committed %zu task instances\n", eng.log().size());
  std::printf("ledger value after attack: %lld\n",
              static_cast<long long>(eng.store().read(ledger)));

  // The attack is detected only later; meanwhile Carol's transfer and
  // more work arrive. The controller defers them (Theorem 4).
  recovery::SelfHealingController controller(eng);
  engine::InstanceId forged = engine::kInvalidInstance;
  for (const auto& e : eng.log().entries()) {
    if (e.kind == engine::ActionKind::kMalicious) forged = e.id;
  }
  ids::Alert alert;
  alert.malicious.push_back(forged);
  controller.submit_alert(alert);
  std::printf("\nIDS alert submitted; controller state: %s\n",
              recovery::to_string(controller.state()));

  const auto deferred = controller.submit_run(wf_c);
  std::printf("Carol's transfer submitted during SCAN: %s\n",
              deferred ? "started (unexpected!)" : "deferred per Theorem 4");

  const auto work = controller.drain();
  std::printf("recovery drained: %zu work units; state: %s\n", work,
              recovery::to_string(controller.state()));
  std::printf("deferred runs released: %zu runs total, %zu active\n",
              eng.run_count(), eng.active_runs());

  std::printf("ledger value after recovery: %lld\n",
              static_cast<long long>(eng.store().read(ledger)));

  const recovery::CorrectnessChecker checker(eng);
  const auto report = checker.check();
  std::printf("\nstrict correct: %s (%s)\n", report.strict_correct() ? "YES" : "NO",
              report.summary.c_str());

  const auto& stats = controller.stats();
  std::printf("alerts=%zu scans=%zu recoveries=%zu scan_work=%zu recovery_work=%zu\n",
              stats.alerts_received, stats.scans, stats.recoveries, stats.scan_work,
              stats.recovery_work);
  return report.strict_correct() ? 0 : 1;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, run); }
