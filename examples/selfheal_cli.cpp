// selfheal_cli: drive the whole system from workflow DSL files.
//
//   selfheal_cli [flags] workflow1.wf workflow2.wf ...
//     --attack WORKFLOW:TASK   corrupt TASK of WORKFLOW's run
//                              (repeatable via comma list)
//     --dot                    print the workflows as Graphviz DOT
//     --deps                   print compile-time dependence relations
//     --log                    print the system log before/after
//     --plan                   print the recovery plan
//     --strategy strict|risky|multi-version
//     --save FILE              persist the repaired session to FILE
//     --load FILE              restore a session instead of running
//                              workflows (recovery then runs on it;
//                              --attack, --dot and --deps are refused)
//     --metrics-out FILE       dump the obs metrics snapshot as JSONL
//     --trace-out FILE         record spans; write Chrome trace_event
//                              JSON (chrome://tracing / Perfetto)
//     --metrics-summary        print the metrics summary table
//
// With no files, a built-in demo pair of workflows is used. Each file
// holds one workflow in the DSL of selfheal/wfspec/parser.hpp. All
// workflows share one object catalog, run once, are attacked as
// requested, detected by the simulated IDS, and repaired through the
// self-healing controller; the exit code reports strict correctness.
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "selfheal/engine/session_io.hpp"
#include "selfheal/obs/artifacts.hpp"
#include "selfheal/recovery/analyzer.hpp"
#include "selfheal/recovery/controller.hpp"
#include "selfheal/recovery/correctness.hpp"
#include "selfheal/util/flags.hpp"
#include "selfheal/util/fsio.hpp"
#include "selfheal/wfspec/parser.hpp"
#include "selfheal/wfspec/static_deps.hpp"

using namespace selfheal;

namespace {

constexpr const char* kDemoOrders = R"(
workflow orders
task receive writes order
task check reads order writes decision
task route reads decision writes lane selector decision
task express reads lane writes shipment
task standard reads lane writes shipment
task invoice reads shipment order writes bill
edge receive check
edge check route
edge route express standard
edge express invoice
edge standard invoice
)";

constexpr const char* kDemoAudit = R"(
workflow audit
task snapshot reads bill writes books
task verify reads books writes verdict
edge snapshot verify
)";

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::istringstream in(text);
  std::string part;
  while (std::getline(in, part, sep)) {
    if (!part.empty()) parts.push_back(part);
  }
  return parts;
}

}  // namespace

int run(const util::Flags& flags) {
  obs::init_from_flags(flags);
  const auto load_path = flags.get("load", "");
  bool show_dot = false;
  bool show_deps = false;
  std::string attack_list;
  if (load_path.empty()) {  // a loaded session already holds its runs and attacks
    show_dot = flags.get_bool("dot", false);
    show_deps = flags.get_bool("deps", false);
    attack_list = flags.get("attack", "orders:check");
  }
  const bool show_log = flags.get_bool("log", false);
  const auto strategy = flags.get("strategy", "strict");
  const bool show_plan = flags.get_bool("plan", false);
  const auto save_path = flags.get("save", "");
  flags.done();

  recovery::ControllerConfig config;
  if (strategy == "risky") {
    config.strategy = recovery::ConcurrencyStrategy::kRisky;
  } else if (strategy == "multi-version") {
    config.strategy = recovery::ConcurrencyStrategy::kMultiVersion;
  } else if (strategy != "strict") {
    throw std::invalid_argument("unknown strategy " + strategy);
  }

  engine::Session session;
  if (!load_path.empty()) {
    // --- Restore a persisted session (the attack is already inside).
    session = engine::load_session_file(load_path);
    std::printf("loaded session: %zu runs, %zu log entries\n",
                session.engine->run_count(), session.engine->log().size());
    session.engine->run_all();  // finish anything that was in flight
  } else {
    // --- Load workflows.
    session.catalog = std::make_unique<wfspec::ObjectCatalog>();
    auto& catalog = *session.catalog;
    auto& specs = session.specs;
    if (flags.positional().empty()) {
      specs.push_back(std::make_unique<wfspec::WorkflowSpec>(
          wfspec::parse_workflow(kDemoOrders, catalog)));
      specs.push_back(std::make_unique<wfspec::WorkflowSpec>(
          wfspec::parse_workflow(kDemoAudit, catalog)));
      std::printf("no workflow files given: using the built-in demo pair\n");
    } else {
      for (const auto& path : flags.positional()) {
        specs.push_back(std::make_unique<wfspec::WorkflowSpec>(
            wfspec::parse_workflow(util::read_file(path), catalog)));
      }
    }

    if (show_dot) {
      for (const auto& spec : specs) std::printf("%s\n", spec->to_dot().c_str());
    }
    if (show_deps) {
      // Compile-time dependences (Section IV.B): what a deployment would
      // ship to recovery nodes instead of the full specification.
      for (const auto& spec : specs) {
        const wfspec::StaticDependence static_deps(*spec);
        std::printf("static dependences of %s:\n%s\n", spec->name().c_str(),
                    static_deps.summary().c_str());
      }
    }

    // --- Start runs and inject the requested attacks.
    session.engine = std::make_unique<engine::Engine>();
    auto& eng = *session.engine;
    std::vector<engine::RunId> runs;
    for (const auto& spec : specs) runs.push_back(eng.start_run(*spec));

    for (const auto& attack : split(attack_list, ',')) {
      const auto colon = attack.find(':');
      if (colon == std::string::npos) {
        throw std::invalid_argument("--attack expects WORKFLOW:TASK");
      }
      const auto wf_name = attack.substr(0, colon);
      const auto task_name = attack.substr(colon + 1);
      bool found = false;
      for (std::size_t i = 0; i < specs.size(); ++i) {
        if (specs[i]->name() != wf_name) continue;
        eng.inject_malicious(runs[i], specs[i]->task_by_name(task_name));
        found = true;
      }
      if (!found) throw std::invalid_argument("no workflow named " + wf_name);
      std::printf("attack: %s\n", attack.c_str());
    }
    eng.run_all();
  }
  auto& eng = *session.engine;

  if (show_log) {
    std::printf("log (attacked): %s\n", eng.log().render(eng.specs_by_run()).c_str());
  }

  // --- Detect and recover through the controller.
  recovery::SelfHealingController controller(eng, config);

  ids::IdsSimulator detector;
  util::Rng rng(0x5e1f);
  const auto alerts = detector.detect(eng.log(), rng);
  std::printf("IDS raised %zu alert(s)\n", alerts.size());
  for (const auto& alert : alerts) controller.submit_alert(alert);

  if (show_plan && !alerts.empty()) {
    const recovery::RecoveryAnalyzer analyzer(eng);
    std::vector<engine::InstanceId> all;
    for (const auto& alert : alerts) {
      all.insert(all.end(), alert.malicious.begin(), alert.malicious.end());
    }
    std::printf("%s", analyzer.analyze(all)
                          .describe(eng.log(), eng.specs_by_run())
                          .c_str());
  }

  const auto work = controller.drain();
  std::printf("recovery complete: %zu work units, %zu scans, %zu units executed\n",
              work, controller.stats().scans, controller.stats().recoveries);

  if (show_log) {
    std::printf("log (repaired): %s\n", eng.log().render(eng.specs_by_run()).c_str());
  }

  const auto report = recovery::CorrectnessChecker(eng).check();
  std::printf("strict correct: %s (%s)\n", report.strict_correct() ? "YES" : "NO",
              report.summary.c_str());

  if (!save_path.empty()) {
    engine::save_session_file(eng, save_path);
    std::printf("session saved to %s\n", save_path.c_str());
  }
  obs::flush_from_flags(flags);
  return report.strict_correct() ? 0 : 1;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, run); }
