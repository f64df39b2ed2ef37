// Damage spreading vs IDS detection delay.
//
// Section IV.D: "our system does not depend on timely reporting from the
// IDS, the delay of identifying a malicious task is not a problem" --
// for CORRECTNESS. This bench quantifies the COST of the delay: the
// longer the malicious task goes undetected, the more normal tasks
// execute on top of the corrupted data, the larger the undo/redo sets
// and the recovery work become.
//
// Setup: one attacked workflow, then `delay` further benign workflows
// commit (all sharing objects) before the alert arrives.
#include <cstdio>
#include <vector>

#include "selfheal/recovery/analyzer.hpp"
#include "selfheal/recovery/correctness.hpp"
#include "selfheal/recovery/scheduler.hpp"
#include "selfheal/sim/workload.hpp"
#include "selfheal/util/flags.hpp"
#include "selfheal/util/table.hpp"
#include "selfheal/util/thread_pool.hpp"

using namespace selfheal;

namespace {

struct DelayRow {
  std::size_t delay = 0;
  std::size_t log_size = 0, damaged = 0, candidate_undos = 0;
  std::size_t undone = 0, redone = 0, fresh = 0;
  std::size_t analyzer_work = 0, scheduler_work = 0;
  bool strict_correct = false;
};

DelayRow run_delay(std::size_t delay) {
  // Same seed for every row: the attacked workflow and the stream of
  // later workflows are identical, only how many of them commit before
  // the alert differs.
  wfspec::ObjectCatalog catalog;
  sim::WorkloadConfig workload;
  workload.shared_object_prob = 0.5;  // heavy sharing: damage travels
  sim::WorkloadGenerator generator(catalog, workload);
  util::Rng rng(0xde1a);

  std::vector<std::unique_ptr<wfspec::WorkflowSpec>> specs;
  engine::Engine eng;

  // The attacked workflow commits first...
  specs.push_back(std::make_unique<wfspec::WorkflowSpec>(
      generator.generate("attacked", rng)));
  const auto victim_run = eng.start_run(*specs.back());
  eng.inject_malicious(victim_run, specs.back()->start());
  eng.run_all();
  engine::InstanceId bad = engine::kInvalidInstance;
  for (const auto& e : eng.log().entries()) {
    if (e.kind == engine::ActionKind::kMalicious) bad = e.id;
  }

  // ...then `delay` benign workflows run before the IDS reports.
  for (std::size_t d = 0; d < delay; ++d) {
    specs.push_back(std::make_unique<wfspec::WorkflowSpec>(
        generator.generate("later" + std::to_string(d), rng)));
    eng.start_run(*specs.back());
    eng.run_all();
  }

  const recovery::RecoveryAnalyzer analyzer(eng);
  const auto plan = analyzer.analyze({bad});
  const auto analyzer_work = analyzer.last_work_units();
  recovery::RecoveryScheduler scheduler(eng);
  const auto outcome = scheduler.execute(plan);
  const auto report = recovery::CorrectnessChecker(eng).check();

  return {delay,
          eng.log().size(),
          plan.damaged.size(),
          plan.candidate_undos.size(),
          outcome.undone.size(),
          outcome.redone.size(),
          outcome.fresh_entries.size(),
          analyzer_work,
          outcome.work_units,
          report.strict_correct()};
}

}  // namespace

int run(const util::Flags& flags) {
  const auto threads = flags.get_count("threads", 0);
  flags.done();

  std::printf("Recovery cost vs IDS detection delay\n");
  std::printf("(1 attacked workflow + N benign workflows committed before the "
              "alert; objects shared)\n");

  util::Table table({"delay (workflows)", "log size", "damaged", "cand. undo",
                     "undone", "redone", "fresh", "analyzer work",
                     "scheduler work", "strict correct"});

  // Each delay row is a self-contained engine + recovery pipeline; run
  // the rows in parallel and render in order (deterministic for any
  // --threads value).
  const std::vector<std::size_t> delays{0, 2, 4, 8, 16, 32};
  std::vector<DelayRow> rows(delays.size());
  util::parallel_for_index(threads, delays.size(),
                           [&](std::size_t i) { rows[i] = run_delay(delays[i]); });

  for (const auto& r : rows) {
    table.add(r.delay, r.log_size, r.damaged, r.candidate_undos, r.undone,
              r.redone, r.fresh, r.analyzer_work, r.scheduler_work,
              r.strict_correct ? "yes" : "NO");
  }

  std::printf("%s", table.render().c_str());
  std::printf("\n# Correctness holds at every delay (the paper's claim); the\n"
              "# damage closure and the recovery work grow with it (the cost).\n");
  return 0;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, run); }
