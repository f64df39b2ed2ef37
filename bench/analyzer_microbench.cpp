// Micro-benchmarks of the recovery analyzer and scheduler (Section VI
// step 1: "design and evaluate the performance degradation of analyzing
// algorithm and scheduling algorithm").
//
// Reported per log size and per queued-attack count, these are the real
// mu_k / xi_k cost curves of this implementation.
#include <benchmark/benchmark.h>

#include "selfheal/recovery/analyzer.hpp"
#include "selfheal/recovery/correctness.hpp"
#include "selfheal/recovery/scheduler.hpp"
#include "selfheal/sim/workload.hpp"

using namespace selfheal;

namespace {

void BM_DependencyGraphBuild(benchmark::State& state) {
  const auto n_workflows = static_cast<std::size_t>(state.range(0));
  const auto scenario = sim::make_attack_scenario(7, n_workflows, 1);
  for (auto _ : state) {
    deps::DependencyAnalyzer deps(scenario.engine->log(),
                                  scenario.engine->specs_by_run());
    benchmark::DoNotOptimize(deps.edges().size());
  }
  state.SetComplexityN(static_cast<std::int64_t>(scenario.engine->log().size()));
}
BENCHMARK(BM_DependencyGraphBuild)
    ->Arg(2)->Arg(8)->Arg(32)->Arg(64)->Arg(256)->Arg(1024)->Complexity();

void BM_IncrementalRefresh(benchmark::State& state) {
  // The controller's steady-state scan path: a long-lived analyzer
  // ingests only the entries committed since the previous scan. Each
  // iteration appends a fixed 4-run batch to an ever-growing log; the
  // refresh cost must stay O(batch), independent of the history.
  const auto base_workflows = static_cast<std::size_t>(state.range(0));
  auto scenario = sim::make_attack_scenario(23, base_workflows, 1);
  auto& eng = *scenario.engine;
  deps::DependencyAnalyzer deps(eng.log(), eng.specs_by_run());
  for (auto _ : state) {
    state.PauseTiming();
    for (std::size_t i = 0; i < 4 && i < scenario.specs.size(); ++i) {
      eng.start_run(*scenario.specs[i]);
    }
    eng.run_all();
    state.ResumeTiming();
    deps.refresh(eng.log(), eng.specs_by_run());
    benchmark::DoNotOptimize(deps.edges().size());
  }
  state.counters["final_log"] = static_cast<double>(eng.log().size());
}
BENCHMARK(BM_IncrementalRefresh)->Arg(16)->Arg(64)->Arg(256)->Iterations(256);

void BM_FlowClosure(benchmark::State& state) {
  // Closure machinery alone: epoch-stamped visited array, and the
  // result buffer as the worklist, reused across calls (no per-call
  // set/deque allocation).
  const auto n_workflows = static_cast<std::size_t>(state.range(0));
  const auto scenario = sim::make_attack_scenario(29, n_workflows, 2);
  const deps::DependencyAnalyzer deps(scenario.engine->log(),
                                      scenario.engine->specs_by_run());
  std::vector<engine::InstanceId> closure;
  for (auto _ : state) {
    deps.flow_closure(scenario.malicious, closure);
    benchmark::DoNotOptimize(closure.size());
  }
  state.SetComplexityN(static_cast<std::int64_t>(scenario.engine->log().size()));
}
BENCHMARK(BM_FlowClosure)->Arg(8)->Arg(64)->Arg(256)->Arg(1024)->Complexity();

void BM_AnalyzeOneAlert(benchmark::State& state) {
  const auto n_workflows = static_cast<std::size_t>(state.range(0));
  const auto scenario = sim::make_attack_scenario(11, n_workflows, 1);
  const recovery::RecoveryAnalyzer analyzer(*scenario.engine);
  for (auto _ : state) {
    auto plan = analyzer.analyze(scenario.malicious);
    benchmark::DoNotOptimize(plan.damaged.size());
  }
  state.SetComplexityN(static_cast<std::int64_t>(scenario.engine->log().size()));
}
BENCHMARK(BM_AnalyzeOneAlert)
    ->Arg(2)->Arg(8)->Arg(32)->Arg(64)->Arg(256)->Complexity();

void BM_AnalyzeOneAlertIncremental(benchmark::State& state) {
  // Like BM_AnalyzeOneAlert but through a pre-synced incremental graph
  // (the controller's hot path): refresh is a no-op check + analyze.
  const auto n_workflows = static_cast<std::size_t>(state.range(0));
  const auto scenario = sim::make_attack_scenario(11, n_workflows, 1);
  auto& eng = *scenario.engine;
  deps::DependencyAnalyzer deps(eng.log(), eng.specs_by_run());
  for (auto _ : state) {
    deps.refresh(eng.log(), eng.specs_by_run());
    const recovery::RecoveryAnalyzer analyzer(eng, deps);
    auto plan = analyzer.analyze(scenario.malicious);
    benchmark::DoNotOptimize(plan.damaged.size());
  }
  state.SetComplexityN(static_cast<std::int64_t>(eng.log().size()));
}
BENCHMARK(BM_AnalyzeOneAlertIncremental)
    ->Arg(2)->Arg(8)->Arg(32)->Arg(64)->Arg(256)->Complexity();

void BM_AnalyzeManyAttacks(benchmark::State& state) {
  // mu_k style: cost of one analysis as the number of concurrent attacks
  // (queued units of damage) grows.
  const auto n_attacks = static_cast<std::size_t>(state.range(0));
  const auto scenario = sim::make_attack_scenario(13, 16, n_attacks);
  const recovery::RecoveryAnalyzer analyzer(*scenario.engine);
  for (auto _ : state) {
    auto plan = analyzer.analyze(scenario.malicious);
    benchmark::DoNotOptimize(plan.constraints.size());
  }
}
BENCHMARK(BM_AnalyzeManyAttacks)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_FullRecovery(benchmark::State& state) {
  // xi_k style: undo+replay cost, per scenario size. The scheduler
  // mutates the engine, so each iteration builds a fresh scenario
  // (subtracted via manual timing).
  const auto n_workflows = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto scenario = sim::make_attack_scenario(17, n_workflows, 2);
    const recovery::RecoveryAnalyzer analyzer(*scenario.engine);
    auto plan = analyzer.analyze(scenario.malicious);
    state.ResumeTiming();
    recovery::RecoveryScheduler scheduler(*scenario.engine);
    const auto outcome = scheduler.execute(plan);
    benchmark::DoNotOptimize(outcome.action_entries.size());
  }
}
BENCHMARK(BM_FullRecovery)->Arg(2)->Arg(8)->Arg(32);

void BM_OracleCheck(benchmark::State& state) {
  auto scenario = sim::make_attack_scenario(19, 16, 1);
  const recovery::RecoveryAnalyzer analyzer(*scenario.engine);
  recovery::RecoveryScheduler scheduler(*scenario.engine);
  scheduler.execute(analyzer.analyze(scenario.malicious));
  const recovery::CorrectnessChecker checker(*scenario.engine);
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker.check().complete);
  }
}
BENCHMARK(BM_OracleCheck);

}  // namespace
