// Differential tests: the scheduler's cone replay against the full sweep
// it replaced (tests/support/full_sweep). For every plan both executors
// start from the same engine state; they must append the same log
// entries (format_log_entry), leave the same effective store and run
// control, and report the same outcome apart from work_units and
// timings. Controller-driven sweeps (service storms, the mixed soak,
// chaos campaigns) check every plan through a RecoveryObserver that
// runs the full sweep on a copy of the engine.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "figure1.hpp"
#include "full_sweep.hpp"
#include "selfheal/chaos/campaign.hpp"
#include "selfheal/engine/durable_session.hpp"
#include "selfheal/engine/session_io.hpp"
#include "selfheal/recovery/analyzer.hpp"
#include "selfheal/recovery/controller.hpp"
#include "selfheal/recovery/correctness.hpp"
#include "selfheal/recovery/scheduler.hpp"
#include "selfheal/service/loadgen.hpp"
#include "selfheal/sim/workload.hpp"

namespace {

using namespace selfheal;
using selfheal::testing::Figure1;
using selfheal::testing::full_sweep_execute;

/// What one executor did to an engine, in comparable form.
struct RoundResult {
  std::vector<std::string> entries;  // appended log entries
  std::vector<engine::Value> store;
  std::string runs;     // run control (pc, active, visits)
  std::string outcome;  // RecoveryOutcome::signature()

  bool operator==(const RoundResult&) const = default;
};

RoundResult capture(const engine::Engine& eng, std::size_t log_before,
                    const recovery::RecoveryOutcome& outcome) {
  RoundResult r;
  for (std::size_t i = log_before; i < eng.log().size(); ++i) {
    r.entries.push_back(
        engine::format_log_entry(eng.log().entry(static_cast<engine::InstanceId>(i))));
  }
  r.store = eng.store().snapshot();
  std::ostringstream runs;
  for (std::size_t run = 0; run < eng.run_count(); ++run) {
    const auto snap = eng.run_snapshot(static_cast<engine::RunId>(run));
    runs << run << ":" << snap.pc << "/" << snap.active << "/" << snap.aborted;
    for (const auto& [task, n] : snap.visits) runs << " " << task << "x" << n;
    runs << "\n";
  }
  r.runs = runs.str();
  r.outcome = outcome.signature();
  return r;
}

std::string describe(const RoundResult& expected, const RoundResult& actual) {
  std::ostringstream out;
  out << "entries " << (expected.entries == actual.entries ? "same" : "DIFFER")
      << " (" << expected.entries.size() << " vs " << actual.entries.size()
      << "), store " << (expected.store == actual.store ? "same" : "DIFFER")
      << ", runs " << (expected.runs == actual.runs ? "same" : "DIFFER")
      << "\nexpected outcome:\n" << expected.outcome << "actual outcome:\n"
      << actual.outcome;
  return out.str();
}

/// The full sweep's result for `plan` on a copy of `eng`.
RoundResult full_sweep_round(const engine::Engine& eng,
                             const recovery::RecoveryPlan& plan, bool clean_reads) {
  engine::Engine copy = eng;
  copy.set_durability_observer(nullptr);
  copy.set_fault_injector(nullptr);
  const auto before = copy.log().size();
  const auto outcome = full_sweep_execute(copy, plan, clean_reads);
  return capture(copy, before, outcome);
}

/// Executes `plan` on `eng` with the scheduler (borrowing `deps` when
/// given) and expects exactly what the full sweep commits.
recovery::RecoveryOutcome expect_full_sweep_result(
    engine::Engine& eng, const recovery::RecoveryPlan& plan,
    const std::string& where, recovery::SchedulerOptions options = {},
    deps::DependencyAnalyzer* deps = nullptr) {
  const auto expected = full_sweep_round(eng, plan, options.clean_reads);
  const auto before = eng.log().size();
  auto outcome = deps != nullptr
                     ? recovery::RecoveryScheduler(eng, *deps, options).execute(plan)
                     : recovery::RecoveryScheduler(eng, options).execute(plan);
  const auto actual = capture(eng, before, outcome);
  EXPECT_TRUE(actual == expected) << where << ": " << describe(expected, actual);
  return outcome;
}

/// Checks every recovery a controller executes against the full sweep.
/// Thread-safe: daemons call it from their workers, one engine each.
class DifferentialObserver : public recovery::RecoveryObserver {
 public:
  void before_recovery(const engine::Engine& eng, const recovery::RecoveryPlan& plan,
                       const recovery::SchedulerOptions& options) override {
    Pending pending{eng.log().size(), full_sweep_round(eng, plan, options.clean_reads)};
    const std::size_t moved = count_moved_triples(eng, plan);
    std::lock_guard<std::mutex> lock(mu_);
    moved_triples_ += moved;
    pending_[&eng] = std::move(pending);
  }

  void after_recovery(const engine::Engine& eng, const recovery::RecoveryPlan&,
                      const recovery::RecoveryOutcome& outcome) override {
    Pending pending;
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending = std::move(pending_.at(&eng));
      pending_.erase(&eng);
    }
    const auto actual = capture(eng, pending.log_before, outcome);
    std::lock_guard<std::mutex> lock(mu_);
    ++plans_;
    undone_per_plan_.push_back(outcome.undone.size());
    if (!(actual == pending.expected)) {
      ++mismatches_;
      if (first_mismatch_.empty()) first_mismatch_ = describe(pending.expected, actual);
    }
  }

  [[nodiscard]] std::size_t plans() const { return plans_; }
  [[nodiscard]] std::size_t mismatches() const { return mismatches_; }
  [[nodiscard]] std::size_t moved_triples() const { return moved_triples_; }
  [[nodiscard]] const std::string& first_mismatch() const { return first_mismatch_; }
  [[nodiscard]] const std::vector<std::size_t>& undone_per_plan() const {
    return undone_per_plan_;
  }

 private:
  struct Pending {
    std::size_t log_before = 0;
    RoundResult expected;
  };

  /// Plan entries whose triple an earlier round re-executed at another
  /// slot: the scheduler must seed the LIVE execution, not the named one.
  static std::size_t count_moved_triples(const engine::Engine& eng,
                                         const recovery::RecoveryPlan& plan) {
    const auto& log = eng.log();
    std::size_t moved = 0;
    for (const auto id : plan.damaged) {
      const auto& e = log.entry(id);
      const auto live = log.find_latest_execution(e.run, e.task, e.incarnation);
      if (live && *live != id && log.is_live_execution(*live) &&
          log.entry(*live).logical_slot != e.logical_slot) {
        ++moved;
      }
    }
    return moved;
  }

  std::mutex mu_;
  std::map<const engine::Engine*, Pending> pending_;
  std::size_t plans_ = 0;
  std::size_t mismatches_ = 0;
  std::size_t moved_triples_ = 0;
  std::vector<std::size_t> undone_per_plan_;
  std::string first_mismatch_;
};

std::vector<engine::InstanceId> malicious_in(const engine::Engine& eng) {
  std::vector<engine::InstanceId> ids;
  for (const auto& e : eng.log().entries()) {
    if (e.kind == engine::ActionKind::kMalicious) ids.push_back(e.id);
  }
  return ids;
}

// --- One plan per attacked scenario, 50 seeds.
TEST(ConeReplay, MatchesFullSweepOnFiftyPlans) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    auto scenario = sim::make_attack_scenario(seed, 16, 2);
    auto& eng = *scenario.engine;
    const auto plan = recovery::RecoveryAnalyzer(eng).analyze(scenario.malicious);
    expect_full_sweep_result(eng, plan, "seed " + std::to_string(seed));
    EXPECT_TRUE(recovery::CorrectnessChecker(eng).check().strict_correct())
        << "seed " << seed;
  }
}

// A wide damage closure over 256 workflows: many independent cascade
// branches, each its own cone.
TEST(ConeReplay, WideCascadeMatchesFullSweep) {
  auto scenario = sim::make_attack_scenario(0x42, 256, 1);
  auto& eng = *scenario.engine;
  const auto plan = recovery::RecoveryAnalyzer(eng).analyze(scenario.malicious);
  const auto outcome = expect_full_sweep_result(eng, plan, "wide cascade");
  EXPECT_GT(outcome.undone.size(), 1u);
  EXPECT_TRUE(recovery::CorrectnessChecker(eng).check().strict_correct());
}

// A controller keeps one scheduler, whose scratch (per-round flags,
// object overlays, run walks, queues, outcome) the next round reuses. A
// wide round fills it across hundreds of runs and objects; the narrow
// round after it must see none of that state.
TEST(ConeReplay, WideRoundThenNarrowRoundThroughOneControllerScratch) {
  auto scenario = sim::make_attack_scenario(0x42, 256, 1);
  auto& eng = *scenario.engine;
  DifferentialObserver observer;
  recovery::ControllerConfig config;
  config.recovery_observer = &observer;
  recovery::SelfHealingController controller(eng, config);
  controller.submit_alert(ids::Alert{scenario.malicious, 0.0});
  controller.drain();

  // The narrow attack: one more run of a spec the wide round replayed.
  const auto& spec = *scenario.specs.front();
  const auto run = eng.start_run(spec);
  eng.inject_malicious(run, spec.start());
  eng.run_all();
  controller.submit_alert(ids::Alert{eng.malicious_entries(run), 0.0});
  controller.drain();

  ASSERT_EQ(observer.plans(), 2u);
  EXPECT_EQ(observer.mismatches(), 0u) << observer.first_mismatch();
  EXPECT_GT(observer.undone_per_plan()[0], 4 * observer.undone_per_plan()[1]);
  EXPECT_GT(observer.undone_per_plan()[1], 0u);
  EXPECT_TRUE(recovery::CorrectnessChecker(eng).check().strict_correct());
}

// Two runs sharing ONE object `s` that both read AND write (the second
// run reads it first, so the corruption crosses runs): the cone must
// follow the change from one run into the other.
TEST(ConeReplay, TwoRunsShareOneObjectConflict) {
  wfspec::ObjectCatalog catalog;
  wfspec::WorkflowSpec writer("conflict-writer", catalog);
  const auto t1 = writer.add_task("t1", {}, {"s"});
  const auto t2 = writer.add_task("t2", {"s"}, {"s"});
  writer.add_edge(t1, t2);
  writer.validate();
  wfspec::WorkflowSpec reader("conflict-reader", catalog);
  const auto u1 = reader.add_task("u1", {"s"}, {"s"});
  const auto u2 = reader.add_task("u2", {"s"}, {"out"});
  reader.add_edge(u1, u2);
  reader.validate();

  engine::Engine eng;
  const auto r1 = eng.start_run(writer);
  (void)eng.start_run(reader);
  eng.inject_malicious(r1, t1);
  eng.run_all();
  const auto plan = recovery::RecoveryAnalyzer(eng).analyze(malicious_in(eng));
  const auto outcome = expect_full_sweep_result(eng, plan, "shared object");
  bool other_run_redone = false;
  for (const auto id : outcome.redone) {
    if (eng.log().entry(id).run != r1) other_run_redone = true;
  }
  EXPECT_TRUE(other_run_redone);
  EXPECT_TRUE(recovery::CorrectnessChecker(eng).check().strict_correct());
}

// The WAL a durable store records for the recovery is byte-identical.
TEST(ConeReplay, WalBytesMatchFullSweep) {
  const auto wal_after_recovery = [](bool cone) {
    auto scenario = sim::make_attack_scenario(7, 16, 2);
    auto& eng = *scenario.engine;
    engine::DurableSessionStore durable;
    durable.checkpoint(eng);
    eng.set_durability_observer(&durable);
    const auto plan = recovery::RecoveryAnalyzer(eng).analyze(scenario.malicious);
    if (cone) {
      recovery::RecoveryScheduler(eng).execute(plan);
    } else {
      full_sweep_execute(eng, plan);
    }
    eng.set_durability_observer(nullptr);
    EXPECT_FALSE(durable.wal().empty());
    return durable.wal();
  };
  EXPECT_EQ(wal_after_recovery(true), wal_after_recovery(false));
}

// Phase timings are reported, and the cone does less work than the
// sweep over every run.
TEST(ConeReplay, PhaseTimingFieldsAreSane) {
  auto scenario = sim::make_attack_scenario(3, 64, 1);
  auto& eng = *scenario.engine;
  const auto plan = recovery::RecoveryAnalyzer(eng).analyze(scenario.malicious);
  engine::Engine copy = eng;
  const auto full = full_sweep_execute(copy, plan);
  const auto outcome = recovery::RecoveryScheduler(eng).execute(plan);
  EXPECT_GE(outcome.undo_ms, 0.0);
  EXPECT_GE(outcome.replay_ms, 0.0);
  EXPECT_GE(outcome.reconcile_ms, 0.0);
  EXPECT_LT(outcome.work_units, full.work_units);
  EXPECT_EQ(outcome.reused, full.reused);
}

// Paper Figure 1: the branch redo re-chooses the shorter path, so the
// run's last recorded slot loses its write.
TEST(ConeReplay, Figure1BranchDivergence) {
  const Figure1 fig;
  auto eng = fig.run_attacked();
  const auto plan =
      recovery::RecoveryAnalyzer(eng).analyze({Figure1::malicious_instance(eng)});
  const auto outcome = expect_full_sweep_result(eng, plan, "figure 1");
  EXPECT_EQ(outcome.divergences, 1u);
  EXPECT_FALSE(outcome.orphaned.empty());
  EXPECT_TRUE(recovery::CorrectnessChecker(eng).check().strict_correct());
}

/// A branch whose attacked choice is the SHORT path and whose benign
/// choice is the long one: recovery walks the run past its recorded
/// history into overflow slots.
struct LongerBenignPath {
  wfspec::ObjectCatalog catalog;
  wfspec::WorkflowSpec wf;
  wfspec::WorkflowSpec neighbour{"overflow-neighbour", catalog};
  wfspec::TaskId t1 = wfspec::kInvalidTask;

  LongerBenignPath() : wf(pick_name(), catalog) {
    t1 = wf.add_task("t1", {}, {"sel"});
    const auto b = wf.add_task("b", {"sel"}, {"x"});
    const auto end = wf.add_task("end", {"x"}, {"y"});
    const auto l1 = wf.add_task("l1", {"x"}, {"z"});
    const auto l2 = wf.add_task("l2", {"z"}, {"shared"});
    const auto l3 = wf.add_task("l3", {"shared"}, {"w"});
    wf.add_edge(t1, b);
    wf.add_edge(b, end);  // successor index 0 = the short (attacked) path
    wf.add_edge(b, l1);   // successor index 1 = the long (benign) path
    wf.add_edge(l1, l2);
    wf.add_edge(l2, l3);
    wf.add_edge(l3, end);
    wf.validate();
    const auto n1 = neighbour.add_task("n1", {}, {"shared"});
    const auto n2 = neighbour.add_task("n2", {"shared"}, {"v"});
    neighbour.add_edge(n1, n2);
    neighbour.validate();
  }

  static std::string pick_name() {
    for (int salt = 0; salt < 1024; ++salt) {
      const std::string name = "overflow-wf-" + std::to_string(salt);
      wfspec::ObjectCatalog probe;
      const auto sel = probe.intern("sel");
      const auto clean = engine::compute_output(engine::task_seed(name, "t1"), sel, 1, {});
      if (engine::choose_branch(clean, 2) == 1 &&
          engine::choose_branch(engine::corrupt(clean), 2) == 0) {
        return name;
      }
    }
    throw std::logic_error("no suitable workflow name");
  }
};

TEST(ConeReplay, BranchDivergenceIntoOverflowSlots) {
  const LongerBenignPath fixture;
  engine::Engine eng;
  const auto run = eng.start_run(fixture.wf);
  (void)eng.start_run(fixture.neighbour);
  eng.inject_malicious(run, fixture.t1);
  eng.run_all();
  const auto overflow_base = eng.log().next_slot();
  const auto plan = recovery::RecoveryAnalyzer(eng).analyze(malicious_in(eng));
  const auto outcome = expect_full_sweep_result(eng, plan, "overflow");
  EXPECT_EQ(outcome.divergences, 1u);
  std::size_t in_overflow = 0;
  for (const auto id : outcome.fresh_entries) {
    if (eng.log().entry(id).logical_slot >= overflow_base) ++in_overflow;
  }
  EXPECT_GT(in_overflow, 0u);
  EXPECT_TRUE(recovery::CorrectnessChecker(eng).check().strict_correct());
}

// Random branching workloads: many divergences, some into overflow.
TEST(ConeReplay, RandomBranchingMatchesFullSweep) {
  sim::WorkloadConfig workload;
  workload.branch_prob = 0.8;
  workload.shared_object_prob = 0.5;
  std::size_t diverged = 0;
  for (std::uint64_t seed = 1; seed <= 80; ++seed) {
    auto scenario = sim::make_attack_scenario(seed, 8, 3, workload);
    auto& eng = *scenario.engine;
    const auto plan = recovery::RecoveryAnalyzer(eng).analyze(scenario.malicious);
    diverged += expect_full_sweep_result(eng, plan, "seed " + std::to_string(seed))
                    .divergences;
  }
  EXPECT_GT(diverged, 0u);
}

// Runs still in flight (halted at their recorded history) and runs a
// permanent fault aborted, recovered mid-execution.
TEST(ConeReplay, InFlightAndAbortedRuns) {
  sim::WorkloadConfig workload;
  workload.branch_prob = 0.5;
  workload.shared_object_prob = 0.5;
  std::size_t in_flight = 0;
  std::size_t aborted = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    wfspec::ObjectCatalog catalog;
    util::Rng rng(seed);
    sim::WorkloadGenerator generator(catalog, workload);
    std::vector<std::unique_ptr<wfspec::WorkflowSpec>> specs;
    engine::Engine eng;
    for (int w = 0; w < 6; ++w) {
      specs.push_back(std::make_unique<wfspec::WorkflowSpec>(
          generator.generate("wf" + std::to_string(w), rng)));
      eng.start_run(*specs.back());
    }
    // Run 1 fails permanently on its second task: graceful degradation.
    const auto run1_start = specs[1]->start();
    eng.set_fault_injector([run1_start](engine::RunId run, wfspec::TaskId task, int,
                                        int) {
      return run == 1 && task != run1_start ? engine::TaskFault::kPermanent
                                            : engine::TaskFault::kNone;
    });
    eng.inject_malicious(0, specs[0]->start());
    eng.inject_malicious(2, specs[2]->start());
    for (int i = 0; i < 14; ++i) eng.step();
    eng.set_fault_injector(nullptr);
    const auto malicious = malicious_in(eng);
    if (malicious.empty()) continue;
    for (std::size_t r = 0; r < eng.run_count(); ++r) {
      if (eng.run_active(static_cast<engine::RunId>(r))) ++in_flight;
      if (eng.run_aborted(static_cast<engine::RunId>(r))) ++aborted;
    }
    const auto plan = recovery::RecoveryAnalyzer(eng).analyze(malicious);
    expect_full_sweep_result(eng, plan, "seed " + std::to_string(seed));
    // The in-flight runs finish on their repaired paths.
    eng.run_all();
    EXPECT_TRUE(recovery::CorrectnessChecker(eng).check().strict_correct())
        << "seed " << seed;
  }
  EXPECT_GT(in_flight, 0u);
  EXPECT_GT(aborted, 0u);
}

// Loops: incarnations above 1, re-rolled exits.
TEST(ConeReplay, LoopIncarnationsMatchFullSweep) {
  sim::WorkloadConfig workload;
  workload.loop_prob = 1.0;
  workload.branch_prob = 0.5;
  workload.shared_object_prob = 0.4;
  engine::EngineConfig engine_config;
  engine_config.max_incarnations = 512;
  std::size_t looped = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    auto scenario = sim::make_attack_scenario(seed, 6, 2, workload, engine_config);
    auto& eng = *scenario.engine;
    for (const auto& e : eng.log().entries()) {
      if (e.incarnation > 1) {
        ++looped;
        break;
      }
    }
    const auto plan = recovery::RecoveryAnalyzer(eng).analyze(scenario.malicious);
    expect_full_sweep_result(eng, plan, "seed " + std::to_string(seed));
  }
  EXPECT_GT(looped, 0u);
}

// The IncrementalConsistency cycles: appends and recoveries interleaved,
// the scheduler borrowing the long-lived refreshed index.
TEST(ConeReplay, IncrementalConsistencySeeds) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    auto scenario = sim::make_attack_scenario(seed * 2069 + 3, 5, 2);
    auto& eng = *scenario.engine;
    deps::DependencyAnalyzer incremental(eng.log(), eng.specs_by_run());
    std::vector<engine::InstanceId> alert = scenario.malicious;
    for (int cycle = 0; cycle < 4; ++cycle) {
      const std::size_t log_before = eng.log().size();
      for (std::size_t i = 0; i < 2 && i < scenario.specs.size(); ++i) {
        const auto run =
            eng.start_run(*scenario.specs[(i + cycle) % scenario.specs.size()]);
        eng.inject_malicious(run, /*task=*/1);
      }
      eng.run_all();
      for (const auto& e : eng.log().entries()) {
        if (static_cast<std::size_t>(e.id) >= log_before &&
            e.kind == engine::ActionKind::kMalicious) {
          alert.push_back(e.id);
        }
      }
      incremental.refresh(eng.log(), eng.specs_by_run());
      const auto plan = recovery::RecoveryAnalyzer(eng, incremental).analyze(alert);
      if (cycle % 2 == 0 && !plan.damaged.empty()) {
        expect_full_sweep_result(eng, plan,
                                 "seed " + std::to_string(seed) + " cycle " +
                                     std::to_string(cycle),
                                 {}, &incremental);
        alert.clear();
        EXPECT_TRUE(recovery::CorrectnessChecker(eng).check().strict_correct());
      }
    }
  }
}

/// The MixedSoak scenario (tests/soak_test.cpp) with every plan checked.
std::size_t mixed_soak(std::uint64_t seed, DifferentialObserver& observer) {
  sim::WorkloadConfig workload;
  workload.branch_prob = 0.5;
  workload.shared_object_prob = 0.4;
  workload.loop_prob = (seed % 3 == 0) ? 1.0 : 0.0;
  engine::EngineConfig engine_config;
  engine_config.max_incarnations = 512;
  if (seed % 5 == 0) {
    engine_config.interleave = engine::Interleave::kRandom;
    engine_config.seed = seed;
  }
  auto scenario = sim::make_attack_scenario(seed, 4, 3, workload, engine_config);
  if (scenario.malicious.empty()) return 0;

  recovery::ControllerConfig config;
  config.granularity = (seed % 2) ? recovery::BlockingGranularity::kPerTask
                                  : recovery::BlockingGranularity::kWholeRun;
  if (seed % 3 == 0) config.strategy = recovery::ConcurrencyStrategy::kMultiVersion;
  config.recovery_observer = &observer;
  recovery::SelfHealingController controller(*scenario.engine, config);

  util::Rng rng(seed ^ 0x5511);
  sim::WorkloadGenerator generator(*scenario.catalog, workload);
  for (std::size_t i = 0; i < scenario.malicious.size(); ++i) {
    ids::Alert alert;
    alert.malicious.push_back(scenario.malicious[i]);
    controller.submit_alert(alert);
    if (i % 2 == 0) {
      controller.scan_one();
      scenario.specs.push_back(std::make_unique<wfspec::WorkflowSpec>(
          generator.generate("late" + std::to_string(i), rng)));
      controller.submit_run(*scenario.specs.back());
    }
  }
  controller.drain();
  EXPECT_TRUE(recovery::CorrectnessChecker(*scenario.engine).check().strict_correct())
      << "seed " << seed;
  return scenario.malicious.size();
}

TEST(ConeReplay, MixedSoakSeeds1To60) {
  DifferentialObserver observer;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) mixed_soak(seed, observer);
  EXPECT_GT(observer.plans(), 60u);
  EXPECT_EQ(observer.mismatches(), 0u) << observer.first_mismatch();
}

// MixedSoak seed 50: plan 3 names malicious entry 13 at slot 14, but an
// earlier round moved its triple's live redo to slot 9.
TEST(ConeReplay, MixedSoakSeed50TripleMovedByEarlierRound) {
  DifferentialObserver observer;
  mixed_soak(50, observer);
  EXPECT_GT(observer.moved_triples(), 0u);
  EXPECT_EQ(observer.mismatches(), 0u) << observer.first_mismatch();
}

// The 25-seed service storms through the drive-once oracle's world,
// durable and volatile.
TEST(ConeReplay, ServiceStorms25SeedsDurableAndVolatile) {
  DifferentialObserver observer;
  for (const bool durable : {true, false}) {
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
      service::StormConfig storm;
      storm.seed = seed;
      storm.submissions = 10;
      const auto trace = service::make_tenant_trace(storm, 0);
      service::TenantConfig config;
      config.durable = durable;
      config.controller.recovery_observer = &observer;
      const auto end = service::run_drive_once_oracle(config, trace);
      EXPECT_TRUE(end.strict_correct) << "seed " << seed << " durable " << durable;
    }
  }
  EXPECT_GT(observer.plans(), 50u);
  EXPECT_EQ(observer.mismatches(), 0u) << observer.first_mismatch();
}

// Chaos campaigns: imperfect IDS, task faults, crash/restart (engines
// reloaded from durable media mid-storm) and storage faults.
TEST(ConeReplay, ChaosCampaignsWithCrashesAndStorageFaults) {
  DifferentialObserver observer;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    for (const bool storage : {false, true}) {
      auto config = storage ? chaos::default_storage_campaign(seed)
                            : chaos::default_campaign(seed);
      config.controller.recovery_observer = &observer;
      const auto result = chaos::run_campaign(config);
      EXPECT_TRUE(result.passed()) << "seed " << seed << ": " << result.failure;
    }
  }
  EXPECT_GT(observer.plans(), 50u);
  EXPECT_EQ(observer.mismatches(), 0u) << observer.first_mismatch();
}

/// Strategy tests' fixture: a corrupted source whose redo, reading the
/// live store, picks up a value a later blind write left behind.
struct BlindOverwrite {
  wfspec::ObjectCatalog catalog;
  wfspec::WorkflowSpec wf{"blind-overwrite", catalog};
  wfspec::TaskId src, mid, blind, sink;

  BlindOverwrite() {
    src = wf.add_task("src", {}, {"a"});
    mid = wf.add_task("mid", {"a", "x"}, {"y"});
    blind = wf.add_task("blind", {}, {"x"});
    sink = wf.add_task("sink", {"y"}, {"z"});
    wf.add_edge(src, mid);
    wf.add_edge(mid, blind);
    wf.add_edge(blind, sink);
    wf.validate();
  }
};

// A risky round (live-store reads) leaves recorded reads that disagree
// with the timeline; the strict follow-up must re-check from the floor.
TEST(ConeReplay, RiskyRoundThenStrictRound) {
  const BlindOverwrite fixture;
  engine::Engine eng;
  const auto run = eng.start_run(fixture.wf);
  eng.inject_malicious(run, fixture.src);
  eng.run_all();
  const auto bad = malicious_in(eng).at(0);

  recovery::SchedulerOptions risky;
  risky.clean_reads = false;
  expect_full_sweep_result(eng, recovery::RecoveryAnalyzer(eng).analyze({bad}),
                           "risky round", risky);
  EXPECT_GT(eng.unvalidated_read_floor(), 0);
  ASSERT_FALSE(recovery::CorrectnessChecker(eng).check().strict_correct());

  const auto outcome = expect_full_sweep_result(
      eng, recovery::RecoveryAnalyzer(eng).analyze({bad}), "strict round");
  EXPECT_GT(outcome.redone.size(), 0u);
  EXPECT_EQ(eng.unvalidated_read_floor(), 0);
  EXPECT_TRUE(recovery::CorrectnessChecker(eng).check().strict_correct());
}

TEST(ConeReplay, RiskyControllerThenStrictController) {
  const BlindOverwrite fixture;
  engine::Engine eng;
  const auto run = eng.start_run(fixture.wf);
  eng.inject_malicious(run, fixture.src);
  eng.run_all();
  const auto bad = malicious_in(eng).at(0);
  DifferentialObserver observer;

  recovery::ControllerConfig risky_config;
  risky_config.strategy = recovery::ConcurrencyStrategy::kRisky;
  risky_config.recovery_observer = &observer;
  recovery::SelfHealingController risky(eng, risky_config);
  risky.submit_alert(ids::Alert{{bad}, 0.0});
  risky.drain();

  recovery::ControllerConfig strict_config;
  strict_config.recovery_observer = &observer;
  recovery::SelfHealingController strict(eng, strict_config);
  strict.submit_alert(ids::Alert{{bad}, 0.0});
  strict.drain();

  EXPECT_EQ(observer.plans(), 2u);
  EXPECT_EQ(observer.mismatches(), 0u) << observer.first_mismatch();
  EXPECT_TRUE(recovery::CorrectnessChecker(eng).check().strict_correct());
}

// A session loaded from disk does not say how its reads were taken: the
// first round after a load re-checks from the lowest imported redo.
TEST(ConeReplay, LoadedSessionStartsAtTheImportedFloor) {
  const BlindOverwrite fixture;
  engine::Engine eng;
  const auto run = eng.start_run(fixture.wf);
  eng.inject_malicious(run, fixture.src);
  eng.run_all();
  const auto bad = malicious_in(eng).at(0);
  recovery::SchedulerOptions risky;
  risky.clean_reads = false;
  recovery::RecoveryScheduler(eng, risky).execute(recovery::RecoveryAnalyzer(eng).analyze({bad}));

  std::stringstream text;
  engine::save_session(eng, text);
  auto session = engine::load_session(text.str());
  auto& loaded = *session.engine;
  EXPECT_GT(loaded.unvalidated_read_floor(), 0);
  expect_full_sweep_result(loaded, recovery::RecoveryAnalyzer(loaded).analyze({bad}),
                           "after load");
  EXPECT_TRUE(recovery::CorrectnessChecker(loaded).check().strict_correct());
}

}  // namespace
