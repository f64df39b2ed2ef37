// Property-based recovery tests over random attacked workloads.
//
// For every seed, a random multi-workflow scenario is executed with
// injected malicious tasks; recovery must then restore the system to the
// clean-oracle state (Definition 2 strict correctness), and the
// analyzer/scheduler invariants of Theorems 1-2 must hold.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <span>
#include <sstream>
#include <string>

#include "selfheal/engine/session_io.hpp"
#include "selfheal/obs/metrics.hpp"
#include "selfheal/recovery/analyzer.hpp"
#include "selfheal/recovery/controller.hpp"
#include "selfheal/recovery/correctness.hpp"
#include "selfheal/recovery/scheduler.hpp"
#include "selfheal/sim/workload.hpp"
#include "selfheal/util/rng.hpp"

namespace {

using namespace selfheal;

class RecoveryProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RecoveryProperty, RandomScenarioRecoversToOracle) {
  auto scenario = sim::make_attack_scenario(GetParam(), /*n_workflows=*/4,
                                            /*n_attacks=*/2);
  auto& eng = *scenario.engine;
  ASSERT_FALSE(scenario.malicious.empty());

  // The attack corrupts observable state: a malicious task's surviving
  // writes differ from the oracle's values.
  const recovery::CorrectnessChecker checker(eng);
  EXPECT_FALSE(checker.check().strict_correct());

  const recovery::RecoveryAnalyzer analyzer(eng);
  const auto plan = analyzer.analyze(scenario.malicious);

  // Theorem 1 c1: every reported malicious instance is damaged.
  for (const auto id : plan.malicious) {
    EXPECT_TRUE(plan.is_damaged(id));
  }
  // Theorem 2 split is a partition of the damaged set.
  std::set<engine::InstanceId> redo_union(plan.definite_redos.begin(),
                                          plan.definite_redos.end());
  for (const auto& c : plan.candidate_redos) {
    EXPECT_FALSE(redo_union.count(c.instance));
    redo_union.insert(c.instance);
  }
  EXPECT_EQ(redo_union.size(), plan.damaged.size());
  // Candidates never overlap the damaged set.
  for (const auto& c : plan.candidate_undos) {
    EXPECT_FALSE(plan.is_damaged(c.instance));
  }

  recovery::RecoveryScheduler scheduler(eng);
  const auto outcome = scheduler.execute(plan);

  // Scheduler enacts only what the plan allows.
  std::set<engine::InstanceId> undoable(plan.damaged.begin(), plan.damaged.end());
  for (const auto& c : plan.candidate_undos) undoable.insert(c.instance);
  for (const auto id : outcome.undone) {
    EXPECT_TRUE(undoable.count(id)) << "seed " << GetParam();
  }
  // Everything damaged was undone.
  for (const auto id : plan.damaged) {
    EXPECT_TRUE(outcome.was_undone(id));
  }
  // Orphans are undone and not redone.
  for (const auto id : outcome.orphaned) {
    EXPECT_TRUE(outcome.was_undone(id));
    EXPECT_FALSE(outcome.was_redone(id));
  }

  // Definition 2: strict correctness after recovery.
  const auto report = recovery::CorrectnessChecker(eng).check();
  EXPECT_TRUE(report.complete) << "seed " << GetParam() << ": " << report.summary;
  EXPECT_TRUE(report.consistent) << "seed " << GetParam() << ": " << report.summary;
  EXPECT_TRUE(report.safe) << "seed " << GetParam() << ": " << report.summary;
}

TEST_P(RecoveryProperty, AlertsOneByOneThroughControllerAlsoRecover) {
  auto scenario = sim::make_attack_scenario(GetParam() * 7919 + 1, 3, 2);
  auto& eng = *scenario.engine;
  if (scenario.malicious.empty()) GTEST_SKIP();

  recovery::SelfHealingController controller(eng);
  for (const auto id : scenario.malicious) {
    ids::Alert alert;
    alert.malicious.push_back(id);
    controller.submit_alert(alert);
  }
  controller.drain();
  EXPECT_EQ(controller.state(), recovery::SystemState::kNormal);

  const auto report = recovery::CorrectnessChecker(eng).check();
  EXPECT_TRUE(report.strict_correct())
      << "seed " << GetParam() << ": " << report.summary;
}

TEST_P(RecoveryProperty, RecoveryIsIdempotentOnRandomScenarios) {
  auto scenario = sim::make_attack_scenario(GetParam() * 31 + 17, 3, 1);
  auto& eng = *scenario.engine;
  ASSERT_FALSE(scenario.malicious.empty());

  recovery::RecoveryScheduler scheduler(eng);
  scheduler.execute(recovery::RecoveryAnalyzer(eng).analyze(scenario.malicious));
  const auto snapshot = eng.store().snapshot();

  const auto plan2 = recovery::RecoveryAnalyzer(eng).analyze(scenario.malicious);
  EXPECT_TRUE(plan2.damaged.empty()) << "seed " << GetParam();
  const auto outcome2 = scheduler.execute(plan2);
  EXPECT_TRUE(outcome2.undone.empty());
  EXPECT_TRUE(outcome2.repair_entries.empty());
  EXPECT_EQ(eng.store().snapshot(), snapshot);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryProperty,
                         ::testing::Range<std::uint64_t>(1, 41));

// Heavier scenarios: more workflows, more attacks, more sharing.
class RecoveryPropertyHeavy : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RecoveryPropertyHeavy, ManyAttacksManyWorkflows) {
  sim::WorkloadConfig workload;
  workload.min_tasks = 8;
  workload.max_tasks = 18;
  workload.branch_prob = 0.5;
  workload.shared_object_prob = 0.4;
  auto scenario = sim::make_attack_scenario(GetParam(), 6, 4, workload);
  auto& eng = *scenario.engine;
  ASSERT_FALSE(scenario.malicious.empty());

  recovery::RecoveryScheduler scheduler(eng);
  scheduler.execute(recovery::RecoveryAnalyzer(eng).analyze(scenario.malicious));

  const auto report = recovery::CorrectnessChecker(eng).check();
  EXPECT_TRUE(report.strict_correct())
      << "seed " << GetParam() << ": " << report.summary;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryPropertyHeavy,
                         ::testing::Range<std::uint64_t>(100, 120));

// Theorem 1 as a checkable property: ground-truth "incorrect data"
// (Axiom 1) is decidable by comparing the attacked execution's outputs
// against the benign oracle's. The analyzer's damage set must be SOUND
// (everything it marks damaged really is incorrect or malicious) and,
// together with the candidate sets, COMPLETE (everything incorrect or
// wrongly-executed is covered).
class TheoremOne : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TheoremOne, DamageSetSoundAndCandidateCoveredComplete) {
  auto scenario = sim::make_attack_scenario(GetParam() * 1031 + 5, 4, 2);
  auto& eng = *scenario.engine;
  ASSERT_FALSE(scenario.malicious.empty());

  // Oracle: the benign execution under the same round-robin interleave
  // (the scenario is freshly attacked, so slots equal the plain run's).
  engine::Engine oracle(eng.config());
  for (std::size_t r = 0; r < eng.run_count(); ++r) {
    oracle.start_run(eng.spec_of(static_cast<engine::RunId>(r)));
  }
  oracle.run_all();

  // Ground truth per original instance: incorrect outputs, or executed
  // although the oracle never executes it ("should not have been
  // executed", Axiom 1 condition 1).
  std::set<engine::InstanceId> incorrect;
  for (const auto& e : eng.log().entries()) {
    if (!e.is_original()) continue;
    const auto twin = oracle.log().find_original(e.run, e.task, e.incarnation);
    if (!twin) {
      incorrect.insert(e.id);  // off the benign path
    } else if (oracle.log().entry(*twin).written_values != e.written_values) {
      incorrect.insert(e.id);
    }
  }

  const recovery::RecoveryAnalyzer analyzer(eng);
  const auto plan = analyzer.analyze(scenario.malicious);

  // SOUNDNESS: plan.damaged only contains genuinely incorrect instances.
  for (const auto id : plan.damaged) {
    EXPECT_TRUE(incorrect.count(id))
        << "seed " << GetParam() << ": instance " << id
        << " marked damaged but its data is correct";
  }
  // COMPLETENESS: every incorrect instance is damaged or a candidate.
  std::set<engine::InstanceId> covered(plan.damaged.begin(), plan.damaged.end());
  for (const auto& c : plan.candidate_undos) covered.insert(c.instance);
  for (const auto id : incorrect) {
    EXPECT_TRUE(covered.count(id))
        << "seed " << GetParam() << ": incorrect instance " << id
        << " not covered by Theorem 1";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TheoremOne, ::testing::Range<std::uint64_t>(1, 25));

// Cyclic workflows: loops whose lap count is data-dependent, so an
// attack can change how often the loop body runs. Recovery must
// reconcile incarnation counts and still reach the oracle state.
class RecoveryPropertyCyclic : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RecoveryPropertyCyclic, LoopedWorkflowsRecoverToOracle) {
  sim::WorkloadConfig workload;
  workload.loop_prob = 1.0;  // every workflow tries to close a loop
  engine::EngineConfig engine_config;
  engine_config.max_incarnations = 512;
  auto scenario =
      sim::make_attack_scenario(GetParam(), 3, 2, workload, engine_config);
  auto& eng = *scenario.engine;
  ASSERT_FALSE(scenario.malicious.empty());

  recovery::RecoveryScheduler scheduler(eng);
  scheduler.execute(recovery::RecoveryAnalyzer(eng).analyze(scenario.malicious));

  const auto report = recovery::CorrectnessChecker(eng).check();
  EXPECT_TRUE(report.strict_correct())
      << "seed " << GetParam() << ": " << report.summary;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryPropertyCyclic,
                         ::testing::Range<std::uint64_t>(200, 215));

// The incremental dependence index must be indistinguishable from a
// scratch rebuild: across append / recover / append cycles, both the
// edge list and the RecoveryPlan produced through a long-lived refreshed
// analyzer are byte-identical to ones computed from a fresh graph.
class IncrementalConsistency : public ::testing::TestWithParam<std::uint64_t> {};

/// Asserts that `spliced` holds exactly the index state of `rebuilt`:
/// every object's read and write records (slot, instance, read mark),
/// the schedule, every run's instances, the taint sets and every
/// instance's set of out-edges.
void expect_same_index(const deps::DependencyAnalyzer& spliced,
                       const deps::DependencyAnalyzer& rebuilt,
                       const engine::Engine& eng, const std::string& where) {
  wfspec::ObjectId objects = 0;
  for (const auto& e : eng.log().entries()) {
    for (const auto o : e.read_objects) objects = std::max(objects, o + 1);
    for (const auto o : e.written_objects) objects = std::max(objects, o + 1);
  }
  using Records = std::vector<deps::DependencyAnalyzer::ReaderRecord>;
  for (wfspec::ObjectId o = 0; o < objects; ++o) {
    const auto a_reads = spliced.readers_of(o);
    const auto b_reads = rebuilt.readers_of(o);
    EXPECT_EQ(Records(a_reads.begin(), a_reads.end()),
              Records(b_reads.begin(), b_reads.end()))
        << where << " readers of object " << o;
    const auto a_writes = spliced.writers_of(o);
    const auto b_writes = rebuilt.writers_of(o);
    EXPECT_EQ(Records(a_writes.begin(), a_writes.end()),
              Records(b_writes.begin(), b_writes.end()))
        << where << " writers of object " << o;
  }
  using Ids = std::vector<engine::InstanceId>;
  const auto ids = [](std::span<const engine::InstanceId> span) {
    return Ids(span.begin(), span.end());
  };
  EXPECT_EQ(ids(spliced.schedule()), ids(rebuilt.schedule())) << where;
  for (std::size_t run = 0; run < eng.specs_by_run().size(); ++run) {
    const auto r = static_cast<engine::RunId>(run);
    EXPECT_EQ(ids(spliced.run_instances(r)), ids(rebuilt.run_instances(r)))
        << where << " run " << run;
  }
  std::vector<engine::InstanceId> a_frontier;
  std::vector<engine::InstanceId> b_frontier;
  spliced.tainted_frontier(a_frontier);
  rebuilt.tainted_frontier(b_frontier);
  EXPECT_EQ(a_frontier, b_frontier) << where;
  std::vector<engine::InstanceId> a_sources;
  std::vector<engine::InstanceId> b_sources;
  spliced.for_each_taint_source([&](engine::InstanceId id) { a_sources.push_back(id); });
  rebuilt.for_each_taint_source([&](engine::InstanceId id) { b_sources.push_back(id); });
  std::sort(a_sources.begin(), a_sources.end());
  std::sort(b_sources.begin(), b_sources.end());
  EXPECT_EQ(a_sources, b_sources) << where;
  using Edges = std::vector<deps::DependencyAnalyzer::EdgeIndex>;
  const auto out_edges = [](const deps::DependencyAnalyzer& deps,
                            engine::InstanceId i) {
    Edges out;
    deps.for_each_out_edge(
        i, [&](deps::DependencyAnalyzer::EdgeIndex idx) { out.push_back(idx); });
    std::sort(out.begin(), out.end());
    return out;
  };
  for (std::size_t i = 0; i < rebuilt.instance_count(); ++i) {
    const auto id = static_cast<engine::InstanceId>(i);
    EXPECT_EQ(out_edges(spliced, id), out_edges(rebuilt, id))
        << where << " out-edges of " << i;
  }
}

TEST_P(IncrementalConsistency, RefreshedGraphMatchesRebuildAcrossCycles) {
  auto scenario = sim::make_attack_scenario(GetParam() * 2069 + 3, 5, 2);
  auto& eng = *scenario.engine;
  ASSERT_FALSE(scenario.malicious.empty());

  deps::DependencyAnalyzer incremental(eng.log(), eng.specs_by_run());
  std::vector<engine::InstanceId> alert = scenario.malicious;

  for (int cycle = 0; cycle < 4; ++cycle) {
    // Append a fresh attacked batch of runs on top of the history.
    const std::size_t log_before = eng.log().size();
    for (std::size_t i = 0; i < 2 && i < scenario.specs.size(); ++i) {
      const auto run = eng.start_run(*scenario.specs[(i + cycle) %
                                                     scenario.specs.size()]);
      eng.inject_malicious(run, /*task=*/1);
    }
    eng.run_all();
    for (const auto& e : eng.log().entries()) {
      if (static_cast<std::size_t>(e.id) >= log_before &&
          e.kind == engine::ActionKind::kMalicious) {
        alert.push_back(e.id);
      }
    }

    // Pure appends AND recovery rounds both take an incremental path now
    // (appends extend the tail; recovery splices the rewritten suffix).
    // The checked-fallback full rebuild must never fire on this workload.
    const bool took_incremental =
        incremental.refresh(eng.log(), eng.specs_by_run());
    EXPECT_TRUE(took_incremental)
        << "seed " << GetParam() << " cycle " << cycle;

    const deps::DependencyAnalyzer rebuilt(eng.log(), eng.specs_by_run());
    ASSERT_EQ(incremental.edges(), rebuilt.edges())
        << "seed " << GetParam() << " cycle " << cycle;
    ASSERT_EQ(incremental.instance_count(), rebuilt.instance_count());
    expect_same_index(incremental, rebuilt, eng,
                      "seed " + std::to_string(GetParam()) + " cycle " +
                          std::to_string(cycle));

    const recovery::RecoveryAnalyzer inc_analyzer(eng, incremental);
    const recovery::RecoveryAnalyzer fresh_analyzer(eng);
    const auto inc_plan = inc_analyzer.analyze(alert);
    const auto fresh_plan = fresh_analyzer.analyze(alert);
    ASSERT_TRUE(inc_plan == fresh_plan)
        << "seed " << GetParam() << " cycle " << cycle;

    // Recover on even cycles so the next refresh exercises both the
    // rebuild-after-recovery and the incremental-after-append paths.
    if (cycle % 2 == 0 && !inc_plan.damaged.empty()) {
      recovery::RecoveryScheduler scheduler(eng);
      scheduler.execute(inc_plan);
      alert.clear();
      const auto report = recovery::CorrectnessChecker(eng).check();
      EXPECT_TRUE(report.strict_correct())
          << "seed " << GetParam() << " cycle " << cycle << ": "
          << report.summary;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalConsistency,
                         ::testing::Range<std::uint64_t>(1, 31));

// Multi-alert batches through the controller: many simultaneous alerts
// queue at once and each scan expands one of them, recovery-entry
// interleavings are spliced into the streaming graph, and the
// checked-fallback full rebuild never fires.
class MultiAlertBatch : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MultiAlertBatch, BatchedAlertsHealWithoutFullRebuilds) {
  auto scenario = sim::make_attack_scenario(GetParam() * 4099 + 1, 6, 3);
  auto& eng = *scenario.engine;
  ASSERT_FALSE(scenario.malicious.empty());

  recovery::SelfHealingController controller(eng);

  // One alert per malicious instance, all simultaneous in the queue.
  for (const auto id : scenario.malicious) {
    ids::Alert alert;
    alert.malicious.push_back(id);
    ASSERT_TRUE(controller.submit_alert(std::move(alert)));
  }
  // A scan consumes one alert into one recovery unit; the first scan
  // attaches the controller's streaming graph (one rebuild).
  ASSERT_TRUE(controller.scan_one().has_value());
  EXPECT_EQ(controller.stats().scans, 1u);
  EXPECT_EQ(controller.alerts_queued(), scenario.malicious.size() - 1);
  EXPECT_EQ(controller.units_queued(), 1u);

  // From here on every path must be incremental: recovery splices, new
  // attacked waves append, further scans ride the taint set.
  const auto rebuilds_before =
      obs::metrics().counter("deps.full_rebuilds").value();
  controller.drain();

  for (int wave = 0; wave < 2; ++wave) {
    const std::size_t log_before = eng.log().size();
    for (std::size_t i = 0; i < 2 && i < scenario.specs.size(); ++i) {
      const auto run = eng.start_run(
          *scenario.specs[(i + static_cast<std::size_t>(wave)) %
                          scenario.specs.size()]);
      eng.inject_malicious(run, /*task=*/1);
    }
    eng.run_all();
    for (const auto& e : eng.log().entries()) {
      if (static_cast<std::size_t>(e.id) >= log_before &&
          e.kind == engine::ActionKind::kMalicious) {
        ids::Alert alert;
        alert.malicious.push_back(e.id);
        ASSERT_TRUE(controller.submit_alert(std::move(alert)));
      }
    }
    controller.drain();
  }
  EXPECT_EQ(obs::metrics().counter("deps.full_rebuilds").value(),
            rebuilds_before)
      << "seed " << GetParam()
      << ": steady-state storm must never fall back to a full rebuild";

  const auto report = recovery::CorrectnessChecker(eng).check();
  EXPECT_TRUE(report.strict_correct())
      << "seed " << GetParam() << ": " << report.summary;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiAlertBatch,
                         ::testing::Range<std::uint64_t>(1, 26));

class SerialisationProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerialisationProperty, LogEntriesRoundTripExtremeValues) {
  // The log-entry text format is the carrier for every durable value
  // (session files AND WAL records): arbitrary 64-bit payloads --
  // extremes, negatives, zero -- must round-trip exactly.
  util::Rng rng(GetParam());
  const engine::Value extremes[] = {
      std::numeric_limits<engine::Value>::min(),
      std::numeric_limits<engine::Value>::max(),
      0,
      -1,
      1,
      static_cast<engine::Value>(rng()),
  };
  for (int trial = 0; trial < 40; ++trial) {
    engine::TaskInstance e;
    e.id = static_cast<engine::InstanceId>(rng.below(1u << 20));
    e.run = static_cast<engine::RunId>(rng.below(64));
    e.task = static_cast<wfspec::TaskId>(rng.below(256));
    e.incarnation = static_cast<int>(1 + rng.below(8));
    const engine::ActionKind kinds[] = {
        engine::ActionKind::kNormal, engine::ActionKind::kMalicious,
        engine::ActionKind::kUndo,   engine::ActionKind::kRedo,
        engine::ActionKind::kFresh,
    };
    e.kind = kinds[rng.below(5)];
    e.seq = static_cast<engine::SeqNo>(rng.below(1u << 20));
    e.logical_slot = static_cast<engine::SeqNo>(rng.below(1u << 20));
    e.target = static_cast<engine::InstanceId>(rng.below(1u << 20));
    const auto n_reads = rng.below(6);
    for (std::uint64_t i = 0; i < n_reads; ++i) {
      e.read_objects.push_back(static_cast<wfspec::ObjectId>(rng.below(512)));
      e.read_values.push_back(
          extremes[rng.below(std::size(extremes))]);
    }
    const auto n_writes = rng.below(6);
    for (std::uint64_t i = 0; i < n_writes; ++i) {
      e.written_objects.push_back(static_cast<wfspec::ObjectId>(rng.below(512)));
      e.written_values.push_back(
          extremes[rng.below(std::size(extremes))]);
    }
    if (rng.chance(0.5)) {
      e.chosen_successor = static_cast<wfspec::TaskId>(rng.below(256));
    }

    const auto line = engine::format_log_entry(e);
    util::TextReader reader(line, "entry");
    const auto back = engine::parse_log_entry(reader, line);
    EXPECT_EQ(back.id, e.id);
    EXPECT_EQ(back.run, e.run);
    EXPECT_EQ(back.task, e.task);
    EXPECT_EQ(back.incarnation, e.incarnation);
    EXPECT_EQ(back.kind, e.kind);
    EXPECT_EQ(back.seq, e.seq);
    EXPECT_EQ(back.logical_slot, e.logical_slot);
    EXPECT_EQ(back.target, e.target);
    EXPECT_EQ(back.read_objects, e.read_objects);
    EXPECT_EQ(back.read_values, e.read_values);
    EXPECT_EQ(back.written_objects, e.written_objects);
    EXPECT_EQ(back.written_values, e.written_values);
    EXPECT_EQ(back.chosen_successor, e.chosen_successor);
    // And formatting the parse is a fixed point.
    EXPECT_EQ(engine::format_log_entry(back), line);
  }
}

TEST_P(SerialisationProperty, SessionSaveLoadIsByteIdentical) {
  // Full-session property: save -> load -> save is byte-identical for
  // random attacked-and-recovered scenarios.
  auto scenario =
      sim::make_attack_scenario(GetParam(), /*n_workflows=*/3, /*n_attacks=*/2);
  auto& eng = *scenario.engine;
  recovery::RecoveryScheduler scheduler(eng);
  scheduler.execute(
      recovery::RecoveryAnalyzer(eng).analyze(scenario.malicious));

  std::stringstream first;
  engine::save_session(eng, first);
  const auto text = first.str();
  const auto session = engine::load_session(first.str());
  std::stringstream second;
  engine::save_session(*session.engine, second);
  EXPECT_EQ(second.str(), text) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerialisationProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
