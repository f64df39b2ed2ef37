#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "figure1.hpp"
#include "selfheal/engine/engine.hpp"
#include "selfheal/util/rng.hpp"

namespace {

using namespace selfheal;
using selfheal::testing::Figure1;

TEST(Value, InitialValuesAreStable) {
  EXPECT_EQ(engine::initial_value(3), engine::initial_value(3));
  EXPECT_NE(engine::initial_value(3), engine::initial_value(4));
}

TEST(Value, ComputeOutputDependsOnAllInputs) {
  const auto seed = engine::task_seed("wf", "t");
  const auto base = engine::compute_output(seed, 1, 1, {10, 20});
  EXPECT_EQ(base, engine::compute_output(seed, 1, 1, {10, 20}));
  EXPECT_NE(base, engine::compute_output(seed, 2, 1, {10, 20}));   // object
  EXPECT_NE(base, engine::compute_output(seed, 1, 2, {10, 20}));   // incarnation
  EXPECT_NE(base, engine::compute_output(seed, 1, 1, {11, 20}));   // read value
  EXPECT_NE(base, engine::compute_output(engine::task_seed("wf", "u"), 1, 1,
                                          {10, 20}));              // task
}

TEST(Value, CorruptIsAnInvolutionWithoutFixedPoints) {
  for (engine::Value v : {0L, 1L, -17L, 123456789L}) {
    EXPECT_NE(engine::corrupt(v), v);
    EXPECT_EQ(engine::corrupt(engine::corrupt(v)), v);
  }
}

TEST(Value, ChooseBranchInRange) {
  for (engine::Value v = -50; v < 50; ++v) {
    EXPECT_LT(engine::choose_branch(v, 3), 3u);
  }
}

TEST(VersionedStore, LazyInitialVersion) {
  engine::VersionedStore store;
  EXPECT_EQ(store.read(5), engine::initial_value(5));
  const auto& v = store.latest(5);
  EXPECT_EQ(v.seq, 0);
  EXPECT_EQ(v.writer, engine::kInitialWriter);
}

TEST(VersionedStore, WriteReadAndHistory) {
  engine::VersionedStore store;
  store.write(1, 100, 1, 0);
  store.write(1, 200, 2, 1);
  EXPECT_EQ(store.read(1), 200);
  const auto& history = store.history(1);
  ASSERT_EQ(history.size(), 3u);  // initial + 2 writes
  EXPECT_EQ(history[1].value, 100);
  EXPECT_EQ(history[2].writer, 1);
}

TEST(VersionedStore, RejectsOutOfOrderWrites) {
  engine::VersionedStore store;
  store.write(1, 100, 5, 0);
  EXPECT_THROW(store.write(1, 200, 5, 1), std::logic_error);
  EXPECT_THROW(store.write(1, 200, 3, 1), std::logic_error);
}

TEST(VersionedStore, VersionBeforeAndRestore) {
  engine::VersionedStore store;
  store.write(1, 100, 2, 0);
  store.write(1, 200, 4, 1);
  EXPECT_EQ(store.version_before(1, 4).value, 100);
  EXPECT_EQ(store.version_before(1, 2).value, engine::initial_value(1));
  // Undo the write at seq 4: restore the value before it.
  store.restore_before(1, 4, 7, 9);
  EXPECT_EQ(store.read(1), 100);
  EXPECT_EQ(store.latest(1).writer, 9);
}

TEST(VersionedStore, RestoreSkipsUndoneWriters) {
  // Object written by d (seq 2, corrupt) then p (seq 3). Undoing p with d
  // marked undone must skip d's version and restore the initial value --
  // Theorem 3 rule 5's intent regardless of undo commit order.
  engine::VersionedStore store;
  store.write(1, 666, 2, /*writer=*/0);
  store.write(1, 777, 3, /*writer=*/1);
  const auto skip_d = [](engine::InstanceId w) { return w == 0; };
  const auto restored = store.restore_before(1, 3, 10, 5, skip_d);
  EXPECT_EQ(restored, engine::initial_value(1));
}

TEST(VersionedStore, SnapshotCoversTouchedObjects) {
  engine::VersionedStore store;
  store.write(2, 42, 1, 0);
  const auto snap = store.snapshot();
  ASSERT_EQ(snap.size(), 3u);  // objects 0..2 materialised
  EXPECT_EQ(snap[2], 42);
  EXPECT_EQ(snap[0], engine::initial_value(0));
}

// Reference-model property test: the versioned store against a naive
// map of (object -> value history).
class StoreModelSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StoreModelSweep, MatchesNaiveModelUnderRandomOps) {
  util::Rng rng(GetParam());
  engine::VersionedStore store;
  // Naive model: per object, the ordered list of (seq, value).
  std::map<wfspec::ObjectId, std::vector<std::pair<engine::SeqNo, engine::Value>>>
      model;
  auto model_value_before = [&](wfspec::ObjectId o, engine::SeqNo seq) {
    engine::Value v = engine::initial_value(o);
    for (const auto& [s, val] : model[o]) {
      if (s < seq) v = val;
    }
    return v;
  };

  engine::SeqNo seq = 1;
  for (int op = 0; op < 300; ++op) {
    const auto object = static_cast<wfspec::ObjectId>(rng.below(6));
    switch (rng.below(3)) {
      case 0: {  // write
        const auto value = static_cast<engine::Value>(rng());
        store.write(object, value, seq, static_cast<engine::InstanceId>(op));
        model[object].emplace_back(seq, value);
        ++seq;
        break;
      }
      case 1: {  // read
        engine::Value expected = engine::initial_value(object);
        if (!model[object].empty()) expected = model[object].back().second;
        ASSERT_EQ(store.read(object), expected) << "op " << op;
        break;
      }
      case 2: {  // restore before a random past seq
        if (seq <= 1) break;
        const auto point = static_cast<engine::SeqNo>(1 + rng.below(seq));
        const auto restored = store.restore_before(
            object, point, seq, static_cast<engine::InstanceId>(op));
        ASSERT_EQ(restored, model_value_before(object, point)) << "op " << op;
        model[object].emplace_back(seq, restored);
        ++seq;
        break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreModelSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Engine, CleanRunFollowsBenignPath) {
  const Figure1 fig;
  engine::Engine eng;
  const auto r1 = eng.start_run(fig.wf1);
  eng.run_all();
  const auto trace = eng.log().trace(r1);
  // Benign choice is t5 by fixture construction: t1 t2 t5 t6.
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_EQ(eng.log().entry(trace[0]).task, fig.t1);
  EXPECT_EQ(eng.log().entry(trace[1]).task, fig.t2);
  EXPECT_EQ(eng.log().entry(trace[2]).task, fig.t5);
  EXPECT_EQ(eng.log().entry(trace[3]).task, fig.t6);
  EXPECT_FALSE(eng.run_active(r1));
}

TEST(Engine, AttackedRunTakesWrongPath) {
  const Figure1 fig;
  const auto eng = fig.run_attacked();
  const auto trace = eng.log().trace(0);
  // Corrupted choice is t3: t1 t2 t3 t4 t6.
  ASSERT_EQ(trace.size(), 5u);
  EXPECT_EQ(eng.log().entry(trace[2]).task, fig.t3);
  EXPECT_EQ(eng.log().entry(trace[3]).task, fig.t4);
  EXPECT_EQ(eng.log().entry(trace[4]).task, fig.t6);
}

TEST(Engine, MaliciousWritesAreCorrupted) {
  const Figure1 fig;
  const auto attacked = fig.run_attacked();
  engine::Engine clean;
  clean.start_run(fig.wf1);
  clean.start_run(fig.wf2);
  clean.run_all();
  const auto o1 = *fig.catalog.find("o1");
  EXPECT_EQ(attacked.store().read(o1),
            engine::corrupt(clean.store().read(o1)));
}

TEST(Engine, RoundRobinInterleavesRuns) {
  const Figure1 fig;
  engine::Engine eng;
  eng.start_run(fig.wf1);
  eng.start_run(fig.wf2);
  eng.run_all();
  const auto& entries = eng.log().entries();
  ASSERT_GE(entries.size(), 4u);
  EXPECT_EQ(entries[0].run, 0);
  EXPECT_EQ(entries[1].run, 1);
  EXPECT_EQ(entries[2].run, 0);
  EXPECT_EQ(entries[3].run, 1);
}

TEST(Engine, RandomInterleaveIsSeedDeterministic) {
  const Figure1 fig;
  auto run_with_seed = [&](std::uint64_t seed) {
    engine::EngineConfig cfg;
    cfg.interleave = engine::Interleave::kRandom;
    cfg.seed = seed;
    engine::Engine eng(cfg);
    eng.start_run(fig.wf1);
    eng.start_run(fig.wf2);
    eng.run_all();
    std::vector<engine::RunId> order;
    for (const auto& e : eng.log().entries()) order.push_back(e.run);
    return order;
  };
  EXPECT_EQ(run_with_seed(1), run_with_seed(1));
}

TEST(Engine, ExplicitScheduleIsFollowed) {
  const Figure1 fig;
  engine::EngineConfig cfg;
  cfg.interleave = engine::Interleave::kExplicit;
  engine::Engine eng(cfg);
  eng.start_run(fig.wf1);
  eng.start_run(fig.wf2);
  eng.set_schedule({1, 1, 0, 1});
  eng.run_all();
  const auto& entries = eng.log().entries();
  EXPECT_EQ(entries[0].run, 1);
  EXPECT_EQ(entries[1].run, 1);
  EXPECT_EQ(entries[2].run, 0);
  EXPECT_EQ(entries[3].run, 1);
  // Schedule exhausted: falls back to round-robin and completes all runs.
  EXPECT_EQ(eng.active_runs(), 0u);
}

TEST(Engine, PicksMatchAFullScanInEveryInterleaveMode) {
  // step() picks from a list of active runs kept as runs start, end,
  // abort and resume, instead of scanning every run ever started. Its
  // picks must be the full scan's in every mode.
  const Figure1 fig;
  for (const auto mode : {engine::Interleave::kRoundRobin,
                          engine::Interleave::kRandom,
                          engine::Interleave::kExplicit}) {
    engine::EngineConfig cfg;
    cfg.interleave = mode;
    cfg.seed = 7;
    engine::Engine eng(cfg);
    const std::vector<engine::RunId> schedule{3, 1, 9, 1, 0, 5, 2, 4, 4};
    if (mode == engine::Interleave::kExplicit) eng.set_schedule(schedule);
    util::Rng rng(cfg.seed);
    std::size_t cursor = 0;
    std::size_t slot = 0;
    // Run 2 starts in round 8 and aborts in round 9; run 3 starts in
    // round 12 and rounds 13-20 park it as if complete.
    engine::Engine::RunSnapshot parked;
    for (int round = 0; round < 60; ++round) {
      if (round % 4 == 0) eng.start_run(round % 8 == 0 ? fig.wf1 : fig.wf2);
      if (round == 9) {
        ASSERT_TRUE(eng.run_active(2));
        eng.abort_run(2);
      }
      if (round == 13 && eng.run_active(3)) {
        parked = eng.run_snapshot(3);
        eng.resume_run(3, wfspec::kInvalidTask, parked.visits);
      }
      if (round == 21 && parked.active) eng.resume_run(3, parked.pc, parked.visits);

      std::vector<std::size_t> active;
      for (std::size_t r = 0; r < eng.run_count(); ++r) {
        if (eng.run_active(static_cast<engine::RunId>(r))) active.push_back(r);
      }
      ASSERT_EQ(eng.active_runs(), active.size()) << "round " << round;
      if (active.empty()) {
        EXPECT_FALSE(eng.step());
        continue;
      }
      std::size_t pick = 0;
      bool picked = false;
      while (mode == engine::Interleave::kExplicit && !picked &&
             slot < schedule.size()) {
        const auto candidate = static_cast<std::size_t>(schedule[slot++]);
        picked = candidate < eng.run_count() &&
                 eng.run_active(static_cast<engine::RunId>(candidate));
        if (picked) pick = candidate;
      }
      if (!picked && mode == engine::Interleave::kRandom) {
        pick = active[rng.index_into(active)];
      } else if (!picked) {
        pick = active.front();
        for (const auto r : active) {
          if (r >= cursor) {
            pick = r;
            break;
          }
        }
        cursor = pick + 1 < eng.run_count() ? pick + 1 : 0;
      }
      ASSERT_TRUE(eng.step());
      EXPECT_EQ(static_cast<std::size_t>(eng.log().entries().back().run), pick)
          << "round " << round;
    }
    EXPECT_TRUE(parked.active);
  }
}

TEST(Engine, InjectionValidation) {
  const Figure1 fig;
  engine::Engine eng;
  const auto r1 = eng.start_run(fig.wf1);
  eng.step();  // t1 executes
  EXPECT_THROW(eng.inject_malicious(r1, fig.t1), std::logic_error);
  eng.inject_malicious(r1, fig.t2);  // not yet executed: ok
}

TEST(Engine, StartRunRequiresValidatedSpec) {
  wfspec::ObjectCatalog catalog;
  wfspec::WorkflowSpec wf("raw", catalog);
  wf.add_task("a", {}, {"x"});
  engine::Engine eng;
  EXPECT_THROW(eng.start_run(wf), std::logic_error);
}

TEST(Engine, UndoRestoresPriorVersions) {
  const Figure1 fig;
  auto eng = fig.run_attacked();
  const auto bad = Figure1::malicious_instance(eng);
  const auto o1 = *fig.catalog.find("o1");
  const auto corrupted = eng.store().read(o1);
  const auto uid = eng.apply_undo(bad);
  EXPECT_EQ(eng.store().read(o1), engine::initial_value(o1));
  EXPECT_NE(eng.store().read(o1), corrupted);
  EXPECT_EQ(eng.log().entry(uid).kind, engine::ActionKind::kUndo);
  EXPECT_TRUE(eng.log().currently_undone(bad));
}

TEST(Engine, RedoRecomputesAgainstCurrentStore) {
  const Figure1 fig;
  auto eng = fig.run_attacked();
  const auto bad = Figure1::malicious_instance(eng);
  eng.apply_undo(bad);
  const auto rid = eng.apply_redo(bad);
  const auto& redo = eng.log().entry(rid);
  EXPECT_EQ(redo.kind, engine::ActionKind::kRedo);
  EXPECT_EQ(redo.target, bad);
  EXPECT_EQ(redo.logical_slot, eng.log().entry(bad).logical_slot);
  // The redo executes benignly: o1 now has the clean value.
  const auto o1 = *fig.catalog.find("o1");
  const auto seed = engine::task_seed(fig.wf1.name(), "t1");
  EXPECT_EQ(eng.store().read(o1), engine::compute_output(seed, o1, 1, {}));
  EXPECT_FALSE(eng.log().currently_undone(bad));  // superseded by redo
}

TEST(Engine, PeekChoiceMatchesCommittedChoice) {
  const Figure1 fig;
  engine::Engine eng;
  const auto r1 = eng.start_run(fig.wf1);
  eng.step();  // t1
  const auto peeked = eng.peek_choice(r1, fig.t2);
  eng.step();  // t2 commits
  const auto trace = eng.log().trace(r1);
  ASSERT_TRUE(peeked.has_value());
  EXPECT_EQ(*eng.log().entry(trace[1]).chosen_successor, *peeked);
  EXPECT_FALSE(eng.peek_choice(r1, fig.t1).has_value());  // not a branch
}

TEST(SystemLog, TraceAndSuccessors) {
  const Figure1 fig;
  const auto eng = fig.run_attacked();
  const auto trace1 = eng.log().trace(0);
  // succ(t2) within workflow 1 = {t3, t4, t6} (paper Section II.A).
  const auto succ = eng.log().trace_successors(trace1[1]);
  std::set<wfspec::TaskId> tasks;
  for (const auto id : succ) tasks.insert(eng.log().entry(id).task);
  EXPECT_EQ(tasks, (std::set<wfspec::TaskId>{fig.t3, fig.t4, fig.t6}));
}

TEST(SystemLog, FindOriginalAndLatest) {
  const Figure1 fig;
  auto eng = fig.run_attacked();
  const auto orig = eng.log().find_original(0, fig.t1, 1);
  ASSERT_TRUE(orig.has_value());
  eng.apply_undo(*orig);
  const auto rid = eng.apply_redo(*orig);
  EXPECT_EQ(eng.log().find_original(0, fig.t1, 1), orig);     // unchanged
  EXPECT_EQ(eng.log().find_latest_execution(0, fig.t1, 1), rid);
  EXPECT_FALSE(eng.log().find_original(0, fig.t1, 2).has_value());
}

TEST(SystemLog, EffectiveViewTracksRecovery) {
  const Figure1 fig;
  auto eng = fig.run_attacked();
  const auto before = eng.log().effective();
  EXPECT_EQ(before.size(), 9u);  // 5 (wf1 attacked path) + 4 (wf2)

  const auto bad = Figure1::malicious_instance(eng);
  eng.apply_undo(bad);
  const auto during = eng.log().effective();
  EXPECT_EQ(during.size(), 8u);  // t1 currently undone

  const auto rid = eng.apply_redo(bad);
  const auto after = eng.log().effective();
  EXPECT_EQ(after.size(), 9u);
  // The redo sits at t1's slot: first entry of the effective order.
  EXPECT_EQ(after.front(), rid);
}

TEST(SystemLog, TripleIndexMatchesBruteForceScans) {
  // The O(1) triple index behind find_latest_execution /
  // currently_undone / is_live_execution must agree with brute-force
  // scans of the raw entry list, across undo/redo churn.
  const Figure1 fig;
  auto eng = fig.run_attacked();
  const auto bad = Figure1::malicious_instance(eng);
  eng.apply_undo(bad);
  const auto rid = eng.apply_redo(bad);
  eng.apply_undo(rid);  // leave one triple currently undone
  const auto& log = eng.log();

  const auto is_exec = [](engine::ActionKind kind) {
    return kind == engine::ActionKind::kNormal ||
           kind == engine::ActionKind::kMalicious ||
           kind == engine::ActionKind::kRedo ||
           kind == engine::ActionKind::kFresh;
  };
  const auto effective = log.effective();
  for (const auto& e : log.entries()) {
    if (e.kind == engine::ActionKind::kRepair) continue;
    auto latest = engine::kInvalidInstance;
    for (const auto& other : log.entries()) {
      if (is_exec(other.kind) && other.run == e.run && other.task == e.task &&
          other.incarnation == e.incarnation) {
        latest = other.id;
      }
    }
    const auto indexed = log.find_latest_execution(e.run, e.task, e.incarnation);
    if (latest == engine::kInvalidInstance) {
      EXPECT_FALSE(indexed.has_value()) << "entry " << e.id;
    } else {
      EXPECT_EQ(indexed, latest) << "entry " << e.id;
    }
    if (is_exec(e.kind)) {
      bool undone_brute = false;
      for (const auto& other : log.entries()) {
        if (other.kind == engine::ActionKind::kUndo && other.run == e.run &&
            other.task == e.task && other.incarnation == e.incarnation &&
            other.id > e.id) {
          undone_brute = true;
        } else if (is_exec(other.kind) && other.run == e.run &&
                   other.task == e.task && other.incarnation == e.incarnation &&
                   other.id > e.id) {
          undone_brute = false;
        }
      }
      EXPECT_EQ(log.currently_undone(e.id), undone_brute) << "entry " << e.id;
    }
    const bool member =
        std::find(effective.begin(), effective.end(), e.id) != effective.end();
    EXPECT_EQ(log.is_live_execution(e.id), member) << "entry " << e.id;
  }
}

TEST(SystemLog, RenderShowsKinds) {
  const Figure1 fig;
  auto eng = fig.run_attacked();
  eng.apply_undo(Figure1::malicious_instance(eng));
  const auto text = eng.log().render(eng.specs_by_run());
  EXPECT_NE(text.find("t1[B]"), std::string::npos);
  EXPECT_NE(text.find("t1[undo]"), std::string::npos);
}

TEST(Engine, CyclicWorkflowIncarnations) {
  // s -> a -> b -> (a or c): incarnation superscripts must increment.
  wfspec::ObjectCatalog catalog;
  wfspec::WorkflowSpec wf("loopy", catalog);
  const auto s = wf.add_task("s", {}, {"s0"});
  const auto a = wf.add_task("a", {"s0"}, {"x"});
  const auto b = wf.add_task("b", {"x"}, {"z"});
  const auto c = wf.add_task("c", {"x"}, {"y"});
  wf.add_edge(s, a);
  wf.add_edge(a, b);
  wf.add_edge(b, a);
  wf.add_edge(b, c);
  wf.validate();
  engine::EngineConfig cfg;
  // b's selector x changes every incarnation (a rewrites it), so the exit
  // is taken with prob 1/2 per lap: 1024 laps cannot all stay inside.
  cfg.max_incarnations = 1024;
  engine::Engine eng(cfg);
  const auto r = eng.start_run(wf);
  eng.run_all();
  const auto trace = eng.log().trace(r);
  ASSERT_GE(trace.size(), 3u);
  EXPECT_EQ(eng.log().entry(trace.back()).task, c);
  // If the loop repeated, incarnations must count up.
  int max_inc = 0;
  for (const auto id : trace) {
    max_inc = std::max(max_inc, eng.log().entry(id).incarnation);
  }
  EXPECT_GE(max_inc, 1);
}

TEST(Engine, RunawayLoopGuard) {
  // a -> a only? needs an end node for validation; build a loop whose
  // branch never picks the exit by making the selector constant.
  wfspec::ObjectCatalog catalog;
  wfspec::WorkflowSpec wf("tight", catalog);
  const auto a = wf.add_task("a", {"k"}, {"x"});
  const auto b = wf.add_task("b", {"k"}, {"x"});  // selector k never changes
  const auto c = wf.add_task("c", {"x"}, {"y"});
  wf.add_edge(a, b);
  wf.add_edge(b, b);  // self loop option
  wf.add_edge(b, c);
  wf.validate();
  engine::EngineConfig cfg;
  cfg.max_incarnations = 8;
  engine::Engine eng(cfg);
  eng.start_run(wf);
  const auto choice = eng.peek_choice(0, b);
  ASSERT_TRUE(choice.has_value());
  if (*choice == b) {
    EXPECT_THROW(eng.run_all(), std::runtime_error);
  } else {
    eng.run_all();  // took the exit: fine
    EXPECT_EQ(eng.active_runs(), 0u);
  }
}

}  // namespace
