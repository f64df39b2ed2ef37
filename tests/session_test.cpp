// Session persistence round-trips: save an engine (mid-attack, mid-run,
// mid-recovery), load it back, and continue -- including running the
// recovery entirely on the reloaded session.
#include <gtest/gtest.h>

#include <sstream>

#include "figure1.hpp"
#include "selfheal/engine/session_io.hpp"
#include "selfheal/recovery/analyzer.hpp"
#include "selfheal/recovery/correctness.hpp"
#include "selfheal/recovery/scheduler.hpp"
#include "selfheal/sim/workload.hpp"

namespace {

using namespace selfheal;
using selfheal::testing::Figure1;

engine::Session round_trip(const engine::Engine& eng) {
  std::stringstream buffer;
  engine::save_session(eng, buffer);
  return engine::load_session(buffer.str());
}

TEST(Session, RoundTripsCompletedExecution) {
  const Figure1 fig;
  const auto eng = fig.run_attacked();
  const auto session = round_trip(eng);

  ASSERT_EQ(session.engine->run_count(), eng.run_count());
  ASSERT_EQ(session.engine->log().size(), eng.log().size());
  EXPECT_EQ(session.engine->store().snapshot(), eng.store().snapshot());
  for (std::size_t i = 0; i < eng.log().size(); ++i) {
    const auto& a = eng.log().entry(static_cast<engine::InstanceId>(i));
    const auto& b = session.engine->log().entry(static_cast<engine::InstanceId>(i));
    EXPECT_EQ(a.run, b.run);
    EXPECT_EQ(a.task, b.task);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.logical_slot, b.logical_slot);
    EXPECT_EQ(a.read_values, b.read_values);
    EXPECT_EQ(a.written_values, b.written_values);
    EXPECT_EQ(a.chosen_successor, b.chosen_successor);
  }
}

TEST(Session, SecondRoundTripIsIdentical) {
  const Figure1 fig;
  const auto eng = fig.run_attacked();
  std::stringstream first;
  engine::save_session(eng, first);
  const auto text1 = first.str();
  const auto session = engine::load_session(first.str());
  std::stringstream second;
  engine::save_session(*session.engine, second);
  EXPECT_EQ(text1, second.str());  // fixed point
}

TEST(Session, RecoveryRunsOnReloadedSession) {
  // Crash-recovery story: the attacked system goes down; the log and
  // specs survive; recovery runs on the reloaded engine.
  const Figure1 fig;
  const auto eng = fig.run_attacked();
  auto session = round_trip(eng);

  const auto bad = Figure1::malicious_instance(*session.engine);
  const recovery::RecoveryAnalyzer analyzer(*session.engine);
  recovery::RecoveryScheduler scheduler(*session.engine);
  scheduler.execute(analyzer.analyze({bad}));

  const auto report = recovery::CorrectnessChecker(*session.engine).check();
  EXPECT_TRUE(report.strict_correct()) << report.summary;
}

TEST(Session, RoundTripsInFlightRunsAndInjections) {
  const Figure1 fig;
  engine::Engine eng;
  const auto r1 = eng.start_run(fig.wf1);
  eng.start_run(fig.wf2);
  eng.inject_malicious(r1, fig.t2);  // pending: t2 not yet executed
  eng.step();                        // t1 commits
  eng.step();                        // t7 commits
  ASSERT_TRUE(eng.run_active(r1));

  auto session = round_trip(eng);
  ASSERT_TRUE(session.engine->run_active(r1));
  // Continuing the loaded engine must execute t2 maliciously, exactly as
  // the original would have.
  session.engine->run_all();
  eng.run_all();
  ASSERT_EQ(session.engine->log().size(), eng.log().size());
  EXPECT_EQ(session.engine->store().snapshot(), eng.store().snapshot());
  bool has_malicious = false;
  for (const auto& e : session.engine->log().entries()) {
    if (e.kind == engine::ActionKind::kMalicious) {
      has_malicious = true;
      EXPECT_EQ(e.task, fig.t2);
    }
  }
  EXPECT_TRUE(has_malicious);
}

TEST(Session, RoundTripsRecoveredState) {
  const Figure1 fig;
  auto eng = fig.run_attacked();
  const recovery::RecoveryAnalyzer analyzer(eng);
  recovery::RecoveryScheduler scheduler(eng);
  scheduler.execute(analyzer.analyze({Figure1::malicious_instance(eng)}));

  auto session = round_trip(eng);
  EXPECT_EQ(session.engine->store().snapshot(), eng.store().snapshot());
  EXPECT_EQ(session.engine->log().effective(), eng.log().effective());
  const auto report = recovery::CorrectnessChecker(*session.engine).check();
  EXPECT_TRUE(report.strict_correct()) << report.summary;
}

TEST(Session, RoundTripsRandomScenarios) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto scenario = sim::make_attack_scenario(seed, 3, 2);
    auto session = round_trip(*scenario.engine);
    EXPECT_EQ(session.engine->store().snapshot(),
              scenario.engine->store().snapshot())
        << "seed " << seed;
    // Recovery on the reloaded engine reaches strict correctness.
    recovery::RecoveryScheduler scheduler(*session.engine);
    scheduler.execute(
        recovery::RecoveryAnalyzer(*session.engine).analyze(scenario.malicious));
    EXPECT_TRUE(recovery::CorrectnessChecker(*session.engine).check().strict_correct())
        << "seed " << seed;
  }
}

TEST(Session, SharedSpecSerialisedOnce) {
  const Figure1 fig;
  engine::Engine eng;
  eng.start_run(fig.wf2);
  eng.start_run(fig.wf2);  // same spec twice
  eng.run_all();
  std::stringstream buffer;
  engine::save_session(eng, buffer);
  const auto text = buffer.str();
  std::size_t count = 0;
  for (std::size_t pos = 0; (pos = text.find("spec-begin", pos)) != std::string::npos;
       ++pos) {
    ++count;
  }
  EXPECT_EQ(count, 1u);
  const auto session = engine::load_session(buffer.str());
  EXPECT_EQ(session.engine->run_count(), 2u);
  EXPECT_EQ(&session.engine->spec_of(0), &session.engine->spec_of(1));
}

TEST(Session, ImportEntryRejectsOutOfOrder) {
  const Figure1 fig;
  engine::Engine eng;
  eng.start_run(fig.wf1);
  eng.run_all();
  engine::TaskInstance bogus;
  bogus.id = 99;  // not the next id
  bogus.seq = 100;
  EXPECT_THROW(eng.import_entry(bogus), std::invalid_argument);
}

TEST(Session, RejectsMalformedInput) {
  std::stringstream bad1("not-a-session 1\n");
  EXPECT_THROW((void)engine::load_session(bad1.str()), std::invalid_argument);
  std::stringstream bad2("selfheal-session 1\nconfig 0 1 64\ncatalog 1\nobj 5 x\n");
  EXPECT_THROW((void)engine::load_session(bad2.str()), std::invalid_argument);
  std::stringstream truncated("selfheal-session 1\nconfig 0 1 64\n");
  EXPECT_THROW((void)engine::load_session(truncated.str()), std::invalid_argument);
}

}  // namespace
