#include <gtest/gtest.h>

#include "figure1.hpp"
#include "selfheal/recovery/controller.hpp"
#include "selfheal/recovery/correctness.hpp"

namespace {

using namespace selfheal;
using recovery::ControllerConfig;
using recovery::SelfHealingController;
using recovery::SystemState;
using selfheal::testing::Figure1;

ids::Alert alert_for(engine::InstanceId id) {
  ids::Alert alert;
  alert.malicious.push_back(id);
  return alert;
}

TEST(Controller, StateNames) {
  EXPECT_STREQ(recovery::to_string(SystemState::kNormal), "NORMAL");
  EXPECT_STREQ(recovery::to_string(SystemState::kScan), "SCAN");
  EXPECT_STREQ(recovery::to_string(SystemState::kRecovery), "RECOVERY");
}

TEST(Controller, StartsNormalAndIdles) {
  const Figure1 fig;
  auto eng = fig.run_attacked();
  SelfHealingController controller(eng);
  EXPECT_EQ(controller.state(), SystemState::kNormal);
  EXPECT_FALSE(controller.scan_one().has_value());
  EXPECT_FALSE(controller.recover_one().has_value());
  EXPECT_EQ(controller.drain(), 0u);
}

TEST(Controller, WalksScanRecoveryNormal) {
  // The Figure 3 state machine: alert -> SCAN -> RECOVERY -> NORMAL.
  const Figure1 fig;
  auto eng = fig.run_attacked();
  SelfHealingController controller(eng);

  EXPECT_TRUE(controller.submit_alert(alert_for(Figure1::malicious_instance(eng))));
  EXPECT_EQ(controller.state(), SystemState::kScan);
  EXPECT_EQ(controller.alerts_queued(), 1u);

  // Recovery execution is forbidden in SCAN.
  EXPECT_FALSE(controller.recover_one().has_value());

  const auto scan_work = controller.scan_one();
  ASSERT_TRUE(scan_work.has_value());
  EXPECT_GT(*scan_work, 0u);
  EXPECT_EQ(controller.state(), SystemState::kRecovery);
  EXPECT_EQ(controller.units_queued(), 1u);

  const auto recovery_work = controller.recover_one();
  ASSERT_TRUE(recovery_work.has_value());
  EXPECT_GT(*recovery_work, 0u);
  EXPECT_EQ(controller.state(), SystemState::kNormal);

  const recovery::CorrectnessChecker checker(eng);
  EXPECT_TRUE(checker.check().strict_correct()) << checker.check().summary;

  const auto& stats = controller.stats();
  EXPECT_EQ(stats.alerts_received, 1u);
  EXPECT_EQ(stats.scans, 1u);
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_GT(stats.scan_work, 0u);
  EXPECT_GT(stats.recovery_work, 0u);
}

TEST(Controller, AlertQueueOverflowLosesAlerts) {
  const Figure1 fig;
  auto eng = fig.run_attacked();
  ControllerConfig config;
  config.alert_buffer = 2;
  SelfHealingController controller(eng, config);
  const auto bad = Figure1::malicious_instance(eng);
  EXPECT_TRUE(controller.submit_alert(alert_for(bad)));
  EXPECT_TRUE(controller.submit_alert(alert_for(bad)));
  EXPECT_FALSE(controller.submit_alert(alert_for(bad)));  // full: lost
  EXPECT_EQ(controller.stats().alerts_lost, 1u);
  EXPECT_EQ(controller.stats().alerts_received, 3u);
}

TEST(Controller, AnalyzerBlocksWhenRecoveryBufferFull) {
  const Figure1 fig;
  auto eng = fig.run_attacked();
  ControllerConfig config;
  config.recovery_buffer = 1;
  SelfHealingController controller(eng, config);
  const auto bad = Figure1::malicious_instance(eng);
  controller.submit_alert(alert_for(bad));
  controller.submit_alert(alert_for(bad));
  ASSERT_TRUE(controller.scan_one().has_value());
  EXPECT_EQ(controller.units_queued(), 1u);
  // Second scan blocked: no space for its unit.
  EXPECT_FALSE(controller.scan_one().has_value());
  EXPECT_EQ(controller.stats().alerts_blocked, 1u);
  // Forced drain applies: recovery buffer full allows recover_one even
  // though an alert is still queued (SCAN).
  EXPECT_EQ(controller.state(), SystemState::kScan);
  EXPECT_TRUE(controller.recover_one().has_value());
  // Now the blocked alert can be scanned and drained normally. (It is
  // moot -- the first unit already repaired its instance -- so its unit
  // costs no recovery work: the scheduler visits only the damage cone.)
  controller.drain();
  EXPECT_EQ(controller.state(), SystemState::kNormal);
  EXPECT_EQ(controller.stats().scans, 2u);
  EXPECT_EQ(controller.stats().recoveries, 2u);
}

TEST(Controller, DefersNormalRunsDuringRecovery) {
  // Theorem 4: normal tasks wait for recovery to complete.
  const Figure1 fig;
  auto eng = fig.run_attacked();
  SelfHealingController controller(eng);
  controller.submit_alert(alert_for(Figure1::malicious_instance(eng)));

  const auto deferred = controller.submit_run(fig.wf2);
  EXPECT_FALSE(deferred.has_value());
  EXPECT_EQ(controller.stats().runs_deferred, 1u);
  EXPECT_EQ(eng.run_count(), 2u);  // nothing started yet

  controller.drain();
  EXPECT_EQ(controller.state(), SystemState::kNormal);
  EXPECT_EQ(eng.run_count(), 3u);  // the deferred run started and finished
  EXPECT_EQ(eng.active_runs(), 0u);

  const recovery::CorrectnessChecker checker(eng);
  EXPECT_TRUE(checker.check().strict_correct()) << checker.check().summary;
}

TEST(Controller, StartsRunsImmediatelyWhenNormal) {
  const Figure1 fig;
  engine::Engine eng;
  eng.start_run(fig.wf1);
  eng.run_all();
  SelfHealingController controller(eng);
  const auto started = controller.submit_run(fig.wf2);
  ASSERT_TRUE(started.has_value());
  EXPECT_FALSE(eng.run_active(*started));  // ran to completion
}

TEST(Controller, MeasuresServiceWorkByQueueLength) {
  const Figure1 fig;
  auto eng = fig.run_attacked();
  SelfHealingController controller(eng);
  const auto bad = Figure1::malicious_instance(eng);
  controller.submit_alert(alert_for(bad));
  controller.submit_alert(alert_for(bad));
  controller.drain();
  const auto& stats = controller.stats();
  // Scans ran with 1 unit queued (k=1) and 2 queued (k=2).
  EXPECT_TRUE(stats.scan_work_by_queue.count(1));
  EXPECT_TRUE(stats.scan_work_by_queue.count(2));
  EXPECT_TRUE(stats.recovery_work_by_queue.count(2));
  EXPECT_TRUE(stats.recovery_work_by_queue.count(1));
}

TEST(Controller, PerTaskBlockingRunsCleanPrefixAndParksAtDirtyAccess) {
  // wf2's t8 reads o1 -- an object the recovery of t1's attack repairs.
  // Under per-task Theorem 4 blocking, a newly submitted wf2 run must
  // execute t7 (clean), park before t8, and finish after recovery.
  const Figure1 fig;
  auto eng = fig.run_attacked();
  ControllerConfig config;
  config.granularity = recovery::BlockingGranularity::kPerTask;
  SelfHealingController controller(eng, config);
  controller.submit_alert(alert_for(Figure1::malicious_instance(eng)));

  // Move to RECOVERY (damage analyzed; dirty set known).
  ASSERT_TRUE(controller.scan_one().has_value());
  ASSERT_EQ(controller.state(), SystemState::kRecovery);

  const auto run = controller.submit_run(fig.wf2);
  ASSERT_TRUE(run.has_value());             // started immediately...
  EXPECT_TRUE(eng.run_active(*run));        // ...but parked mid-run
  EXPECT_EQ(controller.stats().runs_parked, 1u);
  EXPECT_EQ(controller.stats().tasks_before_park, 1u);  // t7 executed
  const auto trace = eng.log().trace(*run);
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(eng.log().entry(trace[0]).task, fig.t7);

  controller.drain();
  EXPECT_FALSE(eng.run_active(*run));  // resumed and completed
  const recovery::CorrectnessChecker checker(eng);
  EXPECT_TRUE(checker.check().strict_correct()) << checker.check().summary;
}

TEST(Controller, PerTaskBlockingLetsUnrelatedRunsComplete) {
  // A run that never touches repaired objects completes during RECOVERY.
  const Figure1 fig;
  wfspec::ObjectCatalog& catalog = const_cast<Figure1&>(fig).catalog;
  wfspec::WorkflowSpec unrelated("unrelated", catalog);
  const auto a = unrelated.add_task("a", {}, {"q1"});
  const auto b = unrelated.add_task("b", {"q1"}, {"q2"});
  unrelated.add_edge(a, b);
  unrelated.validate();

  auto eng = fig.run_attacked();
  ControllerConfig config;
  config.granularity = recovery::BlockingGranularity::kPerTask;
  SelfHealingController controller(eng, config);
  controller.submit_alert(alert_for(Figure1::malicious_instance(eng)));
  ASSERT_TRUE(controller.scan_one().has_value());

  const auto run = controller.submit_run(unrelated);
  ASSERT_TRUE(run.has_value());
  EXPECT_FALSE(eng.run_active(*run));  // ran to completion, no parking
  EXPECT_EQ(controller.stats().runs_parked, 0u);

  controller.drain();
  const recovery::CorrectnessChecker checker(eng);
  EXPECT_TRUE(checker.check().strict_correct()) << checker.check().summary;
}

TEST(Controller, PerTaskBlockingStillDefersWholeRunsDuringScan) {
  // In SCAN the dirty set is unknown: even per-task mode defers.
  const Figure1 fig;
  auto eng = fig.run_attacked();
  ControllerConfig config;
  config.granularity = recovery::BlockingGranularity::kPerTask;
  SelfHealingController controller(eng, config);
  controller.submit_alert(alert_for(Figure1::malicious_instance(eng)));
  ASSERT_EQ(controller.state(), SystemState::kScan);
  EXPECT_FALSE(controller.submit_run(fig.wf2).has_value());
  EXPECT_EQ(controller.stats().runs_deferred, 1u);
  controller.drain();
  const recovery::CorrectnessChecker checker(eng);
  EXPECT_TRUE(checker.check().strict_correct()) << checker.check().summary;
}

TEST(Controller, TwoDistinctAttacksSequentialAlerts) {
  const Figure1 fig;
  engine::Engine eng;
  const auto r1 = eng.start_run(fig.wf1);
  const auto r2 = eng.start_run(fig.wf2);
  eng.inject_malicious(r1, fig.t1);
  eng.inject_malicious(r2, fig.t7);
  eng.run_all();

  std::vector<engine::InstanceId> bads;
  for (const auto& e : eng.log().entries()) {
    if (e.kind == engine::ActionKind::kMalicious) bads.push_back(e.id);
  }
  ASSERT_EQ(bads.size(), 2u);

  SelfHealingController controller(eng);
  controller.submit_alert(alert_for(bads[0]));
  controller.submit_alert(alert_for(bads[1]));
  controller.drain();
  EXPECT_EQ(controller.stats().scans, 2u);
  EXPECT_EQ(controller.stats().recoveries, 2u);

  const recovery::CorrectnessChecker checker(eng);
  EXPECT_TRUE(checker.check().strict_correct()) << checker.check().summary;
}

}  // namespace
