// Chaos harness: task-fault injection, IDS imperfection, and
// crash/restart campaigns, each checked against the strict-correctness
// oracle and the determinism contract.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "selfheal/chaos/campaign.hpp"
#include "selfheal/chaos/faults.hpp"
#include "selfheal/engine/engine.hpp"
#include "selfheal/engine/session_io.hpp"
#include "selfheal/ids/ids.hpp"
#include "selfheal/recovery/controller.hpp"
#include "selfheal/recovery/correctness.hpp"
#include "selfheal/sim/workload.hpp"
#include "selfheal/util/rng.hpp"

namespace {

using namespace selfheal;

/// Shared specs two engines can execute independently.
struct Fixture {
  std::unique_ptr<wfspec::ObjectCatalog> catalog =
      std::make_unique<wfspec::ObjectCatalog>();
  std::vector<std::unique_ptr<wfspec::WorkflowSpec>> specs;

  explicit Fixture(std::uint64_t seed, std::size_t n_workflows = 3) {
    util::Rng rng(seed);
    sim::WorkloadGenerator generator(*catalog);
    for (std::size_t w = 0; w < n_workflows; ++w) {
      specs.push_back(std::make_unique<wfspec::WorkflowSpec>(
          generator.generate("wf" + std::to_string(w), rng)));
    }
  }
};

TEST(ChaosFaults, DecisionsAreStateless) {
  chaos::TaskFaultConfig config;
  config.transient_rate = 0.3;
  config.permanent_rate = 0.1;
  chaos::TaskFaultPlan plan(99, config);
  chaos::TaskFaultPlan replay(99, config);

  // Same (run, task, incarnation, attempt) gives the same fate no matter
  // how often or in what order the plan is consulted.
  std::vector<engine::TaskFault> first;
  for (int run = 0; run < 4; ++run) {
    for (int task = 0; task < 6; ++task) {
      first.push_back(plan.decide(run, static_cast<wfspec::TaskId>(task), 1, 1));
    }
  }
  std::size_t i = first.size();
  for (int run = 3; run >= 0; --run) {
    for (int task = 5; task >= 0; --task) {
      --i;
      EXPECT_EQ(replay.decide(run, static_cast<wfspec::TaskId>(task), 1, 1),
                first[i]);
      EXPECT_EQ(plan.decide(run, static_cast<wfspec::TaskId>(task), 1, 1),
                first[i]);
    }
  }
}

TEST(ChaosFaults, TransientRetriesPreserveExecution) {
  const Fixture fix(7);
  engine::Engine clean, faulty;
  for (const auto& spec : fix.specs) {
    clean.start_run(*spec);
    faulty.start_run(*spec);
  }
  // Every attempt fails twice, then succeeds -- within the default retry
  // budget, so the retried execution must be byte-identical to the
  // fault-free one.
  std::size_t faults = 0;
  faulty.set_fault_injector([&](engine::RunId, wfspec::TaskId, int,
                                int attempt) {
    if (attempt <= 2) {
      ++faults;
      return engine::TaskFault::kTransient;
    }
    return engine::TaskFault::kNone;
  });
  clean.run_all();
  faulty.run_all();

  EXPECT_GT(faults, 0u);
  ASSERT_EQ(clean.log().size(), faulty.log().size());
  EXPECT_EQ(clean.store().snapshot(), faulty.store().snapshot());
  for (std::size_t e = 0; e < clean.log().size(); ++e) {
    const auto& a = clean.log().entry(static_cast<engine::InstanceId>(e));
    const auto& b = faulty.log().entry(static_cast<engine::InstanceId>(e));
    EXPECT_EQ(a.run, b.run);
    EXPECT_EQ(a.task, b.task);
    EXPECT_EQ(a.written_values, b.written_values);
  }
  for (std::size_t r = 0; r < faulty.run_count(); ++r) {
    EXPECT_FALSE(faulty.run_aborted(static_cast<engine::RunId>(r)));
  }
}

TEST(ChaosFaults, ExhaustedRetriesAbortTheRun) {
  const Fixture fix(7);
  engine::Engine eng;
  for (const auto& spec : fix.specs) eng.start_run(*spec);
  int last_attempt = 0;
  eng.set_fault_injector(
      [&](engine::RunId run, wfspec::TaskId, int, int attempt) {
        if (run != 1) return engine::TaskFault::kNone;
        last_attempt = attempt;
        return engine::TaskFault::kTransient;
      });
  eng.run_all();

  // The first attempt plus the fixed retry bound, then the abort.
  EXPECT_EQ(last_attempt, engine::kMaxTaskRetries + 1);
  EXPECT_TRUE(eng.run_aborted(1));
  EXPECT_FALSE(eng.run_aborted(0));
  EXPECT_FALSE(eng.run_aborted(2));
  // Graceful degradation: the other runs completed normally.
  for (const auto& e : eng.log().entries()) EXPECT_NE(e.run, 1);
  EXPECT_GT(eng.log().size(), 0u);
}

TEST(ChaosFaults, PermanentFaultDegradesButRecoveryStaysCorrect) {
  const Fixture fix(11);
  engine::Engine eng;
  for (const auto& spec : fix.specs) eng.start_run(*spec);
  eng.inject_malicious(0, fix.specs[0]->start());
  // Run 2 dies permanently partway through; runs 0 and 1 are attacked /
  // healthy and must still recover to strict correctness.
  eng.set_fault_injector(
      [](engine::RunId run, wfspec::TaskId task, int, int) {
        return (run == 2 && task != wfspec::kInvalidTask && task % 3 == 1)
                   ? engine::TaskFault::kPermanent
                   : engine::TaskFault::kNone;
      });
  eng.run_all();

  std::vector<engine::InstanceId> malicious;
  for (const auto& e : eng.log().entries()) {
    if (e.kind == engine::ActionKind::kMalicious) malicious.push_back(e.id);
  }
  ASSERT_FALSE(malicious.empty());

  recovery::SelfHealingController controller(eng);
  ids::Alert alert;
  alert.malicious = malicious;
  ASSERT_TRUE(controller.submit_alert(alert));
  controller.drain();

  const auto report = recovery::CorrectnessChecker(eng).check();
  EXPECT_TRUE(report.strict_correct()) << report.summary;
}

TEST(ChaosSession, AbortedRunSurvivesRoundTrip) {
  const Fixture fix(13);
  engine::Engine eng;
  for (const auto& spec : fix.specs) eng.start_run(*spec);
  eng.set_fault_injector(
      [](engine::RunId run, wfspec::TaskId, int, int) {
        return run == 0 ? engine::TaskFault::kPermanent
                        : engine::TaskFault::kNone;
      });
  eng.run_all();
  ASSERT_TRUE(eng.run_aborted(0));

  std::stringstream buffer;
  engine::save_session(eng, buffer);
  const auto text = buffer.str();
  const auto session = engine::load_session(buffer.str());
  EXPECT_TRUE(session.engine->run_aborted(0));
  EXPECT_FALSE(session.engine->run_aborted(1));

  std::stringstream again;
  engine::save_session(*session.engine, again);
  EXPECT_EQ(text, again.str());  // fixed point
}

TEST(ChaosIds, ImperfectAlertStreamStaysStrictCorrect) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    auto scenario = sim::make_attack_scenario(seed, 4, 2);

    ids::IdsConfig config;
    config.coverage = 0.6;
    config.false_positive_rate = 0.2;
    config.duplicate_alert_prob = 0.5;
    config.late_correction_prob = 0.5;
    util::Rng rng(seed * 1000 + 17);
    ids::DetectionStats stats;
    const auto alerts =
        ids::IdsSimulator(config).detect(scenario.engine->log(), rng, &stats);

    recovery::SelfHealingController controller(*scenario.engine);
    for (const auto& alert : alerts) {
      while (!controller.submit_alert(alert)) controller.drain();
    }
    controller.drain();

    EXPECT_EQ(controller.state(), recovery::SystemState::kNormal);
    const auto report = recovery::CorrectnessChecker(*scenario.engine).check();
    EXPECT_TRUE(report.strict_correct())
        << "seed " << seed << ": " << report.summary;
    EXPECT_EQ(stats.true_detections + stats.late_corrections + stats.swept,
              scenario.malicious.size())
        << "every attack must eventually be reported";
  }
}

TEST(ChaosIds, PerfectConfigMatchesLegacyDetection) {
  // With the imperfection model off, detect() must behave exactly like
  // the pre-chaos IDS: same draws, same alerts, no noise.
  const auto scenario = sim::make_attack_scenario(3, 4, 2);
  util::Rng rng(42);
  ids::DetectionStats stats;
  const auto alerts = ids::IdsSimulator(ids::IdsConfig{})
                          .detect(scenario.engine->log(), rng, &stats);
  EXPECT_EQ(stats.false_positives, 0u);
  EXPECT_EQ(stats.duplicates, 0u);
  EXPECT_EQ(stats.late_corrections, 0u);
  std::size_t reported = 0;
  for (const auto& alert : alerts) reported += alert.malicious.size();
  EXPECT_EQ(reported, scenario.malicious.size());
}

TEST(ChaosCampaign, DefaultMixPassesAndIsDeterministic) {
  const auto config = chaos::default_campaign(5);
  const auto once = chaos::run_campaign(config);
  const auto twice = chaos::run_campaign(config);
  EXPECT_TRUE(once.passed()) << once.failure;
  EXPECT_EQ(once.to_json(), twice.to_json());
}

TEST(ChaosCampaign, CrashRestartMatchesUninterruptedRun) {
  // Find seeds whose campaigns actually crash, and require the byte-
  // identity invariants to have been exercised, not vacuously true.
  std::size_t crashed_campaigns = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto result = chaos::run_campaign(chaos::default_campaign(seed));
    EXPECT_TRUE(result.passed()) << "seed " << seed << ": " << result.failure;
    EXPECT_TRUE(result.plans_identical);
    EXPECT_TRUE(result.store_matches_uninterrupted);
    if (result.crashes > 0) ++crashed_campaigns;
  }
  EXPECT_GT(crashed_campaigns, 0u);
}

TEST(ChaosCampaign, SuiteSweepAllStrictCorrect) {
  const auto suite =
      chaos::run_campaigns(1, 25, chaos::default_campaign(1));
  EXPECT_TRUE(suite.all_passed());
  EXPECT_EQ(suite.passed, 25u);
  for (const auto& r : suite.results) EXPECT_TRUE(r.strict_correct);

  const auto again =
      chaos::run_campaigns(1, 25, chaos::default_campaign(1));
  EXPECT_EQ(suite.to_json("chaos_campaign"), again.to_json("chaos_campaign"));
}

TEST(ChaosStorage, CampaignsSurviveCorruptedMedia) {
  // Fault class 4: crash/restart routed through the durable storage
  // layer while a seeded injector damages every media write. Campaigns
  // must still end strict-correct (or fail loudly) -- and at least one
  // campaign in the sweep must actually have seen damage, or the sweep
  // proved nothing.
  std::size_t damaged = 0;
  std::size_t injected = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto result =
        chaos::run_campaign(chaos::default_storage_campaign(seed));
    EXPECT_TRUE(result.passed()) << "seed " << seed << ": " << result.failure;
    EXPECT_TRUE(result.storage_enabled);
    EXPECT_TRUE(result.no_silent_corruption) << "seed " << seed;
    EXPECT_FALSE(result.storage_unrecoverable) << "seed " << seed;
    EXPECT_GT(result.storage_recoveries, 0u)
        << "seed " << seed << ": final probe must always recover once";
    damaged += result.storage_damaged_recoveries;
    injected += result.storage_injected.total();
  }
  EXPECT_GT(injected, 0u);
  EXPECT_GT(damaged, 0u);
}

TEST(ChaosStorage, CampaignIsDeterministic) {
  const auto config = chaos::default_storage_campaign(3);
  const auto once = chaos::run_campaign(config);
  const auto twice = chaos::run_campaign(config);
  EXPECT_TRUE(once.passed()) << once.failure;
  EXPECT_EQ(once.to_json(), twice.to_json());
  EXPECT_NE(once.to_json().find("\"storage\""), std::string::npos);
}

TEST(ChaosStorage, SuiteIsByteIdenticalAcrossThreadCounts) {
  const auto base = chaos::default_storage_campaign(1);
  const auto serial = chaos::run_campaigns(1, 8, base, 1);
  const auto parallel = chaos::run_campaigns(1, 8, base, 4);
  EXPECT_TRUE(serial.all_passed());
  EXPECT_EQ(serial.to_json("chaos_campaign --storage-faults"),
            parallel.to_json("chaos_campaign --storage-faults"));
}

TEST(ChaosStorage, DisablingStorageFaultsChangesNothingElse) {
  // Stream independence: the storage fault class draws from its own
  // salted stream, so enabling it must not shift IDS or task-fault
  // decisions of the same seed.
  auto with_storage = chaos::default_storage_campaign(7);
  auto without = with_storage;
  without.storage = chaos::StorageChaosConfig{};
  const auto a = chaos::run_campaign(with_storage);
  const auto b = chaos::run_campaign(without);
  EXPECT_TRUE(a.passed()) << a.failure;
  EXPECT_TRUE(b.passed()) << b.failure;
  EXPECT_EQ(a.ids_stats.false_positives, b.ids_stats.false_positives);
  EXPECT_EQ(a.ids_stats.missed, b.ids_stats.missed);
  EXPECT_EQ(a.transient_faults, b.transient_faults);
  EXPECT_EQ(a.permanent_faults, b.permanent_faults);
  EXPECT_EQ(a.alerts_delivered, b.alerts_delivered);
}

TEST(ChaosCampaign, ReportListsFailingSeedRepro) {
  chaos::CampaignSuite suite;
  chaos::CampaignResult bad;
  bad.seed = 77;
  bad.failure = "strict correctness violated: \"demo\"";
  suite.results.push_back(bad);
  suite.failed = 1;
  const auto json = suite.to_json("chaos_campaign");
  EXPECT_NE(json.find("\"repro\": \"chaos_campaign --seed 77\""),
            std::string::npos);
  EXPECT_NE(json.find("\\\"demo\\\""), std::string::npos);
}

}  // namespace
