#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "selfheal/sim/des.hpp"
#include "selfheal/sim/queueing_sim.hpp"
#include "selfheal/sim/system_sim.hpp"
#include "selfheal/sim/workload.hpp"

namespace {

using namespace selfheal;

TEST(EventQueue, ProcessesInTimeOrder) {
  sim::EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  q.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 10.0);
}

TEST(EventQueue, SimultaneousEventsAreFifo) {
  sim::EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, HandlersCanScheduleMore) {
  sim::EventQueue q;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 4) q.schedule_in(1.0, chain);
  };
  q.schedule(0.5, chain);
  q.run_until(2.6);  // 0.5, 1.5, 2.5 fire; 3.5 does not
  EXPECT_EQ(fired, 3);
  q.run_until(4.0);
  EXPECT_EQ(fired, 4);
}

TEST(EventQueue, RejectsPastScheduling) {
  sim::EventQueue q;
  q.run_until(5.0);
  EXPECT_THROW(q.schedule(1.0, [] {}), std::invalid_argument);
}

class WorkloadSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WorkloadSeeds, GeneratedSpecsAreValidAndExecutable) {
  wfspec::ObjectCatalog catalog;
  sim::WorkloadGenerator generator(catalog);
  util::Rng rng(GetParam());
  for (int i = 0; i < 10; ++i) {
    auto spec = generator.generate("w" + std::to_string(i), rng);
    EXPECT_TRUE(spec.validated());
    EXPECT_GE(spec.task_count(), 6u);
    EXPECT_LE(spec.task_count(), 14u);
    // Branch nodes must have selectors within their reads.
    for (std::size_t t = 0; t < spec.task_count(); ++t) {
      const auto id = static_cast<wfspec::TaskId>(t);
      if (spec.is_branch(id)) {
        ASSERT_TRUE(spec.task(id).selector.has_value());
      }
    }
    // And the spec must actually execute to completion.
    engine::Engine eng;
    eng.start_run(spec);
    eng.run_all();
    EXPECT_EQ(eng.active_runs(), 0u);
    EXPECT_GE(eng.log().size(), 2u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkloadSeeds,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(Workload, ScenarioIsDeterministic) {
  const auto a = sim::make_attack_scenario(42, 3, 2);
  const auto b = sim::make_attack_scenario(42, 3, 2);
  ASSERT_EQ(a.engine->log().size(), b.engine->log().size());
  EXPECT_EQ(a.malicious, b.malicious);
  EXPECT_EQ(a.engine->store().snapshot(), b.engine->store().snapshot());
}

TEST(Workload, ScenarioHasMaliciousInstances) {
  const auto scenario = sim::make_attack_scenario(7, 4, 3);
  EXPECT_GE(scenario.malicious.size(), 1u);  // first attack hits a start task
  for (const auto id : scenario.malicious) {
    EXPECT_EQ(scenario.engine->log().entry(id).kind, engine::ActionKind::kMalicious);
  }
}

TEST(QueueingSim, AgreesWithCtmcOnGoodSystem) {
  // Empirical occupancy from the DES must match the analytical steady
  // state of the same process within Monte-Carlo tolerance.
  ctmc::RecoveryStgConfig cfg;
  cfg.lambda = 1.0;
  cfg.mu1 = 15.0;
  cfg.xi1 = 20.0;
  cfg.f = ctmc::power_decay(1.0);
  cfg.g = ctmc::power_decay(1.0);
  cfg.alert_buffer = 8;
  cfg.recovery_buffer = 8;

  const ctmc::RecoveryStg stg(cfg);
  const auto pi = stg.steady_state();
  ASSERT_TRUE(pi.has_value());

  util::Rng rng(99);
  const auto sim_result = sim::simulate_queueing(cfg, 60000.0, rng);
  EXPECT_NEAR(sim_result.p_normal, stg.normal_probability(*pi), 0.02);
  EXPECT_NEAR(sim_result.p_scan, stg.scan_probability(*pi), 0.02);
  EXPECT_NEAR(sim_result.loss_edge, stg.loss_probability(*pi), 0.02);
  EXPECT_NEAR(sim_result.mean_units, stg.expected_units(*pi), 0.25);
}

TEST(QueueingSim, OverloadedSystemLosesAlerts) {
  ctmc::RecoveryStgConfig cfg;
  cfg.lambda = 4.0;
  cfg.mu1 = 15.0;
  cfg.xi1 = 20.0;
  cfg.f = ctmc::power_decay(1.0);
  cfg.g = ctmc::power_decay(1.0);
  cfg.alert_buffer = 8;
  cfg.recovery_buffer = 8;
  util::Rng rng(123);
  const auto result = sim::simulate_queueing(cfg, 20000.0, rng);
  EXPECT_GT(result.loss_fraction(), 0.4);
  EXPECT_GT(result.lost_arrivals, 0u);
  EXPECT_LT(result.p_normal, 0.05);
}

TEST(QueueingSim, MmppDesMatchesMmppCtmc) {
  // The modulated DES must agree with the product-chain analytics.
  ctmc::RecoveryStgConfig cfg;
  cfg.mu1 = 15.0;
  cfg.xi1 = 20.0;
  cfg.f = ctmc::power_decay(1.0);
  cfg.g = ctmc::power_decay(1.0);
  cfg.alert_buffer = 8;
  cfg.recovery_buffer = 8;
  ctmc::BurstModel burst;
  burst.lambda_quiet = 0.5;
  burst.lambda_burst = 3.0;
  burst.quiet_to_burst = 0.2;
  burst.burst_to_quiet = 0.8;

  const ctmc::MmppRecoveryStg mmpp(cfg, burst);
  const auto pi = mmpp.steady_state();
  ASSERT_TRUE(pi.has_value());

  util::Rng rng(4242);
  const auto sim_result = sim::simulate_queueing(cfg, 60000.0, rng, burst);
  EXPECT_NEAR(sim_result.p_normal, mmpp.normal_probability(*pi), 0.02);
  EXPECT_NEAR(sim_result.loss_edge, mmpp.loss_probability(*pi), 0.02);
  EXPECT_NEAR(sim_result.p_burst, mmpp.burst_probability(*pi), 0.02);
  // Empirical mean arrival rate matches the burst model's.
  EXPECT_NEAR(static_cast<double>(sim_result.arrivals) / sim_result.horizon,
              burst.mean_rate(), 0.05);
}

TEST(QueueingSim, NoAttacksMeansAllNormal) {
  ctmc::RecoveryStgConfig cfg;
  cfg.lambda = 0.0;
  util::Rng rng(5);
  const auto result = sim::simulate_queueing(cfg, 100.0, rng);
  EXPECT_DOUBLE_EQ(result.p_normal, 1.0);
  EXPECT_EQ(result.arrivals, 0u);
}

// Cross-validation sweep: for every (policy, indexing) combination, the
// DES occupancy must match the analytic steady state of the same chain.
struct PolicyIndexing {
  ctmc::ScanPolicy policy;
  ctmc::QueueIndex mu_index;
  ctmc::QueueIndex xi_index;
};

// gtest prints the parameter, and ctest names each case by that print.
void PrintTo(const PolicyIndexing& p, std::ostream* os) {
  const auto policy = [](ctmc::ScanPolicy value) {
    switch (value) {
      case ctmc::ScanPolicy::kStrict: return "Strict";
      case ctmc::ScanPolicy::kDrainWhenFull: return "DrainWhenFull";
      case ctmc::ScanPolicy::kConcurrent: return "Concurrent";
    }
    return "Unknown";
  };
  const auto queue = [](ctmc::QueueIndex value) {
    switch (value) {
      case ctmc::QueueIndex::kAlerts: return "Alerts";
      case ctmc::QueueIndex::kUnits: return "Units";
      case ctmc::QueueIndex::kTotal: return "Total";
    }
    return "Unknown";
  };
  *os << policy(p.policy) << "_Mu" << queue(p.mu_index) << "_Xi"
      << queue(p.xi_index);
}

class QueueingPolicySweep : public ::testing::TestWithParam<PolicyIndexing> {};

TEST_P(QueueingPolicySweep, DesMatchesCtmcSteadyState) {
  ctmc::RecoveryStgConfig cfg;
  cfg.lambda = 1.2;
  cfg.mu1 = 10.0;
  cfg.xi1 = 12.0;
  cfg.f = ctmc::power_decay(1.0);
  cfg.g = ctmc::power_decay(1.0);
  cfg.alert_buffer = 6;
  cfg.recovery_buffer = 6;
  cfg.policy = GetParam().policy;
  cfg.mu_index = GetParam().mu_index;
  cfg.xi_index = GetParam().xi_index;

  const ctmc::RecoveryStg stg(cfg);
  const auto pi = stg.steady_state();
  ASSERT_TRUE(pi.has_value());

  util::Rng rng(0xabcd);
  const auto sim_result = sim::simulate_queueing(cfg, 50000.0, rng);
  EXPECT_NEAR(sim_result.p_normal, stg.normal_probability(*pi), 0.03);
  EXPECT_NEAR(sim_result.loss_edge, stg.loss_probability(*pi), 0.03);
  EXPECT_NEAR(sim_result.recovery_full, stg.recovery_full_probability(*pi), 0.03);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, QueueingPolicySweep,
    ::testing::Values(
        PolicyIndexing{ctmc::ScanPolicy::kDrainWhenFull, ctmc::QueueIndex::kAlerts,
                       ctmc::QueueIndex::kUnits},
        PolicyIndexing{ctmc::ScanPolicy::kDrainWhenFull, ctmc::QueueIndex::kUnits,
                       ctmc::QueueIndex::kUnits},
        PolicyIndexing{ctmc::ScanPolicy::kDrainWhenFull, ctmc::QueueIndex::kTotal,
                       ctmc::QueueIndex::kTotal},
        PolicyIndexing{ctmc::ScanPolicy::kConcurrent, ctmc::QueueIndex::kAlerts,
                       ctmc::QueueIndex::kUnits},
        PolicyIndexing{ctmc::ScanPolicy::kConcurrent, ctmc::QueueIndex::kTotal,
                       ctmc::QueueIndex::kAlerts}));

TEST(SystemSim, EndToEndIsStrictCorrectAndMostlyNormal) {
  sim::SystemSimConfig cfg;
  cfg.attack_rate = 0.2;
  cfg.benign_rate = 0.5;
  cfg.horizon = 60.0;
  cfg.mean_detection_delay = 0.5;
  cfg.seed = 11;
  const auto result = sim::run_system_sim(cfg);
  EXPECT_GT(result.attacks, 0u);
  EXPECT_TRUE(result.strict_correct) << result.correctness_summary;
  EXPECT_GT(result.p_normal, 0.5);
  EXPECT_NEAR(result.p_normal + result.p_scan + result.p_recovery, 1.0, 1e-6);
  EXPECT_EQ(result.controller.alerts_received, result.attacks);
}

TEST(SystemSim, HighAttackRateDegradesNormalTime) {
  sim::SystemSimConfig low;
  low.attack_rate = 0.1;
  low.horizon = 40.0;
  low.seed = 21;
  sim::SystemSimConfig high = low;
  high.attack_rate = 3.0;
  high.time_per_scan_work = 2e-3;  // slower analyzer: pressure builds
  high.time_per_recovery_work = 2e-3;
  const auto r_low = sim::run_system_sim(low);
  const auto r_high = sim::run_system_sim(high);
  EXPECT_LT(r_high.p_normal, r_low.p_normal);
  EXPECT_TRUE(r_low.strict_correct) << r_low.correctness_summary;
  EXPECT_TRUE(r_high.strict_correct) << r_high.correctness_summary;
}

TEST(SystemSim, MeasuresServiceRates) {
  sim::SystemSimConfig cfg;
  cfg.attack_rate = 1.0;
  cfg.horizon = 80.0;
  cfg.seed = 31;
  const auto result = sim::run_system_sim(cfg);
  EXPECT_FALSE(result.measured_mu.empty());
  EXPECT_FALSE(result.measured_xi.empty());
  for (const auto& [k, rate] : result.measured_mu) {
    EXPECT_GT(rate, 0.0) << "mu_" << k;
  }
}

}  // namespace
