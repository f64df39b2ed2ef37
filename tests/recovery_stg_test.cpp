#include <gtest/gtest.h>

#include <limits>

#include "selfheal/ctmc/recovery_stg.hpp"

namespace {

using namespace selfheal::ctmc;

RecoveryStgConfig paper_defaults() {
  RecoveryStgConfig cfg;
  cfg.lambda = 1.0;
  cfg.mu1 = 15.0;
  cfg.xi1 = 20.0;
  cfg.f = power_decay(1.0);
  cfg.g = power_decay(1.0);
  cfg.alert_buffer = 15;
  cfg.recovery_buffer = 15;
  return cfg;
}

TEST(RecoveryStg, StateIndexRoundTrip) {
  const RecoveryStg stg(paper_defaults());
  for (std::size_t a = 0; a <= 15; ++a) {
    for (std::size_t r = 0; r <= 15; ++r) {
      const auto s = stg.state_of(a, r);
      EXPECT_EQ(stg.alerts_of(s), a);
      EXPECT_EQ(stg.units_of(s), r);
    }
  }
  EXPECT_EQ(stg.state_count(), 16u * 16u);
  EXPECT_THROW((void)stg.state_of(16, 0), std::out_of_range);
}

TEST(RecoveryStg, StateClassification) {
  const RecoveryStg stg(paper_defaults());
  EXPECT_TRUE(stg.is_normal(stg.state_of(0, 0)));
  EXPECT_TRUE(stg.is_scan(stg.state_of(3, 2)));
  EXPECT_TRUE(stg.is_recovery(stg.state_of(0, 5)));
  EXPECT_FALSE(stg.is_recovery(stg.state_of(1, 5)));
  EXPECT_TRUE(stg.is_recovery_full(stg.state_of(4, 15)));
  EXPECT_FALSE(stg.is_recovery_full(stg.state_of(15, 4)));
  EXPECT_TRUE(stg.is_loss_edge(stg.state_of(15, 4)));
  EXPECT_FALSE(stg.is_loss_edge(stg.state_of(4, 15)));
  EXPECT_EQ(stg.chain().state_name(stg.state_of(0, 0)), "N");
  EXPECT_EQ(stg.chain().state_name(stg.state_of(0, 3)), "R:3");
}

TEST(RecoveryStg, GeneratorIsValid) {
  const RecoveryStg stg(paper_defaults());
  EXPECT_FALSE(stg.chain().validate().has_value());
}

TEST(RecoveryStg, TransitionRatesMatchConfig) {
  auto cfg = paper_defaults();
  cfg.alert_buffer = 3;
  cfg.recovery_buffer = 3;
  const RecoveryStg stg(cfg);
  const auto& c = stg.chain();
  // Arrival.
  EXPECT_DOUBLE_EQ(c.rate(stg.state_of(0, 0), stg.state_of(1, 0)), 1.0);
  // No arrival past the alert buffer.
  EXPECT_DOUBLE_EQ(c.rate(stg.state_of(3, 0), stg.state_of(3, 0)) -
                       c.generator()(stg.state_of(3, 0), stg.state_of(3, 0)),
                   0.0);
  // Scan with k = a (alert-queue indexing): from (2, 0), mu_2 = 15/2.
  EXPECT_DOUBLE_EQ(c.rate(stg.state_of(2, 0), stg.state_of(1, 1)), 7.5);
  // Scan blocked when recovery buffer full.
  EXPECT_DOUBLE_EQ(c.rate(stg.state_of(2, 3), stg.state_of(1, 3)), 0.0);
  // Recovery in RECOVERY states: from (0, 2), xi_2 = 10.
  EXPECT_DOUBLE_EQ(c.rate(stg.state_of(0, 2), stg.state_of(0, 1)), 10.0);
  // Recovery disabled in SCAN states (not at right edge).
  EXPECT_DOUBLE_EQ(c.rate(stg.state_of(1, 2), stg.state_of(1, 1)), 0.0);
  // Forced drain at the right edge (kDrainWhenFull).
  EXPECT_GT(c.rate(stg.state_of(1, 3), stg.state_of(1, 2)), 0.0);
}

TEST(RecoveryStg, StrictPolicyDeadlocks) {
  auto cfg = paper_defaults();
  cfg.policy = ScanPolicy::kStrict;
  cfg.alert_buffer = 4;
  cfg.recovery_buffer = 4;
  const RecoveryStg stg(cfg);
  // The full-full corner has no outgoing transitions: literal reading of
  // the paper's SCAN restriction deadlocks, hence no steady state.
  const auto corner = stg.state_of(4, 4);
  for (std::size_t t = 0; t < stg.state_count(); ++t) {
    if (t != corner) {
      EXPECT_DOUBLE_EQ(stg.chain().rate(corner, t), 0.0);
    }
  }
  EXPECT_FALSE(stg.chain().irreducible());
  EXPECT_FALSE(stg.steady_state().has_value());
}

TEST(RecoveryStg, DefaultPolicyIrreducibleAndConvergent) {
  const RecoveryStg stg(paper_defaults());
  EXPECT_TRUE(stg.chain().irreducible());
  const auto pi = stg.steady_state();
  ASSERT_TRUE(pi.has_value());
  double total = 0;
  for (double p : *pi) {
    EXPECT_GE(p, -1e-15);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(RecoveryStg, PaperGoodSystemSteadyState) {
  // Case 2 and the surrounding remarks: lambda=1, mu1=15, xi1=20 is a
  // "good" system: P(NORMAL) > 0.8 and negligible loss probability.
  const RecoveryStg stg(paper_defaults());
  const auto pi = stg.steady_state();
  ASSERT_TRUE(pi.has_value());
  EXPECT_GT(stg.normal_probability(*pi), 0.8);
  EXPECT_LT(stg.loss_probability(*pi), 0.01);
  EXPECT_LT(stg.expected_alerts(*pi), 1.0);
  EXPECT_LT(stg.expected_units(*pi), 1.0);
  EXPECT_TRUE(stg.epsilon_convergent(0.01));
  EXPECT_FALSE(stg.epsilon_convergent(1e-9));
}

TEST(RecoveryStg, HighAttackRateCollapses) {
  // Case 2 remark: past lambda ~ 1.5 the system cannot keep up: loss
  // probability high, NORMAL probability near zero.
  auto cfg = paper_defaults();
  cfg.lambda = 4.0;
  const RecoveryStg stg(cfg);
  const auto pi = stg.steady_state();
  ASSERT_TRUE(pi.has_value());
  EXPECT_LT(stg.normal_probability(*pi), 0.1);
  EXPECT_GT(stg.loss_probability(*pi), 0.5);
  // The recovery queue is full (paper's Case 2 remark) even though the
  // recovery-full mass saturates below the loss probability.
  EXPECT_GT(stg.expected_units(*pi), 13.0);
}

TEST(RecoveryStg, ProbabilitiesPartitionState) {
  const RecoveryStg stg(paper_defaults());
  const auto pi = stg.steady_state();
  ASSERT_TRUE(pi.has_value());
  const double total = stg.normal_probability(*pi) + stg.scan_probability(*pi) +
                       stg.recovery_probability(*pi);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(RecoveryStg, TransientStartsAtNormalAndConverges) {
  const RecoveryStg stg(paper_defaults());
  const auto pi0 = stg.start_normal();
  EXPECT_DOUBLE_EQ(stg.normal_probability(pi0), 1.0);
  // Paper parameters at lambda = 1 sit near the collapse threshold, so
  // the chain is bistable and mixes over ~1e4 time units; use a small
  // buffer (weak metastability) to check transient -> steady convergence.
  auto cfg = paper_defaults();
  cfg.alert_buffer = 4;
  cfg.recovery_buffer = 4;
  const RecoveryStg small(cfg);
  const auto pi_later = small.chain().transient_step(small.start_normal(), 200.0);
  const auto steady = small.steady_state();
  ASSERT_TRUE(steady.has_value());
  EXPECT_NEAR(small.normal_probability(pi_later),
              small.normal_probability(*steady), 1e-6);
}

TEST(RecoveryStg, PoorSystemLosesAlertsInTransient) {
  // Case 6: lambda=1, mu1=2, xi1=3 under sustained attacks: loss
  // probability climbs within ~30 time units and stays at 0.9-1.
  RecoveryStgConfig cfg = paper_defaults();
  cfg.mu1 = 2.0;
  cfg.xi1 = 3.0;
  const RecoveryStg stg(cfg);
  const auto series =
      stg.chain().transient_series(stg.start_normal(), {5.0, 30.0, 100.0});
  EXPECT_LT(stg.loss_probability(series[0]), 0.1);  // early: still resisting
  EXPECT_GT(stg.loss_probability(series[1]), 0.5);  // collapsing by t=30
  EXPECT_GT(stg.loss_probability(series[2]), 0.9);  // settled in 0.9..1
}

TEST(RecoveryStg, ConcurrentPolicyOutperformsDrain) {
  // The queueing-network-style variant executes recovery during SCAN, so
  // its recovery queue drains at least as fast.
  auto drain_cfg = paper_defaults();
  drain_cfg.lambda = 2.0;
  auto conc_cfg = drain_cfg;
  conc_cfg.policy = ScanPolicy::kConcurrent;
  const RecoveryStg drain(drain_cfg);
  const RecoveryStg conc(conc_cfg);
  const auto pi_d = drain.steady_state();
  const auto pi_c = conc.steady_state();
  ASSERT_TRUE(pi_d.has_value());
  ASSERT_TRUE(pi_c.has_value());
  EXPECT_LE(conc.loss_probability(*pi_c), drain.loss_probability(*pi_d) + 1e-9);
}

TEST(RecoveryStg, MeanTimeToLossOrdersByAttackRate) {
  // The stronger the attack rate, the sooner the first alert is lost.
  auto cfg = paper_defaults();
  cfg.alert_buffer = 6;
  cfg.recovery_buffer = 6;
  double previous = std::numeric_limits<double>::infinity();
  for (double lambda : {0.5, 1.0, 2.0, 4.0}) {
    cfg.lambda = lambda;
    const RecoveryStg stg(cfg);
    const auto t = stg.mean_time_to_loss();
    ASSERT_TRUE(t.has_value());
    EXPECT_GT(*t, 0.0);
    EXPECT_LT(*t, previous) << "lambda " << lambda;
    previous = *t;
  }
}

TEST(RecoveryStg, GoodSystemResistsMuchLongerThanPoor) {
  auto good = paper_defaults();
  auto poor = paper_defaults();
  poor.mu1 = 2.0;
  poor.xi1 = 3.0;
  const auto t_good = RecoveryStg(good).mean_time_to_loss();
  const auto t_poor = RecoveryStg(poor).mean_time_to_loss();
  ASSERT_TRUE(t_good.has_value());
  ASSERT_TRUE(t_poor.has_value());
  // Case 5 vs Case 6: the poor system collapses within tens of units.
  EXPECT_LT(*t_poor, 60.0);
  EXPECT_GT(*t_good, 10.0 * *t_poor);
}

TEST(RecoveryStg, RejectsZeroBuffers) {
  auto cfg = paper_defaults();
  cfg.alert_buffer = 0;
  EXPECT_THROW(RecoveryStg{cfg}, std::invalid_argument);
}

TEST(RecoveryStg, RejectsNegativeOrNonFiniteRates) {
  // A negative or non-finite rate is refused, not built as the chain of
  // rate 0 (the builder adds a transition only for a rate > 0).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double RecoveryStgConfig::*rate :
       {&RecoveryStgConfig::lambda, &RecoveryStgConfig::mu1, &RecoveryStgConfig::xi1}) {
    for (const double bad : {-1.0, nan, inf}) {
      auto cfg = paper_defaults();
      cfg.*rate = bad;
      EXPECT_THROW(RecoveryStg{cfg}, std::invalid_argument) << bad;
    }
    // 0 stays legal: the transition is simply absent.
    auto cfg = paper_defaults();
    cfg.*rate = 0.0;
    EXPECT_NO_THROW(RecoveryStg{cfg});
  }
}

TEST(RecoveryStg, DescribeMentionsStatesAndRates) {
  auto cfg = paper_defaults();
  cfg.alert_buffer = 2;
  cfg.recovery_buffer = 2;
  const RecoveryStg stg(cfg);
  const auto text = stg.describe();
  EXPECT_NE(text.find("N ->"), std::string::npos);
  EXPECT_NE(text.find("lambda=1"), std::string::npos);
}

// Property sweep: for every degradation pair the steady state must exist
// and aggregate probabilities must be coherent.
class StgDegradationSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(StgDegradationSweep, SteadyStateCoherent) {
  auto cfg = paper_defaults();
  cfg.alert_buffer = 8;
  cfg.recovery_buffer = 8;
  cfg.f = degradation_by_name(GetParam());
  cfg.g = degradation_by_name(GetParam());
  const RecoveryStg stg(cfg);
  const auto pi = stg.steady_state();
  ASSERT_TRUE(pi.has_value());
  EXPECT_NEAR(stg.normal_probability(*pi) + stg.scan_probability(*pi) +
                  stg.recovery_probability(*pi),
              1.0, 1e-9);
  EXPECT_GE(stg.loss_probability(*pi), 0.0);
  EXPECT_LE(stg.loss_probability(*pi), 1.0);
  EXPECT_LE(stg.expected_alerts(*pi), 8.0);
  EXPECT_LE(stg.expected_units(*pi), 8.0);
}

INSTANTIATE_TEST_SUITE_P(AllDegradations, StgDegradationSweep,
                         ::testing::Values("const", "sqrt", "inv", "inv2", "log",
                                           "lin"));

// Property sweep over lambda: loss probability is monotone non-decreasing
// in the attack rate, and NORMAL probability non-increasing.
class StgLambdaSweep : public ::testing::TestWithParam<double> {};

TEST_P(StgLambdaSweep, MonotoneInLambda) {
  auto cfg = paper_defaults();
  cfg.alert_buffer = 6;
  cfg.recovery_buffer = 6;
  cfg.lambda = GetParam();
  const RecoveryStg low(cfg);
  cfg.lambda = GetParam() + 0.5;
  const RecoveryStg high(cfg);
  const auto pi_low = low.steady_state();
  const auto pi_high = high.steady_state();
  ASSERT_TRUE(pi_low.has_value());
  ASSERT_TRUE(pi_high.has_value());
  EXPECT_LE(low.loss_probability(*pi_low), high.loss_probability(*pi_high) + 1e-9);
  EXPECT_GE(low.normal_probability(*pi_low),
            high.normal_probability(*pi_high) - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(LambdaGrid, StgLambdaSweep,
                         ::testing::Values(0.25, 0.5, 1.0, 1.5, 2.0, 3.0));

}  // namespace
