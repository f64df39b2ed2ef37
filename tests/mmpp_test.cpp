#include <gtest/gtest.h>

#include <limits>

#include "selfheal/ctmc/mmpp_stg.hpp"

namespace {

using namespace selfheal::ctmc;

RecoveryStgConfig base_config(std::size_t buffer = 8) {
  RecoveryStgConfig cfg;
  cfg.mu1 = 15.0;
  cfg.xi1 = 20.0;
  cfg.f = power_decay(1.0);
  cfg.g = power_decay(1.0);
  cfg.alert_buffer = buffer;
  cfg.recovery_buffer = buffer;
  return cfg;
}

TEST(BurstModel, MeanRateIsTheModeMix) {
  BurstModel burst;
  burst.lambda_quiet = 1.0;
  burst.lambda_burst = 5.0;
  burst.quiet_to_burst = 1.0;
  burst.burst_to_quiet = 3.0;  // P(burst) = 1/4
  EXPECT_NEAR(burst.mean_rate(), 0.75 * 1.0 + 0.25 * 5.0, 1e-12);
}

TEST(MmppRecoveryStg, GeneratorValidAndIrreducible) {
  BurstModel burst;
  const MmppRecoveryStg mmpp(base_config(), burst);
  EXPECT_FALSE(mmpp.chain().validate().has_value());
  EXPECT_TRUE(mmpp.chain().irreducible());
  EXPECT_EQ(mmpp.state_count(), 2u * 9u * 9u);
  EXPECT_EQ(mmpp.chain().state_name(mmpp.state_of(0, 0, 0)), "Q|N");
  EXPECT_EQ(mmpp.chain().state_name(mmpp.state_of(1, 0, 0)), "B|N");
}

TEST(MmppRecoveryStg, DegenerateBurstEqualsConstantRate) {
  // lambda_quiet == lambda_burst: the marginal over (a, r) must equal the
  // plain STG's steady state regardless of the mode switching.
  BurstModel burst;
  burst.lambda_quiet = 1.0;
  burst.lambda_burst = 1.0;
  const auto cfg = base_config();
  const MmppRecoveryStg mmpp(cfg, burst);
  auto plain_cfg = cfg;
  plain_cfg.lambda = 1.0;
  const RecoveryStg plain(plain_cfg);

  const auto pi_mmpp = mmpp.steady_state();
  const auto pi_plain = plain.steady_state();
  ASSERT_TRUE(pi_mmpp.has_value());
  ASSERT_TRUE(pi_plain.has_value());
  EXPECT_NEAR(mmpp.normal_probability(*pi_mmpp), plain.normal_probability(*pi_plain),
              1e-9);
  EXPECT_NEAR(mmpp.loss_probability(*pi_mmpp), plain.loss_probability(*pi_plain),
              1e-9);
}

TEST(MmppRecoveryStg, BurstinessIncreasesLossAtEqualMeanRate) {
  // Same long-run attack rate, increasing concentration into bursts:
  // the loss probability must not improve.
  const auto cfg = base_config();
  double previous_loss = -1.0;
  for (const double burst_rate : {1.0, 2.0, 4.0, 8.0}) {
    BurstModel burst;
    burst.lambda_burst = burst_rate;
    burst.quiet_to_burst = 0.2;
    burst.burst_to_quiet = 0.8;  // P(burst) = 0.2
    // Solve lambda_quiet so the mean stays 1.0.
    burst.lambda_quiet = (1.0 - 0.2 * burst_rate) / 0.8;
    if (burst.lambda_quiet < 0) break;  // mean no longer reachable
    ASSERT_NEAR(burst.mean_rate(), 1.0, 1e-12);

    const MmppRecoveryStg mmpp(cfg, burst);
    const auto pi = mmpp.steady_state();
    ASSERT_TRUE(pi.has_value());
    const auto loss = mmpp.loss_probability(*pi);
    EXPECT_GE(loss, previous_loss - 1e-12) << "burst rate " << burst_rate;
    previous_loss = loss;
  }
  EXPECT_GT(previous_loss, 0.0);
}

TEST(MmppRecoveryStg, TimeToLossShrinksWithBurstiness) {
  const auto cfg = base_config();
  BurstModel mild;
  mild.lambda_quiet = 0.8;
  mild.lambda_burst = 1.8;
  BurstModel harsh = mild;
  harsh.lambda_burst = 8.0;
  const auto t_mild = MmppRecoveryStg(cfg, mild).mean_time_to_loss();
  const auto t_harsh = MmppRecoveryStg(cfg, harsh).mean_time_to_loss();
  ASSERT_TRUE(t_mild.has_value());
  ASSERT_TRUE(t_harsh.has_value());
  EXPECT_LT(*t_harsh, *t_mild);
}

TEST(MmppRecoveryStg, BurstOccupancyMatchesModulator) {
  BurstModel burst;
  burst.quiet_to_burst = 0.3;
  burst.burst_to_quiet = 0.7;
  const MmppRecoveryStg mmpp(base_config(4), burst);
  const auto pi = mmpp.steady_state();
  ASSERT_TRUE(pi.has_value());
  // The modulating chain is independent of the queue dynamics.
  EXPECT_NEAR(mmpp.burst_probability(*pi), 0.3 / (0.3 + 0.7), 1e-9);
}

TEST(MmppRecoveryStg, RejectsNonPositiveSwitchingRates) {
  BurstModel burst;
  burst.quiet_to_burst = 0.0;
  EXPECT_THROW(MmppRecoveryStg(base_config(2), burst), std::invalid_argument);
}

TEST(MmppRecoveryStg, RejectsNegativeOrNonFiniteBurstRates) {
  // A NaN rate passes a `<= 0` test; it must be refused, not dropped
  // from the chain with its edges.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double BurstModel::*rate : {&BurstModel::lambda_quiet, &BurstModel::lambda_burst,
                                   &BurstModel::quiet_to_burst, &BurstModel::burst_to_quiet}) {
    for (const double bad : {-1.0, nan, inf}) {
      BurstModel burst;
      burst.*rate = bad;
      EXPECT_THROW(MmppRecoveryStg(base_config(2), burst), std::invalid_argument) << bad;
    }
  }
  // An attack rate of 0 stays legal in either mode.
  BurstModel quiet;
  quiet.lambda_quiet = 0.0;
  EXPECT_NO_THROW(MmppRecoveryStg(base_config(2), quiet));
  // The base config's mu1 and xi1 are checked per mode.
  auto cfg = base_config(2);
  cfg.mu1 = nan;
  EXPECT_THROW(MmppRecoveryStg(cfg, BurstModel{}), std::invalid_argument);
}

}  // namespace
