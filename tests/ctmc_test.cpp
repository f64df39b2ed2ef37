#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <thread>
#include <vector>

#include "selfheal/ctmc/ctmc.hpp"
#include "selfheal/ctmc/degradation.hpp"
#include "selfheal/ctmc/recovery_stg.hpp"

namespace {

using namespace selfheal::ctmc;

// Two-state birth-death chain with rates a (0->1) and b (1->0):
// pi = (b, a) / (a+b); pi0(t) has the closed form
// pi0(t) = b/(a+b) + (pi0(0) - b/(a+b)) e^{-(a+b)t}.
Ctmc two_state(double a, double b) {
  return Ctmc::from_triplets(2, {{0, 1, a}, {1, 0, b}});
}

TEST(Ctmc, GeneratorInvariants) {
  auto c = two_state(2.0, 3.0);
  EXPECT_FALSE(c.validate().has_value());
  EXPECT_DOUBLE_EQ(c.rate(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(c.generator()(0, 0), -2.0);
  EXPECT_DOUBLE_EQ(c.generator()(1, 1), -3.0);
  EXPECT_DOUBLE_EQ(c.max_exit_rate(), 3.0);
}

TEST(Ctmc, FromTripletsSumsDuplicatesAndDropsZeros) {
  const auto c = Ctmc::from_triplets(
      3, {{0, 1, 2.0}, {0, 1, 3.0}, {2, 0, 0.0}, {1, 2, 1.5}, {0, 2, 0.5}, {1, 2, 0.0}});
  EXPECT_DOUBLE_EQ(c.rate(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(c.rate(0, 0), -5.5);  // the diagonal is minus the row sum
  EXPECT_DOUBLE_EQ(c.rate(2, 0), 0.0);
  EXPECT_DOUBLE_EQ(c.rate(2, 2), 0.0);
  EXPECT_EQ(c.nnz(), 3u);  // (0,1) merged, both zero rates dropped
  const auto row = c.transitions_from(0);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0].col, 1u);  // sorted by target
  EXPECT_EQ(row[1].col, 2u);
  EXPECT_TRUE(c.transitions_from(2).empty());
  EXPECT_FALSE(c.validate().has_value());
  EXPECT_EQ(c.state_name(2), "s2");
}

TEST(Ctmc, RejectsBadRates) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)Ctmc::from_triplets(2, {{0, 0, 1.0}}), std::invalid_argument);
  EXPECT_THROW((void)Ctmc::from_triplets(2, {{0, 1, -1.0}}), std::invalid_argument);
  EXPECT_THROW((void)Ctmc::from_triplets(2, {{0, 1, nan}}), std::invalid_argument);
  EXPECT_THROW((void)Ctmc::from_triplets(2, {{0, 1, inf}}), std::invalid_argument);
  EXPECT_THROW((void)Ctmc::from_triplets(2, {{0, 2, 1.0}}), std::out_of_range);
  EXPECT_THROW((void)Ctmc::from_triplets(2, {{2, 0, 1.0}}), std::out_of_range);
  const auto c = two_state(1.0, 1.0);
  EXPECT_THROW((void)c.rate(0, 2), std::out_of_range);
  EXPECT_THROW((void)c.transitions_from(2), std::out_of_range);
}

TEST(Ctmc, IrreducibilityDetection) {
  auto c = two_state(2.0, 3.0);
  EXPECT_TRUE(c.irreducible());
  const auto absorbing = Ctmc::from_triplets(2, {{0, 1, 1.0}});  // no way back
  EXPECT_FALSE(absorbing.irreducible());
}

TEST(Ctmc, SteadyStateTwoStateClosedForm) {
  const auto c = two_state(2.0, 3.0);
  const auto pi = c.steady_state();
  ASSERT_TRUE(pi.has_value());
  EXPECT_NEAR((*pi)[0], 0.6, 1e-12);
  EXPECT_NEAR((*pi)[1], 0.4, 1e-12);
}

TEST(Ctmc, SteadyStateSparseGthMatchesDenseGth) {
  // An arbitrary irreducible 4-state chain.
  const auto c = Ctmc::from_triplets(
      4, {{0, 1, 1.0}, {1, 2, 2.0}, {2, 3, 0.5}, {3, 0, 4.0}, {2, 0, 0.7}, {1, 3, 0.1}});
  const auto sparse = c.steady_state();
  const auto dense = c.steady_state_dense();
  ASSERT_TRUE(sparse.has_value());
  ASSERT_TRUE(dense.has_value());
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR((*sparse)[i], (*dense)[i], 1e-12);
}

TEST(Ctmc, SteadyStateSatisfiesBalance) {
  const auto c =
      Ctmc::from_triplets(3, {{0, 1, 1.5}, {1, 2, 2.5}, {2, 0, 3.5}, {1, 0, 0.5}});
  const auto pi = c.steady_state();
  ASSERT_TRUE(pi.has_value());
  const auto q = c.generator();
  for (std::size_t col = 0; col < 3; ++col) {
    double piq = 0.0;
    for (std::size_t row = 0; row < 3; ++row) piq += (*pi)[row] * q(row, col);
    EXPECT_NEAR(piq, 0.0, 1e-12);
  }
  EXPECT_NEAR((*pi)[0] + (*pi)[1] + (*pi)[2], 1.0, 1e-12);
}

TEST(Ctmc, SteadyStateRefusesReducible) {
  const auto c = Ctmc::from_triplets(2, {{0, 1, 1.0}});
  EXPECT_FALSE(c.steady_state().has_value());
  EXPECT_FALSE(c.steady_state_dense().has_value());
  // No states at all, and two disjoint closed classes (pi Q = 0 has a
  // 2-dimensional solution space): no unique steady state either.
  EXPECT_FALSE(Ctmc::from_triplets(0, {}).steady_state().has_value());
  const auto split =
      Ctmc::from_triplets(4, {{0, 1, 1.0}, {1, 0, 2.0}, {2, 3, 1.0}, {3, 2, 2.0}});
  EXPECT_FALSE(split.steady_state().has_value());
}

TEST(Ctmc, TransientMatchesClosedForm) {
  const double a = 2.0, b = 3.0;
  const auto c = two_state(a, b);
  const Vector pi0{1.0, 0.0};
  for (double t : {0.1, 0.5, 1.0, 2.0, 10.0}) {
    const auto pi = c.transient_step(pi0, t);
    const double expected0 =
        b / (a + b) + (1.0 - b / (a + b)) * std::exp(-(a + b) * t);
    EXPECT_NEAR(pi[0], expected0, 1e-9) << "t=" << t;
    EXPECT_NEAR(pi[0] + pi[1], 1.0, 1e-12);
  }
}

TEST(Ctmc, TransientLongHorizonReachesSteadyState) {
  const auto c = two_state(1.0, 4.0);
  const auto pi = c.transient_step({0.0, 1.0}, 200.0);
  const auto steady = c.steady_state();
  ASSERT_TRUE(steady.has_value());
  EXPECT_NEAR(pi[0], (*steady)[0], 1e-9);
}

TEST(Ctmc, TransientSeriesIsConsistentWithSingleSteps) {
  const auto c = two_state(2.0, 1.0);
  const Vector pi0{0.5, 0.5};
  const auto series = c.transient_series(pi0, {0.25, 0.5, 1.0});
  const auto direct = c.transient_step(pi0, 1.0);
  ASSERT_EQ(series.size(), 3u);
  EXPECT_NEAR(series[2][0], direct[0], 1e-10);
  EXPECT_THROW(c.transient_series(pi0, {1.0, 0.5}), std::invalid_argument);
}

TEST(Ctmc, CumulativeTimeMatchesClosedForm) {
  // Integral of pi0(t): t*b/(a+b) + (1 - b/(a+b)) (1 - e^{-(a+b)t})/(a+b).
  const double a = 2.0, b = 3.0;
  const auto c = two_state(a, b);
  const double t = 2.0;
  const auto acc = c.accumulate({1.0, 0.0}, t, 1e-3);
  const double s = a + b;
  const double expected_l0 =
      t * b / s + (1.0 - b / s) * (1.0 - std::exp(-s * t)) / s;
  EXPECT_NEAR(acc.l[0], expected_l0, 1e-5);
  EXPECT_NEAR(acc.l[0] + acc.l[1], t, 1e-9);  // total time is conserved
}

TEST(Ctmc, Rk4AgreesWithUniformization) {
  const auto c =
      Ctmc::from_triplets(3, {{0, 1, 1.0}, {1, 2, 2.0}, {2, 0, 0.5}, {2, 1, 0.25}});
  const Vector pi0{1.0, 0.0, 0.0};
  const auto uni = c.accumulate(pi0, 3.0, 1e-3);
  const auto rk4 = c.accumulate_rk4(pi0, 3.0, 1e-3);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_NEAR(uni.pi[s], rk4.pi[s], 1e-6);
    EXPECT_NEAR(uni.l[s], rk4.l[s], 1e-5);
  }
}

TEST(Ctmc, ExpectedReward) {
  EXPECT_DOUBLE_EQ(expected_reward({0.25, 0.75}, {4.0, 8.0}), 7.0);
}

TEST(Ctmc, HittingTimeTwoStateClosedForm) {
  // From state 0, the time to first reach state 1 is Exp(a): mean 1/a.
  const auto c = two_state(2.0, 3.0);
  const auto h = c.expected_hitting_time({false, true});
  ASSERT_TRUE(h.has_value());
  EXPECT_NEAR((*h)[0], 0.5, 1e-12);
  EXPECT_DOUBLE_EQ((*h)[1], 0.0);
}

TEST(Ctmc, HittingTimeBirthChainClosedForm) {
  // 0 ->(a) 1 ->(b) 2: expected time 0 -> 2 is 1/a + 1/b.
  const auto c = Ctmc::from_triplets(3, {{0, 1, 4.0}, {1, 2, 5.0}});
  const auto h = c.expected_hitting_time({false, false, true});
  ASSERT_TRUE(h.has_value());
  EXPECT_NEAR((*h)[0], 0.25 + 0.2, 1e-12);
  EXPECT_NEAR((*h)[1], 0.2, 1e-12);
}

TEST(Ctmc, HittingTimeWithBacktracking) {
  // 0 <->(1,1) 1 ->(1) 2: from 0, classic result h0 = 3, h1 = 2.
  const auto c = Ctmc::from_triplets(3, {{0, 1, 1.0}, {1, 0, 1.0}, {1, 2, 1.0}});
  const auto h = c.expected_hitting_time({false, false, true});
  ASSERT_TRUE(h.has_value());
  EXPECT_NEAR((*h)[0], 3.0, 1e-12);
  EXPECT_NEAR((*h)[1], 2.0, 1e-12);
}

TEST(Ctmc, HittingTimeUnreachableIsInfinite) {
  // State 2 is unreachable from 0 and 1.
  const auto c = Ctmc::from_triplets(3, {{0, 1, 1.0}, {1, 0, 1.0}});
  const auto h = c.expected_hitting_time({false, false, true});
  ASSERT_TRUE(h.has_value());
  EXPECT_TRUE(std::isinf((*h)[0]));
  EXPECT_TRUE(std::isinf((*h)[1]));
  EXPECT_DOUBLE_EQ((*h)[2], 0.0);
}

TEST(Ctmc, HittingTimeRejectsSizeMismatch) {
  const auto c = two_state(1.0, 1.0);
  EXPECT_THROW((void)c.expected_hitting_time({true}), std::invalid_argument);
}

TEST(Ctmc, SharedChainIsSafeAcrossThreads) {
  // A const chain is read-only after from_triplets, so threads may share
  // one instead of building a copy each: every concurrent answer must
  // equal the single-thread one exactly.
  RecoveryStgConfig cfg;
  cfg.alert_buffer = 12;
  cfg.recovery_buffer = 12;
  const RecoveryStg stg(cfg);
  std::vector<bool> target(stg.state_count(), false);
  for (std::size_t s = 0; s < stg.state_count(); ++s) target[s] = stg.is_loss_edge(s);
  const auto pi0 = stg.start_normal();

  struct Answers {
    std::optional<Vector> steady;
    std::optional<Vector> hitting;
    Vector transient;
    bool operator==(const Answers&) const = default;
  };
  const auto solve = [&](const Ctmc& chain) {
    return Answers{chain.steady_state(), chain.expected_hitting_time(target),
                   chain.transient_step(pi0, 2.5)};
  };
  const Answers expected = solve(stg.chain());
  ASSERT_TRUE(expected.steady.has_value());
  ASSERT_TRUE(expected.hitting.has_value());

  // A chain no thread has queried yet, so the first calls race.
  const RecoveryStg shared(cfg);
  constexpr int kThreads = 4;
  std::vector<Answers> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        got[static_cast<std::size_t>(t)] = solve(shared.chain());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& answers : got) EXPECT_TRUE(answers == expected);
}

TEST(Degradation, ShapesAndMonotonicity) {
  const auto c = constant_rate();
  EXPECT_DOUBLE_EQ(c(10.0, 1), 10.0);
  EXPECT_DOUBLE_EQ(c(10.0, 9), 10.0);

  const auto inv = power_decay(1.0);
  EXPECT_DOUBLE_EQ(inv(10.0, 1), 10.0);
  EXPECT_DOUBLE_EQ(inv(10.0, 5), 2.0);

  const auto inv2 = power_decay(2.0);
  EXPECT_DOUBLE_EQ(inv2(8.0, 2), 2.0);

  const auto lg = log_decay();
  EXPECT_DOUBLE_EQ(lg(10.0, 1), 10.0);
  EXPECT_LT(lg(10.0, 10), 10.0);
  EXPECT_GT(lg(10.0, 10), inv(10.0, 10));  // log decays slower than 1/k

  const auto lin = linear_decay(0.1, 0.05);
  EXPECT_DOUBLE_EQ(lin(10.0, 1), 10.0);
  EXPECT_NEAR(lin(10.0, 5), 6.0, 1e-12);
  EXPECT_NEAR(lin(10.0, 1000), 0.5, 1e-12);  // floor kicks in
}

TEST(Degradation, ByNameAndLabels) {
  for (const auto* name : {"const", "sqrt", "inv", "inv2", "log", "lin"}) {
    const auto fn = degradation_by_name(name);
    EXPECT_NEAR(fn(5.0, 1), 5.0, 1e-12) << name;
    EXPECT_LE(fn(5.0, 7), 5.0 + 1e-12) << name;
    EXPECT_FALSE(degradation_label(name).empty());
  }
  EXPECT_THROW(degradation_by_name("bogus"), std::invalid_argument);
}

TEST(DegradationProperty, AllFamiliesNonIncreasing) {
  for (const auto* name : {"const", "sqrt", "inv", "inv2", "log", "lin"}) {
    const auto fn = degradation_by_name(name);
    double prev = fn(20.0, 1);
    for (int k = 2; k <= 40; ++k) {
      const double cur = fn(20.0, k);
      EXPECT_LE(cur, prev + 1e-12) << name << " at k=" << k;
      EXPECT_GT(cur, 0.0) << name << " at k=" << k;
      prev = cur;
    }
  }
}

}  // namespace
