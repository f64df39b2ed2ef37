// Sparse-vs-dense parity: the sparse solver stack (banded GTH steady
// state, sparse uniformization, banded-LU hitting times) must reproduce
// the dense witnesses to 1e-9 over a grid of Fig. 3 and MMPP configs --
// including the metastable ones where iterative methods stall. Plus the
// sweep determinism gate: a threads=1 and a threads=8 chaos campaign
// suite must serialise to byte-identical JSON.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "selfheal/chaos/campaign.hpp"
#include "selfheal/ctmc/degradation.hpp"
#include "selfheal/ctmc/mmpp_stg.hpp"
#include "selfheal/ctmc/recovery_stg.hpp"
#include "selfheal/ctmc/sparse_solvers.hpp"

namespace {

using namespace selfheal::ctmc;

struct GridCase {
  const char* name;
  double lambda;
  double mu1;
  double xi1;
  const char* f;
  const char* g;
  std::size_t buffer;
};

// The Fig. 4/5/6 configurations the figures actually sweep: the paper
// point (bistable), the Fig. 4 degradation families at large buffers,
// the lambda extremes of Fig. 5, and a small well-conditioned case.
const GridCase kGrid[] = {
    {"paper-16x16", 1.0, 15.0, 20.0, "inv", "inv", 15},
    {"fig4-inv-b30", 1.0, 15.0, 20.0, "inv", "inv", 30},
    {"fig4-log-b30", 1.0, 15.0, 20.0, "log", "log", 30},
    {"fig4-sqrt-b20", 1.0, 15.0, 20.0, "sqrt", "sqrt", 20},
    {"fig5-collapse", 4.0, 15.0, 20.0, "inv", "inv", 15},
    {"fig5-light-load", 0.25, 15.0, 20.0, "inv", "inv", 6},
    {"const-rates", 2.0, 5.0, 6.0, "const", "const", 10},
};

RecoveryStg make_stg(const GridCase& c) {
  RecoveryStgConfig cfg;
  cfg.lambda = c.lambda;
  cfg.mu1 = c.mu1;
  cfg.xi1 = c.xi1;
  cfg.f = degradation_by_name(c.f);
  cfg.g = degradation_by_name(c.g);
  cfg.alert_buffer = c.buffer;
  cfg.recovery_buffer = c.buffer;
  return RecoveryStg(cfg);
}

double max_diff(const Vector& a, const Vector& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::fabs(a[i] - b[i]));
  }
  return worst;
}

TEST(SparseParity, SteadyStateMatchesDenseGthOnFigureGrid) {
  for (const auto& c : kGrid) {
    const auto stg = make_stg(c);
    const auto sparse = stg.chain().steady_state();
    const auto dense = stg.chain().steady_state_dense();
    ASSERT_TRUE(sparse.has_value()) << c.name;
    ASSERT_TRUE(dense.has_value()) << c.name;
    EXPECT_LE(max_diff(*sparse, *dense), 1e-9) << c.name;
  }
}

TEST(SparseParity, SteadyStateMatchesDenseGthOnMmppGrid) {
  for (const std::size_t buffer : {6, 15}) {
    RecoveryStgConfig base;
    base.alert_buffer = buffer;
    base.recovery_buffer = buffer;
    for (const BurstModel burst :
         {BurstModel{}, BurstModel{0.5, 8.0, 0.1, 1.0}}) {
      const MmppRecoveryStg mmpp(base, burst);
      const auto sparse = mmpp.chain().steady_state();
      const auto dense = mmpp.chain().steady_state_dense();
      ASSERT_TRUE(sparse.has_value()) << "buffer=" << buffer;
      ASSERT_TRUE(dense.has_value()) << "buffer=" << buffer;
      EXPECT_LE(max_diff(*sparse, *dense), 1e-9) << "buffer=" << buffer;
    }
  }
}

TEST(SparseParity, TransientAndCumulativeMatchRk4Witness) {
  // The uniformization path is sparse (apply_generator); RK4 is the
  // dense-free witness integrator. Compare both on mid-sized configs.
  for (const auto& c : {kGrid[0], kGrid[4], kGrid[6]}) {
    const auto stg = make_stg(c);
    const auto pi0 = stg.start_normal();
    const double t = 2.0;
    const auto uni = stg.chain().accumulate(pi0, t, 1e-3);
    const auto rk4 = stg.chain().accumulate_rk4(pi0, t, 1e-4);
    EXPECT_LE(max_diff(uni.pi, rk4.pi), 1e-6) << c.name;
    EXPECT_LE(max_diff(uni.l, rk4.l), 1e-5) << c.name;
    // Cumulative time must sum to the horizon.
    double total = 0.0;
    for (double l : uni.l) total += l;
    EXPECT_NEAR(total, t, 1e-9) << c.name;
  }
}

TEST(SparseParity, TransientSeriesMatchesDenseGeneratorExpansion) {
  // Cross-check the sparse uniformization against an explicit dense
  // left-multiply of the generator witness on a small config.
  const auto stg = make_stg(kGrid[6]);
  const auto& dense_q = stg.chain().generator();
  const auto pi0 = stg.start_normal();
  const auto series = stg.chain().transient_series(pi0, {0.1, 0.5, 1.0});
  ASSERT_EQ(series.size(), 3u);
  for (const auto& pi : series) {
    double mass = 0.0;
    for (double p : pi) mass += p;
    EXPECT_NEAR(mass, 1.0, 1e-12);
  }
  // Balance residual of the long-horizon point must shrink towards the
  // steady state's.
  const auto late = stg.chain().transient_step(pi0, 50.0);
  std::vector<double> flow(dense_q.cols(), 0.0);  // late * Q
  for (std::size_t r = 0; r < dense_q.rows(); ++r) {
    for (std::size_t c = 0; c < dense_q.cols(); ++c) flow[c] += late[r] * dense_q(r, c);
  }
  for (double f : flow) EXPECT_NEAR(f, 0.0, 1e-5);
}

TEST(SparseParity, HittingTimesMatchDenseLuWitness) {
  for (const auto& c : {kGrid[0], kGrid[4], kGrid[5]}) {
    const auto stg = make_stg(c);
    std::vector<bool> target(stg.state_count(), false);
    for (std::size_t s = 0; s < stg.state_count(); ++s) {
      target[s] = stg.is_loss_edge(s);
    }
    const auto sparse = stg.chain().expected_hitting_time(target);
    const auto dense = stg.chain().expected_hitting_time_dense(target);
    ASSERT_TRUE(sparse.has_value()) << c.name;
    ASSERT_TRUE(dense.has_value()) << c.name;
    for (std::size_t s = 0; s < stg.state_count(); ++s) {
      if (std::isinf((*dense)[s])) {
        EXPECT_TRUE(std::isinf((*sparse)[s])) << c.name << " state " << s;
      } else {
        const double scale = std::max(1.0, std::fabs((*dense)[s]));
        EXPECT_LE(std::fabs((*sparse)[s] - (*dense)[s]) / scale, 1e-9)
            << c.name << " state " << s;
      }
    }
  }
}

TEST(SparseParity, SparseOnlyScaleStaysSelfConsistent) {
  // A state space the dense witness cannot touch in test time: verify
  // internal invariants instead (balance residual, normalisation).
  RecoveryStgConfig cfg;
  cfg.alert_buffer = 63;
  cfg.recovery_buffer = 63;  // 4096 states
  const RecoveryStg stg(cfg);
  const auto pi = stg.steady_state();
  ASSERT_TRUE(pi.has_value());
  double mass = 0.0;
  for (double p : *pi) {
    EXPECT_GE(p, 0.0);
    mass += p;
  }
  EXPECT_NEAR(mass, 1.0, 1e-12);
  const auto result = steady_state_banded_gth(stg.chain().sparse());
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result.residual, 1e-12 * stg.chain().max_exit_rate());
}

TEST(SweepDeterminism, CampaignJsonIsByteIdenticalAcrossThreadCounts) {
  const auto base = selfheal::chaos::default_campaign(1);
  const auto one = selfheal::chaos::run_campaigns(1, 12, base, 1);
  const auto eight = selfheal::chaos::run_campaigns(1, 12, base, 8);
  EXPECT_EQ(one.passed, eight.passed);
  EXPECT_EQ(one.failed, eight.failed);
  EXPECT_EQ(one.to_json("./chaos_campaign"), eight.to_json("./chaos_campaign"));
}

}  // namespace
