// Capacity planning with the CTMC model: the paper's Section VI design
// guidelines, run exactly as a system designer would.
//
// Given a target attack rate lambda and a target epsilon-convergence,
//   1. evaluate mu_k / xi_k for the candidate analyzer+scheduler design
//      (here: measured from the REAL analyzer/scheduler via the
//      full-system simulator, plus two postulated alternatives);
//   2. grow the recovery-task buffer from 2 until the loss probability
//      stops improving, and check whether epsilon is reachable;
//   3. if not, redesign (pick the slower-degrading algorithm family) and
//      repeat;
//   4. size the alert buffer for the expected peak by inspecting the
//      transient response from the NORMAL state.
//
//   $ ./capacity_planning [--lambda 1.0] [--epsilon 0.01]
#include <cstdio>
#include <map>

#include "selfheal/ctmc/recovery_stg.hpp"
#include "selfheal/sim/system_sim.hpp"
#include "selfheal/util/flags.hpp"
#include "selfheal/util/table.hpp"

using namespace selfheal;

namespace {

/// Degradation backed by a measured k -> rate table (nearest lower k,
/// scaled to the design's base rate).
ctmc::Degradation measured_table(const std::map<int, double>& rates) {
  return [rates](double base, int k) {
    if (rates.empty()) return base;
    double at_1 = rates.count(1) ? rates.at(1) : rates.begin()->second;
    double at_k = at_1;
    for (const auto& [queue, rate] : rates) {
      if (queue <= k) at_k = rate;
    }
    return base * (at_k / at_1);
  };
}

struct DesignResult {
  std::size_t buffer = 0;
  double loss = 1.0;
  bool feasible = false;
};

DesignResult size_buffer(double lambda, double epsilon, double mu1, double xi1,
                         const ctmc::Degradation& f, const ctmc::Degradation& g,
                         util::Table& table) {
  DesignResult best;
  double previous_loss = 1.0;
  for (std::size_t buffer = 2; buffer <= 30; ++buffer) {
    ctmc::RecoveryStgConfig cfg;
    cfg.lambda = lambda;
    cfg.mu1 = mu1;
    cfg.xi1 = xi1;
    cfg.f = f;
    cfg.g = g;
    cfg.alert_buffer = buffer;
    cfg.recovery_buffer = buffer;
    const ctmc::RecoveryStg stg(cfg);
    const auto pi = stg.steady_state();
    const double loss = pi ? stg.loss_probability(*pi) : 1.0;
    table.add(buffer, loss, loss <= epsilon ? "yes" : "");
    if (loss < best.loss) {
      best.loss = loss;
      best.buffer = buffer;
    }
    // Stop once the loss has clearly turned upward (Section VI step 2).
    if (buffer > 6 && loss > previous_loss * 1.5 && loss > best.loss * 2) break;
    previous_loss = loss;
  }
  best.feasible = best.loss <= epsilon;
  return best;
}

}  // namespace

int run(const util::Flags& flags) {
  const double lambda = flags.get_double("lambda", 1.0);
  const double epsilon = flags.get_double("epsilon", 0.01);
  flags.done();

  std::printf("design target: lambda = %g attacks/unit, epsilon = %g\n", lambda,
              epsilon);

  // --- Step 1: evaluate the real analyzer/scheduler degradation.
  std::printf("%s", util::banner("step 1: measure mu_k / xi_k of the real system").c_str());
  sim::SystemSimConfig sim_cfg;
  sim_cfg.attack_rate = lambda;
  sim_cfg.horizon = 120.0;
  sim_cfg.seed = 2024;
  const auto measured = sim::run_system_sim(sim_cfg);
  util::Table rate_table({"k (queued units)", "measured mu_k", "measured xi_k"});
  for (int k = 1; k <= 8; ++k) {
    const auto mu = measured.measured_mu.count(k)
                        ? std::to_string(measured.measured_mu.at(k))
                        : std::string("-");
    const auto xi = measured.measured_xi.count(k)
                        ? std::to_string(measured.measured_xi.at(k))
                        : std::string("-");
    rate_table.add(k, mu, xi);
  }
  std::printf("%s", rate_table.render().c_str());
  const double mu1 = measured.measured_mu.count(1) ? measured.measured_mu.at(1) : 15.0;
  const double xi1 = measured.measured_xi.count(1) ? measured.measured_xi.at(1) : 20.0;
  std::printf("base rates: mu1 = %.3g, xi1 = %.3g\n", mu1, xi1);

  // --- Step 2: grow the recovery buffer under the measured degradation.
  std::printf("%s", util::banner("step 2: size the recovery-task buffer").c_str());
  util::Table sweep({"buffer", "loss probability", "meets epsilon"});
  sweep.set_precision(4);
  const auto measured_design =
      size_buffer(lambda, epsilon, mu1, xi1, measured_table(measured.measured_mu),
                  measured_table(measured.measured_xi), sweep);
  std::printf("%s", sweep.render().c_str());

  if (measured_design.feasible) {
    std::printf("\n==> feasible: buffer %zu gives loss %.4g <= epsilon\n",
                measured_design.buffer, measured_design.loss);
  } else {
    // --- Step 3: redesign with slower degradation and compare.
    std::printf("\nnot feasible (best loss %.4g); step 3: redesign algorithms\n",
                measured_design.loss);
    util::Table redesign({"buffer", "loss probability", "meets epsilon"});
    redesign.set_precision(4);
    const auto alt = size_buffer(lambda, epsilon, mu1, xi1, ctmc::power_decay(0.5),
                                 ctmc::power_decay(0.5), redesign);
    std::printf("%s", redesign.render().c_str());
    std::printf("==> sqrt-degradation design: buffer %zu loss %.4g (%s)\n",
                alt.buffer, alt.loss, alt.feasible ? "feasible" : "still infeasible");
  }

  // --- Step 4: size the alert buffer for a burst at 3x the design rate.
  std::printf("%s", util::banner("step 4: transient check under a 3x burst").c_str());
  ctmc::RecoveryStgConfig burst;
  burst.lambda = 3 * lambda;
  burst.mu1 = mu1;
  burst.xi1 = xi1;
  burst.f = measured_table(measured.measured_mu);
  burst.g = measured_table(measured.measured_xi);
  burst.alert_buffer = std::max<std::size_t>(measured_design.buffer, 4);
  burst.recovery_buffer = burst.alert_buffer;
  const ctmc::RecoveryStg stg(burst);
  util::Table transient({"t", "loss probability", "P(NORMAL)"});
  transient.set_precision(4);
  ctmc::Vector pi = stg.start_normal();
  double previous = 0;
  double resist_until = 0;
  for (double t = 1; t <= 20; t += 1) {
    pi = stg.chain().transient_step(pi, 1.0);
    const double loss = stg.loss_probability(pi);
    transient.add(t, loss, stg.normal_probability(pi));
    if (previous < 0.05 && loss >= 0.05) resist_until = t;
    previous = loss;
  }
  std::printf("%s", transient.render().c_str());
  if (resist_until > 0) {
    std::printf("==> the system resists a 3x burst for ~%.0f time units before "
                "losing alerts\n", resist_until);
  } else {
    std::printf("==> the system absorbs a 3x burst without noticeable loss\n");
  }
  return 0;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, run); }
