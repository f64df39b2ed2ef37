// Cross-validation: the discrete-event simulator vs the analytical CTMC.
//
// Not a figure from the paper, but the evidence that our Figures 4-6
// harness is trustworthy: for each evaluation case, the empirical
// occupancy/loss measured by simulating the actual stochastic process
// must agree with the solved steady state of the RecoveryStg chain.
//
// Supports --metrics-out FILE (JSONL snapshot), --trace-out FILE
// (Chrome trace_event JSON), --metrics-summary.
#include <cstdio>

#include "selfheal/ctmc/recovery_stg.hpp"
#include "selfheal/obs/artifacts.hpp"
#include "selfheal/sim/queueing_sim.hpp"
#include "selfheal/util/table.hpp"

using namespace selfheal;

namespace {

void compare(const char* label, double lambda, double mu1, double xi1,
             std::size_t buffer, double horizon, util::Table& table) {
  ctmc::RecoveryStgConfig cfg;
  cfg.lambda = lambda;
  cfg.mu1 = mu1;
  cfg.xi1 = xi1;
  cfg.f = ctmc::power_decay(1.0);
  cfg.g = ctmc::power_decay(1.0);
  cfg.alert_buffer = buffer;
  cfg.recovery_buffer = buffer;

  const ctmc::RecoveryStg stg(cfg);
  const auto pi = stg.steady_state();

  util::Rng rng(0xc0ffee ^ static_cast<std::uint64_t>(lambda * 1000));
  const auto sim = sim::simulate_queueing(cfg, horizon, rng);

  if (pi) {
    table.add(label, "P(NORMAL)", stg.normal_probability(*pi), sim.p_normal);
    table.add(label, "P(SCAN)", stg.scan_probability(*pi), sim.p_scan);
    table.add(label, "P(RECOVERY)", stg.recovery_probability(*pi), sim.p_recovery);
    table.add(label, "loss_prob", stg.loss_probability(*pi), sim.loss_edge);
    table.add(label, "recovery_full", stg.recovery_full_probability(*pi),
              sim.recovery_full);
    table.add(label, "E[alerts]", stg.expected_alerts(*pi), sim.mean_alerts);
    table.add(label, "E[units]", stg.expected_units(*pi), sim.mean_units);
  }
}

}  // namespace

int run(const util::Flags& flags) {
  obs::init_from_flags(flags);
  flags.done();
  std::printf("DES cross-validation of the CTMC (mu_k=mu1/k, xi_k=xi1/k)\n");
  util::Table table({"case", "metric", "CTMC (analytic)", "DES (simulated)"});
  table.set_precision(4);

  compare("good lambda=0.5", 0.5, 15, 20, 15, 40000, table);
  compare("good lambda=1.0", 1.0, 15, 20, 15, 40000, table);
  compare("overload lambda=2", 2.0, 15, 20, 15, 40000, table);
  compare("poor mu1=2 xi1=3", 1.0, 2, 3, 15, 40000, table);
  compare("small buffer=4", 1.0, 15, 20, 4, 40000, table);

  std::printf("%s", table.render().c_str());
  std::printf("\n# Agreement within Monte-Carlo noise (~1e-2) validates the\n"
              "# generator construction used for Figures 4-6. Near lambda=1 the\n"
              "# chain is bistable (a rarely-entered collapsed regime holds ~1%%\n"
              "# of the steady mass); a finite-horizon simulation from NORMAL\n"
              "# undercounts it, so E[alerts]/E[units] read low there.\n");
  obs::flush_from_flags(flags);
  return 0;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, run); }
