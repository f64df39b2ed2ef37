// Burstiness sensitivity: what the paper's constant-rate assumption
// hides (Section IV.D admits real intrusions arrive in bursts).
//
// We hold the LONG-RUN MEAN attack rate fixed and concentrate it into
// ever-shorter, ever-hotter bursts (a Markov-modulated Poisson process),
// then compare against the constant-rate model the paper evaluates:
// steady-state NORMAL probability, loss probability, and the mean time
// from a quiet NORMAL start to the first lost alert.
#include <cstdio>

#include "selfheal/ctmc/mmpp_stg.hpp"
#include "selfheal/util/flags.hpp"
#include "selfheal/util/table.hpp"

using namespace selfheal;

int run(const util::Flags& flags) {
  flags.done();
  ctmc::RecoveryStgConfig cfg;
  cfg.mu1 = 15.0;
  cfg.xi1 = 20.0;
  cfg.f = ctmc::power_decay(1.0);
  cfg.g = ctmc::power_decay(1.0);
  cfg.alert_buffer = 15;
  cfg.recovery_buffer = 15;

  std::printf("Burstiness sensitivity (mean attack rate fixed at 1.0; P(burst)=0.2)\n");
  std::printf("(mu1=15, xi1=20, buffer 15 -- the paper's 'good system' at lambda=1)\n\n");

  util::Table table({"model", "burst lambda", "quiet lambda", "P(NORMAL)",
                     "loss_prob", "mean time to first loss"});
  table.set_precision(4);

  // Constant-rate baseline (the paper's assumption).
  {
    auto plain_cfg = cfg;
    plain_cfg.lambda = 1.0;
    const ctmc::RecoveryStg plain(plain_cfg);
    const auto pi = plain.steady_state();
    const auto mttl = plain.mean_time_to_loss();
    table.add("constant (paper)", 1.0, 1.0,
              pi ? plain.normal_probability(*pi) : 0.0,
              pi ? plain.loss_probability(*pi) : 1.0, mttl ? *mttl : -1.0);
  }

  for (const double burst_rate : {1.5, 2.0, 3.0, 4.0, 4.9}) {
    ctmc::BurstModel burst;
    burst.lambda_burst = burst_rate;
    burst.quiet_to_burst = 0.2;
    burst.burst_to_quiet = 0.8;  // 20% of time in burst, mean burst 1.25 units
    burst.lambda_quiet = (1.0 - 0.2 * burst_rate) / 0.8;
    const ctmc::MmppRecoveryStg mmpp(cfg, burst);
    const auto pi = mmpp.steady_state();
    const auto mttl = mmpp.mean_time_to_loss();
    table.add("bursty", burst_rate, burst.lambda_quiet,
              pi ? mmpp.normal_probability(*pi) : 0.0,
              pi ? mmpp.loss_probability(*pi) : 1.0, mttl ? *mttl : -1.0);
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\n# Same mean rate, very different outcomes: concentrating attacks\n"
      "# into bursts erodes P(NORMAL) and brings the first loss closer --\n"
      "# a designer sizing buffers from the paper's constant-rate figures\n"
      "# should add headroom for the burstiness of real intrusions\n"
      "# (exactly the Section VI advice on peak rates, now quantified).\n");
  return 0;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, run); }
