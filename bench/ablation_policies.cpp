// Ablation of the modeling decisions DESIGN.md calls out:
//   (a) ScanPolicy -- the paper's no-recovery-in-SCAN rule (with forced
//       drain at the full buffer) vs the literal-deadlock variant vs the
//       queueing-network variant the paper says its system is not;
//   (b) QueueIndex -- which queue drives the mu_k / xi_k degradation.
// For each combination we report steady-state NORMAL probability and
// loss probability across attack rates.
#include <cstdio>

#include "selfheal/ctmc/recovery_stg.hpp"
#include "selfheal/util/flags.hpp"
#include "selfheal/util/table.hpp"

using namespace selfheal;

namespace {

const char* policy_name(ctmc::ScanPolicy policy) {
  switch (policy) {
    case ctmc::ScanPolicy::kStrict: return "strict (literal paper)";
    case ctmc::ScanPolicy::kDrainWhenFull: return "drain-when-full (default)";
    case ctmc::ScanPolicy::kConcurrent: return "concurrent (queueing net)";
  }
  return "?";
}

const char* index_name(ctmc::QueueIndex index) {
  switch (index) {
    case ctmc::QueueIndex::kAlerts: return "alerts";
    case ctmc::QueueIndex::kUnits: return "units";
    case ctmc::QueueIndex::kTotal: return "total";
  }
  return "?";
}

}  // namespace

int run(const util::Flags& flags) {
  flags.done();
  std::printf("Ablation: scan policy and degradation indexing\n");
  std::printf("(lambda swept; mu1=15, xi1=20, mu_k=mu1/k, xi_k=xi1/k, buffer=15)\n");

  std::printf("%s", util::banner("(a) scan policy").c_str());
  util::Table policies({"policy", "lambda", "P(NORMAL)", "loss_prob", "solvable"});
  policies.set_precision(4);
  for (const auto policy : {ctmc::ScanPolicy::kStrict, ctmc::ScanPolicy::kDrainWhenFull,
                            ctmc::ScanPolicy::kConcurrent}) {
    for (double lambda : {0.5, 1.0, 2.0}) {
      ctmc::RecoveryStgConfig cfg;
      cfg.lambda = lambda;
      cfg.policy = policy;
      const ctmc::RecoveryStg stg(cfg);
      const auto pi = stg.steady_state();
      if (pi) {
        policies.add(policy_name(policy), lambda, stg.normal_probability(*pi),
                     stg.loss_probability(*pi), "yes");
      } else {
        policies.add(policy_name(policy), lambda, 0.0, 1.0, "NO (absorbing corner)");
      }
    }
  }
  std::printf("%s", policies.render().c_str());

  // The strict policy's absorbing corner is reachable: its expected
  // hitting time from NORMAL is the system's mean time to deadlock.
  {
    ctmc::RecoveryStgConfig cfg;
    cfg.lambda = 2.0;
    cfg.policy = ctmc::ScanPolicy::kStrict;
    const ctmc::RecoveryStg stg(cfg);
    std::vector<bool> corner(stg.state_count(), false);
    corner[stg.state_of(cfg.alert_buffer, cfg.recovery_buffer)] = true;
    if (const auto h = stg.chain().expected_hitting_time(corner)) {
      std::printf("\nstrict policy, lambda=2: mean time from NORMAL to the "
                  "absorbing deadlock corner = %.4g time units\n",
                  (*h)[stg.state_of(0, 0)]);
    }
  }

  std::printf("%s", util::banner("(b) degradation indexing (mu_index x xi_index)").c_str());
  util::Table indexing({"mu_k indexes", "xi_k indexes", "lambda", "P(NORMAL)",
                        "loss_prob"});
  indexing.set_precision(4);
  for (const auto mu_index : {ctmc::QueueIndex::kAlerts, ctmc::QueueIndex::kUnits,
                              ctmc::QueueIndex::kTotal}) {
    for (const auto xi_index : {ctmc::QueueIndex::kUnits, ctmc::QueueIndex::kTotal}) {
      for (double lambda : {1.0, 2.0}) {
        ctmc::RecoveryStgConfig cfg;
        cfg.lambda = lambda;
        cfg.mu_index = mu_index;
        cfg.xi_index = xi_index;
        const ctmc::RecoveryStg stg(cfg);
        const auto pi = stg.steady_state();
        if (!pi) continue;
        indexing.add(index_name(mu_index), index_name(xi_index), lambda,
                     stg.normal_probability(*pi), stg.loss_probability(*pi));
      }
    }
  }
  std::printf("%s", indexing.render().c_str());
  std::printf("\n# Only mu_k indexed by the ALERT queue keeps the paper's lambda=1\n"
              "# 'good system' (P_NORMAL ~ 0.85); the strict policy deadlocks.\n");
  return 0;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, run); }
