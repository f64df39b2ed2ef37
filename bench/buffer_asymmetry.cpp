// Asymmetric buffer sizing (Sections IV.E and VI).
//
// The paper argues: the recovery-task buffer determines the system's
// overall performance; the alert buffer "may be less than the buffer
// size of recovery tasks according to its expected value", but a bigger
// alert buffer helps cache peak traffic -- and shrinking it "saves
// little space". This bench solves the full (alert buffer x recovery
// buffer) grid and reports steady-state loss probability plus the mean
// time to the first lost alert under a burst.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "selfheal/ctmc/recovery_stg.hpp"
#include "selfheal/util/flags.hpp"
#include "selfheal/util/table.hpp"
#include "selfheal/util/thread_pool.hpp"

using namespace selfheal;

namespace {

ctmc::RecoveryStg make(double lambda, std::size_t alert_buffer,
                       std::size_t recovery_buffer) {
  ctmc::RecoveryStgConfig cfg;
  cfg.lambda = lambda;
  cfg.mu1 = 15.0;
  cfg.xi1 = 20.0;
  cfg.f = ctmc::power_decay(1.0);
  cfg.g = ctmc::power_decay(1.0);
  cfg.alert_buffer = alert_buffer;
  cfg.recovery_buffer = recovery_buffer;
  return ctmc::RecoveryStg(cfg);
}

}  // namespace

int run(const util::Flags& flags) {
  const auto threads = flags.get_count("threads", 0);
  flags.done();

  std::printf("Asymmetric buffers: steady-state loss probability at lambda=1\n");
  std::printf("(rows: alert buffer, columns: recovery buffer; mu1=15, xi1=20, "
              "mu_k=mu1/k, xi_k=xi1/k)\n\n");

  const std::vector<std::size_t> sizes{2, 4, 8, 12, 16};
  std::vector<std::string> headers{"alert \\ recovery"};
  for (const auto r : sizes) headers.push_back(std::to_string(r));
  util::Table grid(headers);
  grid.set_precision(3);
  // Solve the full (alert x recovery) grid in parallel, render in order.
  std::vector<double> loss(sizes.size() * sizes.size());
  util::parallel_for_index(threads, loss.size(), [&](std::size_t idx) {
    const auto stg =
        make(1.0, sizes[idx / sizes.size()], sizes[idx % sizes.size()]);
    const auto pi = stg.steady_state();
    loss[idx] = pi ? stg.loss_probability(*pi) : 1.0;
  });
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::vector<std::string> row{std::to_string(sizes[i])};
    for (std::size_t j = 0; j < sizes.size(); ++j) {
      char cell[32];
      std::snprintf(cell, sizeof cell, "%.2e", loss[i * sizes.size() + j]);
      row.push_back(cell);
    }
    grid.add_row(row);
  }
  std::printf("%s", grid.render().c_str());

  std::printf("\nBurst absorption: mean time from NORMAL to the first lost alert "
              "at lambda=3\n\n");
  util::Table burst({"alert buffer", "recovery buffer", "mean time to first loss"});
  burst.set_precision(4);
  const std::vector<std::size_t> burst_recovery{4, 12};
  std::vector<std::optional<double>> mttl(sizes.size() * burst_recovery.size());
  util::parallel_for_index(threads, mttl.size(), [&](std::size_t idx) {
    const auto stg = make(3.0, sizes[idx / burst_recovery.size()],
                          burst_recovery[idx % burst_recovery.size()]);
    mttl[idx] = stg.mean_time_to_loss();
  });
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    for (std::size_t j = 0; j < burst_recovery.size(); ++j) {
      if (const auto t = mttl[i * burst_recovery.size() + j]) {
        burst.add(sizes[i], burst_recovery[j], *t);
      }
    }
  }
  std::printf("%s", burst.render().c_str());
  std::printf(
      "\n# Reading: the ALERT buffer sets the loss floor (losses happen at\n"
      "# its edge) and stretches how long a burst is absorbed before the\n"
      "# first loss (Section IV.E's 'cache peak traffic'), saturating once\n"
      "# the analyzer is the bottleneck. OVERSIZING the recovery buffer\n"
      "# backfires under 1/k degradation -- deep recovery queues slow the\n"
      "# scheduler down (the same effect as Figure 4's rising tail), which\n"
      "# is the paper's 'critical parameter' warning seen from the other\n"
      "# side.\n");
  return 0;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, run); }
