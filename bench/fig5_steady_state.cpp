// Figure 5: impacts on steady-state probability with different lambda,
// mu and xi (Section V.A, Cases 2-4).
//
// Fixed across all cases (as in the paper): mu_k = mu1/k, xi_k = xi1/k,
// buffer size 15.
//   Case 2 (Fig 5a/5b): mu1=15, xi1=20, lambda swept 0..4.
//   Case 3 (Fig 5c/5d): lambda=1, xi1=20, mu1 swept 0..20.
//   Case 4 (Fig 5e/5f): lambda=1, mu1=15, xi1 swept 0..20.
// (a/c/e) report the NORMAL/SCAN/RECOVERY probability distribution and
// the loss probability; (b/d/f) report the expected number of queued IDS
// alerts and recovery-task units.
#include <cstdio>
#include <optional>
#include <vector>

#include "selfheal/ctmc/recovery_stg.hpp"
#include "selfheal/util/flags.hpp"
#include "selfheal/util/table.hpp"
#include "selfheal/util/thread_pool.hpp"

namespace {

using namespace selfheal;

struct SteadyPoint {
  double normal = 0, scan = 0, recovery = 0, loss = 0;
  double e_alerts = 0, e_units = 0;
  bool solvable = false;
};

SteadyPoint solve(double lambda, double mu1, double xi1, std::size_t buffer) {
  SteadyPoint p;
  // lambda == 0 (or a dead analyzer/scheduler) makes the chain reducible;
  // the limit distribution concentrates in the absorbing class. Report
  // the analytic limits instead of failing.
  if (lambda <= 0.0) {
    p = {1.0, 0.0, 0.0, 0.0, 0.0, 0.0, true};
    return p;
  }
  if (mu1 <= 0.0) {
    // Alerts are never processed: the alert queue absorbs at its cap,
    // recovery queue stays empty. All states are SCAN in the limit.
    p = {0.0, 1.0, 0.0, 0.0, static_cast<double>(buffer), 0.0, true};
    return p;
  }
  if (xi1 <= 0.0) {
    // Recovery units are never executed: the recovery queue absorbs at
    // its cap (the right edge), i.e. loss probability 1.
    p = {0.0, 1.0, 0.0, 1.0, static_cast<double>(buffer),
         static_cast<double>(buffer), true};
    return p;
  }

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
  if (!pi) return p;
  p.normal = stg.normal_probability(*pi);
  p.scan = stg.scan_probability(*pi);
  p.recovery = stg.recovery_probability(*pi);
  p.loss = stg.loss_probability(*pi);
  p.e_alerts = stg.expected_alerts(*pi);
  p.e_units = stg.expected_units(*pi);
  p.solvable = true;
  return p;
}

void run_case(const char* title, const char* swept, const std::vector<double>& grid,
              double lambda, double mu1, double xi1, std::size_t buffer,
              const std::string& csv_path, std::size_t threads) {
  std::printf("%s", util::banner(title).c_str());
  util::Table dist({swept, "P(NORMAL)", "P(SCAN)", "P(RECOVERY)", "loss_prob"});
  util::Table expect({swept, "E[alerts]", "E[recovery_units]", "loss_prob"});
  dist.set_precision(4);
  expect.set_precision(4);
  // Solve all sweep points in parallel (independent chains, indexed
  // slots), render sequentially: output is identical for any --threads.
  std::vector<SteadyPoint> points(grid.size());
  util::parallel_for_index(threads, grid.size(), [&](std::size_t i) {
    double l = lambda, m = mu1, x = xi1;
    if (swept[0] == 'l') l = grid[i];
    if (swept[0] == 'm') m = grid[i];
    if (swept[0] == 'x') x = grid[i];
    points[i] = solve(l, m, x, buffer);
  });
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto& p = points[i];
    dist.add(grid[i], p.normal, p.scan, p.recovery, p.loss);
    expect.add(grid[i], p.e_alerts, p.e_units, p.loss);
  }
  std::printf("# probability distribution (paper subfigure a/c/e)\n%s\n",
              dist.render().c_str());
  std::printf("# expected queue lengths (paper subfigure b/d/f)\n%s",
              expect.render().c_str());
  if (!csv_path.empty()) {
    dist.append_csv(csv_path, std::string(title) + " distribution");
    expect.append_csv(csv_path, std::string(title) + " expectations");
  }
}

std::vector<double> grid(double lo, double hi, double step) {
  std::vector<double> g;
  for (double v = lo; v <= hi + 1e-9; v += step) g.push_back(v);
  return g;
}

}  // namespace

int run(const util::Flags& flags) {
  const auto buffer = flags.get_count("buffer", 15);
  const auto threads = flags.get_count("threads", 0);
  const auto csv_path = flags.get("csv", "");
  flags.done();

  std::printf("Figure 5: steady-state behaviour (mu_k=mu1/k, xi_k=xi1/k, buffer=%zu)\n",
              buffer);

  run_case("Figure 5(a,b) / Case 2: sweep lambda, mu1=15, xi1=20", "lambda",
           grid(0.0, 4.0, 0.25), /*lambda=*/0, 15.0, 20.0, buffer, csv_path, threads);
  run_case("Figure 5(c,d) / Case 3: sweep mu1, lambda=1, xi1=20", "mu1",
           grid(0.0, 20.0, 1.0), 1.0, /*mu1=*/0, 20.0, buffer, csv_path, threads);
  run_case("Figure 5(e,f) / Case 4: sweep xi1, lambda=1, mu1=15", "xi1",
           grid(0.0, 20.0, 1.0), 1.0, 15.0, /*xi1=*/0, buffer, csv_path, threads);

  // Shape checks mirrored into EXPERIMENTS.md.
  std::printf("%s", util::banner("shape checks").c_str());
  const auto low = solve(0.9, 15, 20, buffer);
  const auto high = solve(2.0, 15, 20, buffer);
  std::printf("lambda<1 keeps P(NORMAL)>0.8: %s (%.3f)\n",
              low.normal > 0.8 ? "yes" : "NO", low.normal);
  std::printf("lambda=2 collapses P(NORMAL): %s (%.3f) loss=%.3f\n",
              high.normal < 0.2 ? "yes" : "NO", high.normal, high.loss);
  const auto mu15 = solve(1, 15, 20, buffer);
  const auto mu20 = solve(1, 20, 20, buffer);
  std::printf("mu1 past ~15 adds little: %s (P_N %.3f -> %.3f)\n",
              (mu20.normal - mu15.normal) < 0.05 ? "yes" : "NO", mu15.normal,
              mu20.normal);
  return 0;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, run); }
