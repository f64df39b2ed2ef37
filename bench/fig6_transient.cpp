// Figure 6: transient state probability and cumulative time (Section V.B,
// Cases 5 and 6). Both systems start from the NORMAL state.
//
//   Case 5 (Fig 6a/6b): lambda=1, mu1=15, xi1=20, observed for 4 time
//     units -- a "good" system: reaches steady state quickly, loss
//     probability indistinguishable from the x axis.
//   Case 6 (Fig 6c/6d): lambda=1, mu1=2, xi1=3, observed for 100 time
//     units -- a "poor" system (or a good system under ~9x its design
//     attack rate): resists ~5 time units, collapses by ~30, loss
//     probability settles in 0.9-1.0 and ~80% of cumulative time is
//     spent at the right edge of the STG.
#include <cstdio>
#include <string>
#include <vector>

#include "selfheal/ctmc/recovery_stg.hpp"
#include "selfheal/util/flags.hpp"
#include "selfheal/util/table.hpp"
#include "selfheal/util/thread_pool.hpp"

namespace {

using namespace selfheal;

/// One case's rendered stdout plus the tables for CSV export; cases are
/// computed in parallel and emitted in order, keeping output identical
/// for any --threads value.
struct CaseOutput {
  std::string text;
  util::Table dist{{"t"}};
  util::Table cumulative{{"t"}};
  std::string title;
};

CaseOutput run_case(const char* title, double lambda, double mu1, double xi1,
                    double horizon, const std::vector<double>& times,
                    std::size_t buffer) {
  ctmc::RecoveryStgConfig cfg;
  cfg.lambda = lambda;
  cfg.mu1 = mu1;
  cfg.xi1 = xi1;
  cfg.f = ctmc::power_decay(1.0);
  cfg.g = ctmc::power_decay(1.0);
  cfg.alert_buffer = buffer;
  cfg.recovery_buffer = buffer;
  const ctmc::RecoveryStg stg(cfg);

  CaseOutput out;
  out.title = title;
  out.text = util::banner(title);

  util::Table dist({"t", "P(NORMAL)", "P(SCAN)", "P(RECOVERY)", "loss_prob",
                    "E[alerts]", "E[units]"});
  dist.set_precision(4);
  const auto series = stg.chain().transient_series(stg.start_normal(), times);
  for (std::size_t i = 0; i < times.size(); ++i) {
    const auto& pi = series[i];
    dist.add(times[i], stg.normal_probability(pi), stg.scan_probability(pi),
             stg.recovery_probability(pi), stg.loss_probability(pi),
             stg.expected_alerts(pi), stg.expected_units(pi));
  }
  out.text += "# transient probability distribution (paper subfigure a/c)\n" +
              dist.render() + "\n";

  // Cumulative time spent per state class (paper subfigure b/d).
  util::Table cumulative({"t", "time_NORMAL", "time_SCAN", "time_RECOVERY",
                          "time_loss_edge", "loss_edge_fraction"});
  cumulative.set_precision(4);
  ctmc::Vector pi = stg.start_normal();
  ctmc::Vector l(stg.state_count(), 0.0);
  double now = 0.0;
  for (double t : times) {
    const auto acc = stg.chain().accumulate(pi, t - now, 1e-2);
    pi = acc.pi;
    for (std::size_t s = 0; s < l.size(); ++s) l[s] += acc.l[s];
    now = t;
    double t_normal = 0, t_scan = 0, t_recovery = 0, t_edge = 0;
    for (std::size_t s = 0; s < l.size(); ++s) {
      if (stg.is_normal(s)) t_normal += l[s];
      if (stg.is_scan(s)) t_scan += l[s];
      if (stg.is_recovery(s)) t_recovery += l[s];
      if (stg.is_loss_edge(s)) t_edge += l[s];
    }
    cumulative.add(t, t_normal, t_scan, t_recovery, t_edge, t > 0 ? t_edge / t : 0.0);
  }
  out.text += "# cumulative time per state class (paper subfigure b/d)\n" +
              cumulative.render();

  // Shape summary, plus the exact first-passage answer to the paper's
  // "how long the system can resist" question.
  char line[160];
  const auto steady = stg.steady_state();
  if (steady) {
    const auto& last = series.back();
    std::snprintf(line, sizeof line,
                  "\nconverged to steady state by t=%g: P_N %.4f vs steady %.4f\n",
                  horizon, stg.normal_probability(last),
                  stg.normal_probability(*steady));
    out.text += line;
  }
  if (const auto mttl = stg.mean_time_to_loss()) {
    std::snprintf(line, sizeof line,
                  "mean time from NORMAL to the first lost alert: %.4g time units\n",
                  *mttl);
    out.text += line;
  }
  out.dist = std::move(dist);
  out.cumulative = std::move(cumulative);
  return out;
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

  std::printf("Figure 6: transient behaviour starting from NORMAL (buffer=%zu)\n",
              buffer);

  // The two cases are independent chains; run them in parallel and emit
  // in order (stdout and CSV appends stay sequential and deterministic).
  std::vector<CaseOutput> cases(2);
  util::parallel_for_index(threads, cases.size(), [&](std::size_t i) {
    if (i == 0) {
      cases[0] = run_case(
          "Figure 6(a,b) / Case 5: good system (lambda=1, mu1=15, xi1=20), 4 time units",
          1.0, 15.0, 20.0, 4.0, grid(0.25, 4.0, 0.25), buffer);
    } else {
      cases[1] = run_case(
          "Figure 6(c,d) / Case 6: poor system (lambda=1, mu1=2, xi1=3), 100 time units",
          1.0, 2.0, 3.0, 100.0, grid(5.0, 100.0, 5.0), buffer);
    }
  });

  for (const auto& c : cases) {
    std::printf("%s", c.text.c_str());
    if (!csv_path.empty()) {
      c.dist.append_csv(csv_path, c.title + " transient");
      c.cumulative.append_csv(csv_path, c.title + " cumulative");
    }
  }
  return 0;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, run); }
