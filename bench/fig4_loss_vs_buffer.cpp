// Figure 4: impacts on the loss probability with different buffer size,
// f and g (Section V.A, Case 1).
//
// Paper parameters: lambda = 1, mu1 = 15, xi1 = 20, buffer size swept
// from 2 to 30, with four degradation regimes:
//   (a) slow degradation of mu_k and xi_k  -> loss falls monotonically
//       as buffers grow;
//   (b)/(c) fast degradation               -> loss falls, then RISES as
//       oversized queues degrade processing ("if we allow the queues to
//       be too large, the loss probability will increase");
//   (d) mu_k decreasing faster than xi_k   -> better than the contrary
//       case (c).
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "selfheal/ctmc/recovery_stg.hpp"
#include "selfheal/util/flags.hpp"
#include "selfheal/util/table.hpp"
#include "selfheal/util/thread_pool.hpp"

namespace {

struct Regime {
  const char* figure;
  const char* f_name;  // analyzer degradation mu_k = f(mu1, k)
  const char* g_name;  // scheduler degradation xi_k = g(xi1, k)
  const char* note;
};

double loss_for(std::size_t buffer, const std::string& f_name,
                const std::string& g_name, double lambda, double mu1, double xi1) {
  selfheal::ctmc::RecoveryStgConfig cfg;
  cfg.lambda = lambda;
  cfg.mu1 = mu1;
  cfg.xi1 = xi1;
  cfg.f = selfheal::ctmc::degradation_by_name(f_name);
  cfg.g = selfheal::ctmc::degradation_by_name(g_name);
  cfg.alert_buffer = buffer;
  cfg.recovery_buffer = buffer;
  const selfheal::ctmc::RecoveryStg stg(cfg);
  const auto pi = stg.steady_state();
  if (!pi) return 1.0;  // reducible chain: treat as saturated
  return stg.loss_probability(*pi);
}

}  // namespace

using namespace selfheal;

int run(const util::Flags& flags) {
  const double lambda = flags.get_double("lambda", 1.0);
  const double mu1 = flags.get_double("mu1", 15.0);
  const double xi1 = flags.get_double("xi1", 20.0);
  const auto buf_lo = flags.get_count("from", 2);
  const auto buf_hi = flags.get_count("to", 30);
  const auto threads = flags.get_count("threads", 0);
  const auto csv_path = flags.get("csv", "");
  flags.done();
  if (buf_hi < buf_lo) throw std::invalid_argument("--to is below --from");

  const std::vector<Regime> regimes{
      {"4(a)", "log", "log", "slow degradation: bigger buffers keep helping"},
      {"4(b)", "inv", "inv", "linear degradation: U-shaped loss"},
      {"4(c)", "inv", "inv2", "xi decays faster than mu (worse pairing)"},
      {"4(d)", "inv2", "inv", "mu decays faster than xi (better than 4(c))"},
  };

  // Every (regime, buffer) chain is independent: solve them all in
  // parallel into indexed slots, then render sequentially so the output
  // is byte-identical for any --threads value.
  const std::size_t n_buffers = buf_hi - buf_lo + 1;
  std::vector<double> losses(regimes.size() * n_buffers);
  util::parallel_for_index(threads, losses.size(), [&](std::size_t idx) {
    const auto& regime = regimes[idx / n_buffers];
    const std::size_t buffer = buf_lo + idx % n_buffers;
    losses[idx] = loss_for(buffer, regime.f_name, regime.g_name, lambda, mu1, xi1);
  });

  std::printf("Figure 4: loss probability vs buffer size (lambda=%g, mu1=%g, xi1=%g)\n",
              lambda, mu1, xi1);

  for (std::size_t r = 0; r < regimes.size(); ++r) {
    const auto& regime = regimes[r];
    std::printf("%s", util::banner(std::string("Figure ") + regime.figure + ": mu_k=" +
                                   ctmc::degradation_label(regime.f_name) +
                                   ", xi_k=" +
                                   ctmc::degradation_label(regime.g_name))
                          .c_str());
    std::printf("# %s\n", regime.note);
    util::Table t({"buffer", "loss_probability"});
    t.set_precision(6);
    for (std::size_t i = 0; i < n_buffers; ++i) {
      t.add(buf_lo + i, losses[r * n_buffers + i]);
    }
    std::printf("%s", t.render().c_str());
    if (!csv_path.empty()) {
      t.append_csv(csv_path, std::string("figure-") + regime.figure);
    }
  }

  // Shape summary used by EXPERIMENTS.md (reuses the solved grid).
  std::printf("%s", util::banner("shape checks").c_str());
  auto series = [&](std::size_t r) {
    return std::vector<double>(losses.begin() + static_cast<std::ptrdiff_t>(r * n_buffers),
                               losses.begin() + static_cast<std::ptrdiff_t>((r + 1) * n_buffers));
  };
  const auto a = series(0);
  const auto b = series(1);
  const auto c = series(2);
  const auto d = series(3);

  const bool a_monotone = a.front() > a.back();
  std::size_t b_min_at = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (b[i] < b[b_min_at]) b_min_at = i;
  }
  const bool b_ushaped = b_min_at > 0 && b_min_at + 1 < b.size() && b.back() > b[b_min_at];
  double c_avg = 0, d_avg = 0;
  for (double v : c) c_avg += v;
  for (double v : d) d_avg += v;
  c_avg /= static_cast<double>(c.size());
  d_avg /= static_cast<double>(d.size());

  std::printf("4(a) loss decreases with buffer: %s (%.3g -> %.3g)\n",
              a_monotone ? "yes" : "NO", a.front(), a.back());
  std::printf("4(b) U-shaped (min at buffer=%zu, tail rises): %s\n",
              buf_lo + b_min_at, b_ushaped ? "yes" : "NO");
  std::printf("4(d) better than 4(c) on average: %s (%.4g vs %.4g)\n",
              d_avg < c_avg ? "yes" : "NO", d_avg, c_avg);
  return 0;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, run); }
