// Section VI: "Guidelines for designing a system", executed end to end.
//
// For each target attack rate lambda the procedure is:
//   step 1  evaluate mu_k and xi_k for the candidate algorithms
//           (degradation families from fast to slow);
//   step 2  increase the recovery-task buffer from 2 until the loss
//           probability stops improving; check epsilon;
//   step 3  if infeasible, move to the next (slower-degrading) design;
//   step 4  size the alert buffer from the transient response to the
//           desired peak rate.
// The output reports, per lambda, which design first satisfies the
// epsilon target, reproducing the paper's design-space conclusions
// (improve mu1/xi1 OR flatten the degradation and grow the buffer).
#include <cstdio>
#include <string>
#include <vector>

#include "selfheal/ctmc/recovery_stg.hpp"
#include "selfheal/util/flags.hpp"
#include "selfheal/util/table.hpp"
#include "selfheal/util/thread_pool.hpp"

using namespace selfheal;

namespace {

struct BufferChoice {
  std::size_t buffer = 0;
  double loss = 1.0;
};

BufferChoice best_buffer(double lambda, double mu1, double xi1, const char* family) {
  BufferChoice best;
  double previous = 1.0;
  for (std::size_t buffer = 2; buffer <= 30; ++buffer) {
    ctmc::RecoveryStgConfig cfg;
    cfg.lambda = lambda;
    cfg.mu1 = mu1;
    cfg.xi1 = xi1;
    cfg.f = ctmc::degradation_by_name(family);
    cfg.g = ctmc::degradation_by_name(family);
    cfg.alert_buffer = buffer;
    cfg.recovery_buffer = buffer;
    const ctmc::RecoveryStg stg(cfg);
    const auto pi = stg.steady_state();
    const double loss = pi ? stg.loss_probability(*pi) : 1.0;
    if (loss < best.loss) {
      best.loss = loss;
      best.buffer = buffer;
    }
    if (buffer > 6 && loss > previous * 1.5 && loss > best.loss * 2) break;
    previous = loss;
  }
  return best;
}

double burst_resistance(double lambda_peak, double mu1, double xi1,
                        const char* family, std::size_t buffer) {
  ctmc::RecoveryStgConfig cfg;
  cfg.lambda = lambda_peak;
  cfg.mu1 = mu1;
  cfg.xi1 = xi1;
  cfg.f = ctmc::degradation_by_name(family);
  cfg.g = ctmc::degradation_by_name(family);
  cfg.alert_buffer = buffer;
  cfg.recovery_buffer = buffer;
  const ctmc::RecoveryStg stg(cfg);
  ctmc::Vector pi = stg.start_normal();
  for (double t = 1; t <= 50; t += 1) {
    pi = stg.chain().transient_step(pi, 1.0);
    if (stg.loss_probability(pi) >= 0.05) return t;
  }
  return 50;
}

}  // namespace

int run(const util::Flags& flags) {
  const auto threads = flags.get_count("threads", 0);
  flags.done();
  const double mu1 = 15.0;
  const double xi1 = 20.0;
  const double epsilon = 0.01;
  const std::vector<const char*> designs{"inv2", "inv", "sqrt", "log"};
  const std::vector<double> lambdas{0.5, 1.0, 1.5, 2.0};

  std::printf("Section VI design procedure (mu1=%g, xi1=%g, epsilon=%g)\n", mu1,
              xi1, epsilon);

  // The (lambda, design) buffer searches are independent: solve the
  // whole grid once in parallel; steps 1-4 below all read from it, so
  // no point is ever solved twice and output order is fixed.
  std::vector<BufferChoice> grid(lambdas.size() * designs.size());
  util::parallel_for_index(threads, grid.size(), [&](std::size_t idx) {
    grid[idx] = best_buffer(lambdas[idx / designs.size()], mu1, xi1,
                            designs[idx % designs.size()]);
  });
  const auto choice_at = [&](std::size_t li, std::size_t di) -> const BufferChoice& {
    return grid[li * designs.size() + di];
  };

  std::printf("%s", util::banner("step 1+2: buffer sizing per design family").c_str());
  util::Table sweep({"lambda", "design (mu_k=xi_k)", "best buffer", "loss",
                     "meets epsilon"});
  sweep.set_precision(4);
  for (std::size_t li = 0; li < lambdas.size(); ++li) {
    for (std::size_t di = 0; di < designs.size(); ++di) {
      const auto& choice = choice_at(li, di);
      sweep.add(lambdas[li], ctmc::degradation_label(designs[di]), choice.buffer,
                choice.loss, choice.loss <= epsilon ? "yes" : "");
    }
  }
  std::printf("%s", sweep.render().c_str());

  std::printf("%s", util::banner("step 3: first feasible design per lambda").c_str());
  util::Table feasible({"lambda", "first feasible design", "buffer", "loss"});
  feasible.set_precision(4);
  for (std::size_t li = 0; li < lambdas.size(); ++li) {
    bool found = false;
    for (std::size_t di = 0; di < designs.size(); ++di) {
      const auto& choice = choice_at(li, di);
      if (choice.loss <= epsilon) {
        feasible.add(lambdas[li], ctmc::degradation_label(designs[di]),
                     choice.buffer, choice.loss);
        found = true;
        break;
      }
    }
    if (!found) feasible.add(lambdas[li], "(none: improve mu1/xi1)", 0, 1.0);
  }
  std::printf("%s", feasible.render().c_str());

  std::printf("%s", util::banner("step 4: alert-buffer sizing for bursts").c_str());
  util::Table burst({"design", "buffer", "time to 5% loss at 3x lambda=1",
                     "mean time to first lost alert"});
  const std::vector<const char*> burst_designs{"inv", "sqrt"};
  struct BurstRow {
    std::size_t buffer = 0;
    double resist = 0.0, mttl = -1.0;
  };
  std::vector<BurstRow> burst_rows(burst_designs.size());
  util::parallel_for_index(threads, burst_designs.size(), [&](std::size_t i) {
    const auto* family = burst_designs[i];
    // lambdas[1] == 1.0 and designs[i + 1] == burst_designs[i].
    const auto& choice = choice_at(1, i + 1);
    ctmc::RecoveryStgConfig cfg;
    cfg.lambda = 3.0;
    cfg.mu1 = mu1;
    cfg.xi1 = xi1;
    cfg.f = ctmc::degradation_by_name(family);
    cfg.g = ctmc::degradation_by_name(family);
    cfg.alert_buffer = std::max<std::size_t>(choice.buffer, 2);
    cfg.recovery_buffer = cfg.alert_buffer;
    const auto mttl = ctmc::RecoveryStg(cfg).mean_time_to_loss();
    burst_rows[i] = {choice.buffer,
                     burst_resistance(3.0, mu1, xi1, family, choice.buffer),
                     mttl ? *mttl : -1.0};
  });
  for (std::size_t i = 0; i < burst_designs.size(); ++i) {
    burst.add(ctmc::degradation_label(burst_designs[i]), burst_rows[i].buffer,
              burst_rows[i].resist, burst_rows[i].mttl);
  }
  std::printf("%s", burst.render().c_str());
  std::printf("\n# Slower degradation tolerates bigger buffers and longer bursts;\n"
              "# fast degradation must rely on raw mu1/xi1 (paper, Section VI).\n");
  return 0;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, run); }
