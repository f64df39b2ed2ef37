// Figure 3 artifact: dumps the state-transition graph of the recovery
// system (states and transition rates) for a small buffer so the grid
// structure of the paper's STG is visible, plus generator invariants.
#include <cstdio>
#include <string>

#include "selfheal/ctmc/recovery_stg.hpp"
#include "selfheal/util/flags.hpp"
#include "selfheal/util/table.hpp"

using namespace selfheal;

int run(const util::Flags& flags) {

  ctmc::RecoveryStgConfig cfg;
  cfg.lambda = flags.get_double("lambda", 1.0);
  cfg.mu1 = flags.get_double("mu1", 15.0);
  cfg.xi1 = flags.get_double("xi1", 20.0);
  const auto buffer = flags.get_count("buffer", 4);
  flags.done();
  cfg.alert_buffer = buffer;
  cfg.recovery_buffer = buffer;

  const ctmc::RecoveryStg stg(cfg);
  std::printf("%s", util::banner("Figure 3: state transition graph of the recovery system").c_str());
  std::printf("%s\n", stg.describe().c_str());

  const auto problem = stg.chain().validate();
  std::printf("generator valid: %s\n", problem ? problem->c_str() : "yes");
  std::printf("irreducible:     %s\n", stg.chain().irreducible() ? "yes" : "no");
  std::printf("states:          %zu (grid %zux%zu)\n", stg.state_count(),
              cfg.alert_buffer + 1, cfg.recovery_buffer + 1);

  util::Table t({"class", "#states"});
  std::size_t normal = 0, scan = 0, recovery = 0, loss_edge = 0, rec_full = 0;
  for (std::size_t s = 0; s < stg.state_count(); ++s) {
    if (stg.is_normal(s)) ++normal;
    if (stg.is_scan(s)) ++scan;
    if (stg.is_recovery(s)) ++recovery;
    if (stg.is_loss_edge(s)) ++loss_edge;
    if (stg.is_recovery_full(s)) ++rec_full;
  }
  t.add("NORMAL", normal);
  t.add("SCAN", scan);
  t.add("RECOVERY", recovery);
  t.add("loss edge (alert queue full)", loss_edge);
  t.add("recovery buffer full (analyzer blocked)", rec_full);
  std::printf("\n%s", t.render().c_str());
  return 0;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, run); }
