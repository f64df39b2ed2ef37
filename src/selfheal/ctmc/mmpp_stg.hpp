// Bursty attack arrivals: a Markov-modulated Poisson process over the
// recovery STG.
//
// Section IV.D: "intrusions occur sporadically, with long time periods
// where there are no successful attacks, interspersed with short bursts
// of multiple attacks. However, there is still no agreement about what
// probability distribution best describes the intrusions." The paper
// proceeds with a constant rate; this module quantifies what that
// assumption hides. The attack rate is modulated by a 2-state chain
// (QUIET <-> BURST with switching rates), giving a product CTMC over
// (mode, alerts, units). With lambda_quiet == lambda_burst it reduces
// exactly to the paper's model.
#pragma once

#include "selfheal/ctmc/recovery_stg.hpp"

namespace selfheal::ctmc {

struct BurstModel {
  double lambda_quiet = 0.2;   // attack rate in the quiet mode
  double lambda_burst = 4.0;   // attack rate during bursts
  double quiet_to_burst = 0.05;  // rate of entering a burst
  double burst_to_quiet = 0.5;   // rate of leaving it (mean burst = 2 units)

  /// Long-run average attack rate (for like-for-like comparisons with a
  /// constant-rate model).
  [[nodiscard]] double mean_rate() const {
    const double p_burst = quiet_to_burst / (quiet_to_burst + burst_to_quiet);
    return lambda_burst * p_burst + lambda_quiet * (1.0 - p_burst);
  }
};

/// The Figure 3 STG under MMPP arrivals: states (mode, a, r).
class MmppRecoveryStg {
 public:
  /// `base.lambda` is ignored; arrivals follow `burst`.
  MmppRecoveryStg(RecoveryStgConfig base, BurstModel burst);

  [[nodiscard]] const Ctmc& chain() const noexcept { return chain_; }
  [[nodiscard]] const BurstModel& burst() const noexcept { return burst_; }
  [[nodiscard]] std::size_t state_count() const noexcept { return chain_.state_count(); }

  /// State indexing: mode 0 = quiet, 1 = burst.
  [[nodiscard]] std::size_t state_of(int mode, std::size_t alerts,
                                     std::size_t units) const;

  [[nodiscard]] std::optional<Vector> steady_state() const {
    return chain_.steady_state();
  }

  // Aggregates over both modes (same definitions as RecoveryStg).
  [[nodiscard]] double normal_probability(const Vector& pi) const;
  [[nodiscard]] double loss_probability(const Vector& pi) const;
  [[nodiscard]] double burst_probability(const Vector& pi) const;

  /// Expected time from (quiet, NORMAL) to the first lost alert.
  [[nodiscard]] std::optional<double> mean_time_to_loss() const;

 private:
  template <typename Pred>
  [[nodiscard]] double sum_where(const Vector& pi, Pred pred) const;

  RecoveryStgConfig base_;
  BurstModel burst_;
  std::size_t per_mode_;  // states per mode = (A+1)*(R+1)
  Ctmc chain_;
};

}  // namespace selfheal::ctmc
