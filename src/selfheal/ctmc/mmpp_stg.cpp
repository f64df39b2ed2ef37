#include "selfheal/ctmc/mmpp_stg.hpp"

#include <cmath>
#include <stdexcept>

namespace selfheal::ctmc {

namespace {

// Each mode's Fig. 3 STG (with its own attack rate) embedded at a mode
// offset, plus the mode-switching coupling -- all as triplets, so the
// product chain is built in O(nnz) without an intermediate dense copy.
std::vector<linalg::Triplet> mmpp_triplets(const RecoveryStgConfig& base,
                                           const BurstModel& burst,
                                           std::size_t per_mode) {
  for (const double rate : {burst.quiet_to_burst, burst.burst_to_quiet}) {
    if (!std::isfinite(rate) || rate <= 0) {
      throw std::invalid_argument("MmppRecoveryStg: switching rates must be finite and > 0");
    }
  }
  for (const double rate : {burst.lambda_quiet, burst.lambda_burst}) {
    if (!std::isfinite(rate) || rate < 0) {
      throw std::invalid_argument(
          "MmppRecoveryStg: attack rates must be finite and >= 0");
    }
  }
  std::vector<linalg::Triplet> triplets;
  for (int mode = 0; mode < 2; ++mode) {
    RecoveryStgConfig mode_config = base;
    mode_config.lambda = mode == 0 ? burst.lambda_quiet : burst.lambda_burst;
    const auto offset = static_cast<std::uint32_t>(mode) *
                        static_cast<std::uint32_t>(per_mode);
    for (const auto& t : recovery_stg_triplets(mode_config)) {
      triplets.push_back({t.row + offset, t.col + offset, t.value});
    }
  }
  for (std::uint32_t s = 0; s < per_mode; ++s) {
    const auto burst_s = s + static_cast<std::uint32_t>(per_mode);
    triplets.push_back({s, burst_s, burst.quiet_to_burst});
    triplets.push_back({burst_s, s, burst.burst_to_quiet});
  }
  return triplets;
}

}  // namespace

MmppRecoveryStg::MmppRecoveryStg(RecoveryStgConfig base, BurstModel burst)
    : base_(base), burst_(burst),
      per_mode_((base.alert_buffer + 1) * (base.recovery_buffer + 1)),
      chain_(Ctmc::from_triplets(2 * per_mode_,
                                 mmpp_triplets(base, burst, per_mode_))) {
  for (int mode = 0; mode < 2; ++mode) {
    const auto offset = static_cast<std::size_t>(mode) * per_mode_;
    for (std::size_t s = 0; s < per_mode_; ++s) {
      const auto alerts = s / (base_.recovery_buffer + 1);
      const auto units = s % (base_.recovery_buffer + 1);
      chain_.set_state_name(offset + s, std::string(mode == 0 ? "Q|" : "B|") +
                                            recovery_state_label(alerts, units));
    }
  }
}

std::size_t MmppRecoveryStg::state_of(int mode, std::size_t alerts,
                                      std::size_t units) const {
  if (mode < 0 || mode > 1 || alerts > base_.alert_buffer ||
      units > base_.recovery_buffer) {
    throw std::out_of_range("MmppRecoveryStg::state_of");
  }
  return static_cast<std::size_t>(mode) * per_mode_ +
         alerts * (base_.recovery_buffer + 1) + units;
}

template <typename Pred>
double MmppRecoveryStg::sum_where(const Vector& pi, Pred pred) const {
  double acc = 0.0;
  for (std::size_t s = 0; s < state_count(); ++s) {
    const auto within = s % per_mode_;
    const auto alerts = within / (base_.recovery_buffer + 1);
    const auto units = within % (base_.recovery_buffer + 1);
    const int mode = s < per_mode_ ? 0 : 1;
    if (pred(mode, alerts, units)) acc += pi[s];
  }
  return acc;
}

double MmppRecoveryStg::normal_probability(const Vector& pi) const {
  return sum_where(pi, [](int, std::size_t a, std::size_t r) {
    return a == 0 && r == 0;
  });
}

double MmppRecoveryStg::loss_probability(const Vector& pi) const {
  const auto amax = base_.alert_buffer;
  return sum_where(pi, [amax](int, std::size_t a, std::size_t) { return a == amax; });
}

double MmppRecoveryStg::burst_probability(const Vector& pi) const {
  return sum_where(pi, [](int mode, std::size_t, std::size_t) { return mode == 1; });
}

std::optional<double> MmppRecoveryStg::mean_time_to_loss() const {
  std::vector<bool> target(state_count(), false);
  const auto amax = base_.alert_buffer;
  for (std::size_t s = 0; s < state_count(); ++s) {
    const auto within = s % per_mode_;
    if (within / (base_.recovery_buffer + 1) == amax) target[s] = true;
  }
  const auto h = chain_.expected_hitting_time(target);
  if (!h) return std::nullopt;
  return (*h)[state_of(0, 0, 0)];
}

}  // namespace selfheal::ctmc
