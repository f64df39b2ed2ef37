#include "selfheal/ctmc/recovery_stg.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace selfheal::ctmc {

namespace {
// The scan transition fires from states with a >= 1; the index is the
// number of items the analyzer must reconcile against (at least 1).
int scan_index(const RecoveryStgConfig& cfg, std::size_t a, std::size_t r) {
  switch (cfg.mu_index) {
    case QueueIndex::kAlerts: return static_cast<int>(a);
    case QueueIndex::kUnits: return static_cast<int>(r + 1);
    case QueueIndex::kTotal: return static_cast<int>(a + r);
  }
  return static_cast<int>(a);
}

// The recovery transition fires from states with r >= 1.
int recovery_index(const RecoveryStgConfig& cfg, std::size_t a, std::size_t r) {
  switch (cfg.xi_index) {
    case QueueIndex::kAlerts: return static_cast<int>(a + 1);
    case QueueIndex::kUnits: return static_cast<int>(r);
    case QueueIndex::kTotal: return static_cast<int>(a + r);
  }
  return static_cast<int>(r);
}
}  // namespace

std::vector<linalg::Triplet> recovery_stg_triplets(const RecoveryStgConfig& config) {
  const std::size_t amax = config.alert_buffer;
  const std::size_t rmax = config.recovery_buffer;
  if (amax == 0 || rmax == 0) {
    throw std::invalid_argument("RecoveryStg: buffers must be >= 1");
  }
  // 0 is a legal rate (no such transition); a negative or NaN one would
  // otherwise fail the `> 0` tests below and pass for 0.
  for (const double rate : {config.lambda, config.mu1, config.xi1}) {
    if (!std::isfinite(rate) || rate < 0) {
      throw std::invalid_argument("RecoveryStg: lambda, mu1 and xi1 must be finite and >= 0");
    }
  }
  const auto state_of = [rmax](std::size_t a, std::size_t r) {
    return static_cast<std::uint32_t>(a * (rmax + 1) + r);
  };

  std::vector<linalg::Triplet> triplets;
  triplets.reserve(3 * (amax + 1) * (rmax + 1));
  for (std::size_t a = 0; a <= amax; ++a) {
    for (std::size_t r = 0; r <= rmax; ++r) {
      const auto s = state_of(a, r);
      // Alert arrival; at a == amax the arrival is lost (no transition).
      if (a < amax && config.lambda > 0) {
        triplets.push_back({s, state_of(a + 1, r), config.lambda});
      }
      // Scan: consume one alert, emit one recovery unit; blocked when the
      // recovery buffer is full.
      if (a >= 1 && r < rmax) {
        const int k = scan_index(config, a, r);
        const double mu = config.f(config.mu1, k);
        if (mu > 0) triplets.push_back({s, state_of(a - 1, r + 1), mu});
      }
      // Recovery execution, gated by the scan policy.
      if (r >= 1) {
        const bool enabled = [&] {
          switch (config.policy) {
            case ScanPolicy::kStrict: return a == 0;
            case ScanPolicy::kDrainWhenFull: return a == 0 || r == rmax;
            case ScanPolicy::kConcurrent: return true;
          }
          return false;
        }();
        if (enabled) {
          const int k = recovery_index(config, a, r);
          const double xi = config.g(config.xi1, k);
          if (xi > 0) triplets.push_back({s, state_of(a, r - 1), xi});
        }
      }
    }
  }
  return triplets;
}

std::string recovery_state_label(std::size_t alerts, std::size_t units) {
  // Human-readable names mirroring the paper's N / S:n / R:n labels.
  std::ostringstream name;
  if (alerts == 0 && units == 0) {
    name << "N";
  } else if (alerts > 0) {
    name << "S:" << alerts << "/R:" << units;
  } else {
    name << "R:" << units;
  }
  return name.str();
}

RecoveryStg::RecoveryStg(RecoveryStgConfig config)
    : config_(std::move(config)),
      chain_(Ctmc::from_triplets(
          (config_.alert_buffer + 1) * (config_.recovery_buffer + 1),
          recovery_stg_triplets(config_))) {
  for (std::size_t a = 0; a <= config_.alert_buffer; ++a) {
    for (std::size_t r = 0; r <= config_.recovery_buffer; ++r) {
      chain_.set_state_name(state_of(a, r), recovery_state_label(a, r));
    }
  }
}

std::size_t RecoveryStg::state_of(std::size_t alerts, std::size_t units) const {
  if (alerts > config_.alert_buffer || units > config_.recovery_buffer) {
    throw std::out_of_range("RecoveryStg::state_of: outside buffer bounds");
  }
  return alerts * (config_.recovery_buffer + 1) + units;
}

std::size_t RecoveryStg::alerts_of(std::size_t state) const {
  return state / (config_.recovery_buffer + 1);
}

std::size_t RecoveryStg::units_of(std::size_t state) const {
  return state % (config_.recovery_buffer + 1);
}

bool RecoveryStg::is_normal(std::size_t state) const {
  return alerts_of(state) == 0 && units_of(state) == 0;
}

bool RecoveryStg::is_scan(std::size_t state) const { return alerts_of(state) > 0; }

bool RecoveryStg::is_recovery(std::size_t state) const {
  return alerts_of(state) == 0 && units_of(state) > 0;
}

bool RecoveryStg::is_loss_edge(std::size_t state) const {
  return alerts_of(state) == config_.alert_buffer;
}

bool RecoveryStg::is_recovery_full(std::size_t state) const {
  return units_of(state) == config_.recovery_buffer;
}

namespace {
template <typename Pred>
double sum_where(const Vector& pi, std::size_t n, Pred pred) {
  double acc = 0.0;
  for (std::size_t s = 0; s < n; ++s) {
    if (pred(s)) acc += pi[s];
  }
  return acc;
}
}  // namespace

double RecoveryStg::normal_probability(const Vector& pi) const {
  return sum_where(pi, state_count(), [&](std::size_t s) { return is_normal(s); });
}

double RecoveryStg::scan_probability(const Vector& pi) const {
  return sum_where(pi, state_count(), [&](std::size_t s) { return is_scan(s); });
}

double RecoveryStg::recovery_probability(const Vector& pi) const {
  return sum_where(pi, state_count(), [&](std::size_t s) { return is_recovery(s); });
}

double RecoveryStg::loss_probability(const Vector& pi) const {
  return sum_where(pi, state_count(), [&](std::size_t s) { return is_loss_edge(s); });
}

double RecoveryStg::recovery_full_probability(const Vector& pi) const {
  return sum_where(pi, state_count(),
                   [&](std::size_t s) { return is_recovery_full(s); });
}

double RecoveryStg::expected_alerts(const Vector& pi) const {
  double acc = 0.0;
  for (std::size_t s = 0; s < state_count(); ++s) {
    acc += pi[s] * static_cast<double>(alerts_of(s));
  }
  return acc;
}

double RecoveryStg::expected_units(const Vector& pi) const {
  double acc = 0.0;
  for (std::size_t s = 0; s < state_count(); ++s) {
    acc += pi[s] * static_cast<double>(units_of(s));
  }
  return acc;
}

Vector RecoveryStg::start_normal() const {
  Vector pi(state_count(), 0.0);
  pi[state_of(0, 0)] = 1.0;
  return pi;
}

std::optional<double> RecoveryStg::mean_time_to_loss() const {
  std::vector<bool> target(state_count(), false);
  for (std::size_t s = 0; s < state_count(); ++s) target[s] = is_loss_edge(s);
  const auto h = chain_.expected_hitting_time(target);
  if (!h) return std::nullopt;
  return (*h)[state_of(0, 0)];
}

bool RecoveryStg::epsilon_convergent(double epsilon) const {
  const auto pi = steady_state();
  if (!pi) return false;
  return loss_probability(*pi) <= epsilon;
}

std::string RecoveryStg::describe() const {
  std::ostringstream out;
  out << "RecoveryStg: " << (config_.alert_buffer + 1) << " x "
      << (config_.recovery_buffer + 1) << " grid, lambda=" << config_.lambda
      << ", mu1=" << config_.mu1 << ", xi1=" << config_.xi1 << "\n";
  for (std::size_t s = 0; s < state_count(); ++s) {
    bool any = false;
    for (const auto& edge : chain_.transitions_from(s)) {
      if (edge.value <= 0) continue;
      if (!any) {
        out << chain_.state_name(s) << " ->";
        any = true;
      }
      out << "  " << chain_.state_name(edge.col) << " @" << edge.value;
    }
    if (any) out << "\n";
  }
  return out.str();
}

}  // namespace selfheal::ctmc
