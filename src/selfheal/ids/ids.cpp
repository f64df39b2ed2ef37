#include "selfheal/ids/ids.hpp"

#include <algorithm>
#include <stdexcept>

namespace selfheal::ids {

std::vector<Alert> IdsSimulator::detect(const engine::SystemLog& log,
                                        util::Rng& rng,
                                        DetectionStats* stats) const {
  DetectionStats local;
  std::vector<Alert> alerts;
  std::vector<engine::InstanceId> missed;

  const auto emit = [&](engine::InstanceId id, double report_time) {
    Alert alert;
    alert.malicious.push_back(id);
    alert.report_time = report_time;
    alerts.push_back(std::move(alert));
    // Imperfect alert transport may deliver the same report twice. The
    // rate guards keep the rng draw sequence identical to the perfect
    // IDS when the imperfection model is off.
    if (config_.duplicate_alert_prob > 0.0 &&
        rng.chance(config_.duplicate_alert_prob)) {
      Alert dup;
      dup.malicious.push_back(id);
      dup.report_time =
          report_time +
          rng.exponential(1.0 / std::max(config_.mean_detection_delay, 1e-9));
      alerts.push_back(std::move(dup));
      ++local.duplicates;
    }
  };
  const auto delay = [&](double mean) {
    return rng.exponential(1.0 / std::max(mean, 1e-9));
  };

  for (const auto& e : log.entries()) {
    if (e.kind == engine::ActionKind::kNormal) {
      // False positive: a benign original instance wrongly reported.
      if (config_.false_positive_rate > 0.0 &&
          rng.chance(config_.false_positive_rate)) {
        ++local.false_positives;
        emit(e.id, static_cast<double>(e.seq) +
                       delay(config_.mean_detection_delay));
      }
      continue;
    }
    if (e.kind != engine::ActionKind::kMalicious) continue;
    if (rng.chance(config_.coverage)) {
      ++local.true_detections;
      emit(e.id,
           static_cast<double>(e.seq) + delay(config_.mean_detection_delay));
    } else if (config_.late_correction_prob > 0.0 &&
               rng.chance(config_.late_correction_prob)) {
      // False negative corrected by a later re-detection.
      ++local.missed;
      ++local.late_corrections;
      emit(e.id, static_cast<double>(e.seq) +
                     delay(config_.mean_detection_delay) +
                     delay(kLateCorrectionMeanDelay));
    } else {
      ++local.missed;
      missed.push_back(e.id);
    }
  }

  if (!missed.empty() && config_.admin_sweep_time >= 0) {
    local.swept = missed.size();
    Alert sweep;
    sweep.malicious = std::move(missed);
    sweep.report_time = config_.admin_sweep_time;
    alerts.push_back(std::move(sweep));
  }

  std::stable_sort(alerts.begin(), alerts.end(),
                   [](const Alert& a, const Alert& b) {
                     return a.report_time < b.report_time;
                   });
  if (stats != nullptr) *stats = local;
  return alerts;
}

bool AlertQueue::push(Alert alert) {
  if (queue_.size() >= capacity_) {
    ++lost_;
    return false;
  }
  queue_.push_back(std::move(alert));
  return true;
}

Alert AlertQueue::pop() {
  if (queue_.empty()) throw std::logic_error("AlertQueue::pop: queue empty");
  Alert front = std::move(queue_.front());
  queue_.pop_front();
  return front;
}

}  // namespace selfheal::ids
