// Simulated intrusion detection (substitution for the paper's external
// IDS, Section IV.A).
//
// The IDS periodically reports malicious tasks; it cannot trace damage
// spreading (that is the recovery analyzer's job) and may be late or
// incomplete. The simulator takes the ground-truth malicious instances
// from the system log (entries executed with ActionKind::kMalicious) and
// turns them into timed alerts with configurable delay and coverage.
// Undetected instances are reported by a final "administrator sweep", as
// the paper assumes all corrupted tasks are ultimately identified.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "selfheal/engine/system_log.hpp"
#include "selfheal/util/rng.hpp"

namespace selfheal::ids {

/// One IDS report: a batch of detected malicious instances.
struct Alert {
  std::vector<engine::InstanceId> malicious;
  double report_time = 0.0;  // in the same time unit as commit seq
};

/// Mean of the extra exponential delay before a missed detection is
/// re-detected late (IdsConfig::late_correction_prob).
inline constexpr double kLateCorrectionMeanDelay = 50.0;

struct IdsConfig {
  /// Mean of the exponential detection delay after the malicious commit.
  double mean_detection_delay = 5.0;
  /// Probability that the IDS itself detects a malicious instance.
  double coverage = 1.0;
  /// Time of the administrator sweep that reports anything the IDS
  /// missed (< 0 disables the sweep, modelling permanently missed
  /// attacks -- useful for experiments on IDS dependence).
  double admin_sweep_time = 1e6;

  // --- Imperfection model (chaos harness; all default off) ---

  /// Probability that a BENIGN original instance is wrongly reported as
  /// malicious. False positives cost recovery work (undo + benign redo)
  /// but never correctness: re-executing a benign task over the clean
  /// timeline reproduces its values.
  double false_positive_rate = 0.0;
  /// Probability that a detection is reported a second time later
  /// (duplicate alert). Recovery of an already-repaired instance is
  /// idempotent, so duplicates are safe but must be tolerated.
  double duplicate_alert_prob = 0.0;
  /// A missed detection (coverage miss -- a false negative) is corrected
  /// by a late re-detection with this probability, after an additional
  /// exponential delay of mean kLateCorrectionMeanDelay; otherwise it
  /// waits for the admin sweep as before.
  double late_correction_prob = 0.0;
};

/// Ground-truth classification of what detect() produced -- the chaos
/// harness's per-fault-class accounting.
struct DetectionStats {
  std::size_t true_detections = 0;
  std::size_t false_positives = 0;   // benign instances reported
  std::size_t duplicates = 0;        // repeat reports of a detection
  std::size_t missed = 0;            // initial false negatives
  std::size_t late_corrections = 0;  // false negatives corrected late
  std::size_t swept = 0;             // left for the admin sweep
};

class IdsSimulator {
 public:
  explicit IdsSimulator(IdsConfig config = {}) : config_(config) {}

  /// Scans the log for malicious original instances and produces alerts
  /// sorted by report time. Each detection is its own alert; the admin
  /// sweep (if any) is one final batched alert. With the imperfection
  /// model enabled the stream may also contain false positives,
  /// duplicates, and late corrections; `stats` (optional) receives the
  /// ground-truth classification of every report.
  [[nodiscard]] std::vector<Alert> detect(const engine::SystemLog& log,
                                          util::Rng& rng,
                                          DetectionStats* stats = nullptr) const;

  [[nodiscard]] const IdsConfig& config() const noexcept { return config_; }

 private:
  IdsConfig config_;
};

/// Bounded FIFO of alerts (the "IDS Alerts" queue in Figure 2). Pushes
/// into a full queue are dropped and counted as lost.
class AlertQueue {
 public:
  explicit AlertQueue(std::size_t capacity) : capacity_(capacity) {}

  /// Returns false (and counts a loss) if the queue is full.
  bool push(Alert alert);
  [[nodiscard]] bool empty() const noexcept { return queue_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return queue_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t lost() const noexcept { return lost_; }
  /// Pops the oldest alert; throws if empty.
  Alert pop();

 private:
  std::size_t capacity_;
  std::deque<Alert> queue_;
  std::size_t lost_ = 0;
};

}  // namespace selfheal::ids
