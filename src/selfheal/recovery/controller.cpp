#include "selfheal/recovery/controller.hpp"

#include <algorithm>
#include <chrono>

#include "selfheal/obs/metrics.hpp"
#include "selfheal/obs/trace.hpp"

namespace selfheal::recovery {

namespace {

struct ControllerMetrics {
  obs::Counter& alerts_received = obs::metrics().counter("controller.alerts_received");
  obs::Counter& alerts_lost = obs::metrics().counter("controller.alerts_lost");
  obs::Counter& alerts_blocked = obs::metrics().counter("controller.alerts_blocked");
  obs::Counter& scans = obs::metrics().counter("controller.scans");
  obs::Counter& recoveries = obs::metrics().counter("controller.recoveries");
  obs::Counter& runs_deferred = obs::metrics().counter("controller.runs_deferred");
  obs::Counter& runs_parked = obs::metrics().counter("controller.runs_parked");
  obs::Gauge& alert_queue_peak = obs::metrics().gauge("controller.alert_queue_peak");
  obs::Gauge& unit_queue_peak = obs::metrics().gauge("controller.unit_queue_peak");
  /// Wall time from popping an alert to having its recovery unit queued
  /// (graph sync + analysis) -- the latency the streaming taint layer is
  /// built to bound.
  obs::HistogramMetric& alert_to_plan_us =
      obs::metrics().histogram("analyzer.alert_to_plan_us", 0.0, 5000.0, 64);
};

ControllerMetrics& controller_metrics() {
  static ControllerMetrics m;
  return m;
}

}  // namespace

const char* to_string(ConcurrencyStrategy strategy) {
  switch (strategy) {
    case ConcurrencyStrategy::kStrict: return "strict";
    case ConcurrencyStrategy::kRisky: return "risky";
    case ConcurrencyStrategy::kMultiVersion: return "multi-version";
  }
  return "?";
}

const char* to_string(SystemState state) {
  switch (state) {
    case SystemState::kNormal: return "NORMAL";
    case SystemState::kScan: return "SCAN";
    case SystemState::kRecovery: return "RECOVERY";
  }
  return "?";
}

namespace {

SchedulerOptions scheduler_options(const ControllerConfig& config) {
  SchedulerOptions options;
  options.clean_reads = config.strategy != ConcurrencyStrategy::kRisky;
  return options;
}

}  // namespace

SelfHealingController::SelfHealingController(engine::Engine& engine,
                                             ControllerConfig config)
    : engine_(&engine), config_(config), alerts_(config.alert_buffer),
      analyzer_(engine, deps_), scheduler_(engine, deps_, scheduler_options(config)) {}

SystemState SelfHealingController::state() const {
  if (!alerts_.empty()) return SystemState::kScan;
  if (queued_ > 0) return SystemState::kRecovery;
  return SystemState::kNormal;
}

bool SelfHealingController::submit_alert(ids::Alert alert) {
  auto& cm = controller_metrics();
  ++stats_.alerts_received;
  cm.alerts_received.inc();
  const bool accepted = alerts_.push(std::move(alert));
  if (!accepted) {
    ++stats_.alerts_lost;
    cm.alerts_lost.inc();
  }
  cm.alert_queue_peak.update_max(static_cast<double>(alerts_.size()));
  return accepted;
}

std::vector<wfspec::ObjectId> SelfHealingController::dirty_objects() const {
  std::vector<wfspec::ObjectId> dirty;
  const auto& log = engine_->log();
  auto mark = [&](engine::InstanceId id) {
    const auto& written = log.entry(id).written_objects;
    dirty.insert(dirty.end(), written.begin(), written.end());
  };
  for (std::size_t u = 0; u < queued_; ++u) {
    for (const auto id : units_[u].damaged) mark(id);
    for (const auto& c : units_[u].candidate_undos) mark(c.instance);
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  return dirty;
}

bool SelfHealingController::advance_until_blocked(
    engine::RunId run, const std::vector<wfspec::ObjectId>& dirty) {
  const auto& spec = engine_->spec_of(run);
  while (const auto next = engine_->peek_next_task(run)) {
    const auto& task = spec.task(*next);
    const auto touches_dirty = [&](const std::vector<wfspec::ObjectId>& objects) {
      return std::any_of(objects.begin(), objects.end(), [&](wfspec::ObjectId o) {
        return std::binary_search(dirty.begin(), dirty.end(), o);
      });
    };
    // Theorem 4: block before reading repaired-later data (rule 1's
    // flow/control case) or writing objects recovery will read/restore
    // (the anti/output case).
    if (touches_dirty(task.reads) || touches_dirty(task.writes)) {
      ++stats_.runs_parked;
      controller_metrics().runs_parked.inc();
      return false;
    }
    engine_->step_run(run);
    ++stats_.tasks_before_park;
  }
  return true;
}

std::optional<engine::RunId> SelfHealingController::submit_run(
    const wfspec::WorkflowSpec& spec) {
  if (config_.strategy == ConcurrencyStrategy::kStrict &&
      state() == SystemState::kRecovery &&
      config_.granularity == BlockingGranularity::kPerTask) {
    // Damage is fully analyzed: the dirty set is exact, so the run may
    // proceed task by task up to its first dirty access (Theorem 4).
    const auto run = engine_->start_run(spec);
    // If it parks mid-run, the run stays active in the engine and
    // release_pending()'s run_all() resumes it once recovery completes.
    advance_until_blocked(run, dirty_objects());
    return run;
  }
  if (config_.strategy == ConcurrencyStrategy::kStrict &&
      state() != SystemState::kNormal) {
    // Theorem 4: a normal task must not run before recovery analysis and
    // execution complete -- it could read corrupted data or corrupt a
    // pending redo's inputs.
    pending_runs_.push_back(&spec);
    ++stats_.runs_deferred;
    controller_metrics().runs_deferred.inc();
    return std::nullopt;
  }
  // Under the concurrency strategies the run executes immediately; if it
  // reads still-corrupted data it becomes part of the damage a later
  // round discovers (kMultiVersion keeps the RECOVERY side safe; kRisky
  // risks the recovery tasks too).
  const auto run = engine_->start_run(spec);
  engine_->run_all();
  return run;
}

std::optional<std::size_t> SelfHealingController::scan_one() {
  if (alerts_.empty()) return std::nullopt;
  auto& cm = controller_metrics();
  if (queued_ >= config_.recovery_buffer) {
    // Analyzer blocked: no space for the unit this alert would produce.
    ++stats_.alerts_blocked;
    cm.alerts_blocked.inc();
    return std::nullopt;
  }
  obs::Span span("controller.scan", "recovery");
  const auto alert = alerts_.pop();
  const int k = static_cast<int>(queued_) + 1;

  // Sync the long-lived dependence graph: O(entries since last scan)
  // when only normal commits happened, an O(suffix) splice after a
  // recovery round rewrote the effective schedule -- never a full
  // rebuild on the steady-state path. The analyze() then reads the
  // damage frontier off the streaming taint set when the alert covers
  // the live malicious entries.
  const auto t0 = std::chrono::steady_clock::now();
  deps_.refresh(engine_->log(), engine_->specs_by_run());
  if (queued_ == units_.size()) units_.emplace_back();
  analyzer_.analyze(alert.malicious, units_[queued_]);
  ++queued_;
  const auto t1 = std::chrono::steady_clock::now();
  const double us =
      std::chrono::duration<double, std::micro>(t1 - t0).count();
  cm.alert_to_plan_us.observe(us);
  stats_.alert_to_plan_us.add(us);
  stats_.alert_to_plan_hist.add(us);
  const auto work = analyzer_.last_work_units();

  ++stats_.scans;
  stats_.scan_work += work;
  stats_.scan_work_by_queue[k].add(static_cast<double>(work));
  cm.scans.inc();
  cm.unit_queue_peak.update_max(static_cast<double>(queued_));
  return work;
}

std::optional<std::size_t> SelfHealingController::recover_one() {
  if (queued_ == 0) return std::nullopt;
  const bool allowed = alerts_.empty() || queued_ >= config_.recovery_buffer;
  if (!allowed) return std::nullopt;  // no recovery execution in SCAN

  obs::Span span("controller.recover", "recovery");
  const int k = static_cast<int>(queued_);
  // Dequeue the oldest unit: it moves behind the queued ones, where it
  // stays as a spare once executed.
  std::rotate(units_.begin(), units_.begin() + 1,
              units_.begin() + static_cast<std::ptrdiff_t>(queued_));
  --queued_;
  const RecoveryPlan& plan = units_[queued_];

  auto* observer = config_.recovery_observer;
  if (observer != nullptr) {
    observer->before_recovery(*engine_, plan, scheduler_options(config_));
  }
  const auto& outcome = scheduler_.execute(plan);
  if (observer != nullptr) observer->after_recovery(*engine_, plan, outcome);
  const std::size_t work = outcome.work_units;

  ++stats_.recoveries;
  stats_.recovery_work += work;
  stats_.recovery_work_by_queue[k].add(static_cast<double>(work));
  controller_metrics().recoveries.inc();

  if (state() == SystemState::kNormal) release_pending();
  return work;
}

std::size_t SelfHealingController::drain() {
  obs::Span span("controller.drain", "recovery");
  std::size_t total = 0;
  while (state() != SystemState::kNormal) {
    if (auto work = scan_one()) {
      total += *work;
      continue;
    }
    if (auto work = recover_one()) {
      total += *work;
      continue;
    }
    break;  // defensive: nothing progressed
  }
  release_pending();
  return total;
}

void SelfHealingController::release_pending() {
  if (state() != SystemState::kNormal) return;
  while (!pending_runs_.empty()) {
    const auto* spec = pending_runs_.front();
    pending_runs_.pop_front();
    engine_->start_run(*spec);
  }
  engine_->run_all();  // also resumes runs parked mid-task (Theorem 4)
}

}  // namespace selfheal::recovery
