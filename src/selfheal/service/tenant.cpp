#include "selfheal/service/tenant.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "selfheal/obs/metrics.hpp"

namespace selfheal::service {

namespace {

struct TenantMetrics {
  obs::Counter& requests = obs::metrics().counter("service.requests.completed");
  obs::Counter& runs = obs::metrics().counter("service.runs.started");
  obs::Counter& alerts = obs::metrics().counter("service.alerts.submitted");
  obs::Counter& recovery_steps =
      obs::metrics().counter("service.recovery_steps");
  obs::Counter& client_errors = obs::metrics().counter("service.client_errors");
  obs::Counter& quarantines = obs::metrics().counter("service.quarantines");
};

TenantMetrics& tenant_metrics() {
  static TenantMetrics m;
  return m;
}

}  // namespace

Tenant::Tenant(TenantId id, const TenantConfig& config,
               std::atomic<std::uint64_t>* global_bytes)
    : id_(id), global_bytes_(global_bytes), world_(config) {}

RejectReason Tenant::try_enqueue(Request request, std::size_t frame_bytes,
                                 CompletionFn done) {
  std::lock_guard<std::mutex> lock(queue_mu_);
  // Checked under queue_mu_: quarantine() seals the flag and swaps out
  // the queue under this same lock, so a request either lands in the
  // swapped-out queue (and is failed explicitly) or is rejected here --
  // never pushed after the swap to hang its client forever.
  if (quarantined()) return RejectReason::kQuarantined;
  if (draining()) return RejectReason::kDraining;
  if (queue_.size() >= config().queue_capacity) {
    return RejectReason::kQueueFull;
  }
  queue_.push_back(Queued{std::move(request), frame_bytes, std::move(done)});
  // Stored while still holding queue_mu_: the lock orders this store
  // against refresh_work_signal()'s, so a worker's stale 'false' can
  // never overwrite it and strand the request just pushed.
  has_work_.store(true, std::memory_order_release);
  return RejectReason::kNone;
}

std::size_t Tenant::queue_depth() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return queue_.size();
}

std::size_t Tenant::step_once() {
  if (quarantined()) {
    // Backstop: never leave the work signal up on a dead tenant, or the
    // scheduler would busy-spin claiming and releasing it forever.
    std::lock_guard<std::mutex> lock(queue_mu_);
    has_work_.store(false, std::memory_order_release);
    return 0;
  }
  try {
    if (!world_.normal()) return recovery_step();
    Queued queued;
    bool popped = false;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (!queue_.empty()) {
        queued = std::move(queue_.front());
        queue_.pop_front();
        popped = true;
      }
    }
    if (!popped) {
      refresh_work_signal();
      return 0;
    }
    if (global_bytes_ != nullptr) {
      global_bytes_->fetch_sub(queued.frame_bytes, std::memory_order_acq_rel);
    }
    const std::size_t cost = handle(queued);
    ++stats_.requests_completed;
    watermark_.fetch_add(1, std::memory_order_acq_rel);
    tenant_metrics().requests.inc();
    stats_.service_units += cost;
    refresh_work_signal();
    return cost;
  } catch (const std::exception& e) {
    quarantine(e.what());
    return 1;
  } catch (...) {
    quarantine("unknown exception");
    return 1;
  }
}

std::size_t Tenant::recovery_step() {
  if (chaos_hook_) chaos_hook_();
  const std::size_t work = world_.apply_step();
  ++stats_.recovery_steps;
  // Recovery is progress too: the starvation watermark must advance
  // while a tenant heals, or sustained attack storms would false-alarm.
  watermark_.fetch_add(1, std::memory_order_acq_rel);
  tenant_metrics().recovery_steps.inc();
  if (world_.normal()) {
    // The alert(s) whose damage this recovery healed are now done.
    auto pending = std::move(pending_alert_done_);
    pending_alert_done_.clear();
    for (auto& [done, reported] : pending) {
      Response response = status_response(RequestKind::kAlert);
      response.ok = true;
      response.malicious_reported = reported;
      complete(done, response);
    }
  }
  refresh_work_signal();
  const std::size_t cost = std::max<std::size_t>(work, 1);
  stats_.service_units += cost;
  return cost;
}

std::size_t Tenant::handle(Queued& queued) {
  // Requests pop only in NORMAL, so the world applies them with Theorem
  // 4 holding by construction.
  const RequestKind kind = queued.request.kind;
  const Applied applied = world_.apply(queued.request);
  if (applied.refused) {
    // The CLIENT's fault: fail the request, do not quarantine the tenant.
    ++stats_.client_errors;
    tenant_metrics().client_errors.inc();
    Response response = status_response(kind);
    response.ok = false;
    response.error = applied.error;
    complete(queued.done, response);
    return 1;
  }
  switch (kind) {
    case RequestKind::kSubmitRun: {
      ++stats_.runs_started;
      tenant_metrics().runs.inc();
      stats_.tasks_executed += applied.tasks_executed;
      Response response = status_response(kind);
      response.ok = true;
      response.run = applied.run;
      response.tasks_executed = applied.tasks_executed;
      complete(queued.done, response);
      return std::max<std::size_t>(applied.tasks_executed, 1);
    }
    case RequestKind::kAlert: {
      ++stats_.alerts_submitted;
      tenant_metrics().alerts.inc();
      // Turn the alert into its recovery plan IN this step: the
      // controller's streaming dependence index makes the scan
      // O(frontier), so the plan is materialized the moment the alert
      // lands instead of one scheduler round-trip later. Recovery
      // EXECUTION still waits for dedicated recovery steps. A scan reads
      // the engine but never mutates it, so the durable media stays
      // byte-identical to the drive-once oracle (whose scan step commits
      // an empty WAL batch -- no record either way).
      std::size_t scan_cost = 0;
      if (const auto scanned = world_.controller().scan_one()) {
        scan_cost = *scanned;
      }
      // Completion fires when the world returns to NORMAL -- the
      // alert-to-recovered moment the load generator measures.
      pending_alert_done_.emplace_back(std::move(queued.done),
                                       applied.malicious_reported);
      return std::max<std::size_t>(scan_cost, 1);
    }
    case RequestKind::kDrain:
      // FIFO + the recovery-first step priority mean everything
      // submitted before the drain has fully executed and healed by the
      // time it pops.
      draining_.store(true, std::memory_order_release);
      break;
    case RequestKind::kQuery:
      break;
  }
  Response response = status_response(kind);
  response.ok = true;
  complete(queued.done, response);
  return 1;
}

void Tenant::quarantine(const std::string& why) noexcept {
  if (quarantined()) return;
  // The world already discarded the step's WAL batch: the durable media
  // keeps only whole completed steps, so a later recover() resumes from
  // the last step boundary -- the quarantined tenant's WAL stays intact
  // and replayable.
  try {
    quarantine_reason_ = why;
  } catch (...) {
    // Allocation failure storing the reason: the flag below still seals.
  }
  // Seal the flag and swap out the queue under ONE queue_mu_ hold:
  // try_enqueue() checks quarantined_ under the same lock, so every
  // request either landed in `orphans` (failed below) or is rejected
  // with "quarantined" -- none can slip in after the swap. Clearing
  // has_work_ under the lock likewise orders against enqueue's 'true'.
  std::deque<Queued> orphans;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    quarantined_.store(true, std::memory_order_release);
    orphans.swap(queue_);
    has_work_.store(false, std::memory_order_release);
  }
  tenant_metrics().quarantines.inc();

  // Fail every in-flight completion explicitly: clients must observe the
  // fault, never hang on a dead tenant.
  Response failure;
  failure.ok = false;
  failure.quarantined = true;
  failure.state = "QUARANTINED";
  failure.error = "tenant quarantined: " + quarantine_reason_;
  for (auto& orphan : orphans) {
    if (global_bytes_ != nullptr) {
      global_bytes_->fetch_sub(orphan.frame_bytes, std::memory_order_acq_rel);
    }
    failure.kind = orphan.request.kind;
    complete(orphan.done, failure);
  }
  for (auto& [done, reported] : pending_alert_done_) {
    failure.kind = RequestKind::kAlert;
    failure.malicious_reported = reported;
    complete(done, failure);
  }
  pending_alert_done_.clear();
}

Response Tenant::status_response(RequestKind kind) {
  Response response;
  response.kind = kind;
  response.log_entries = world_.engine().log().size();
  response.watermark = stats_.requests_completed;
  response.scans = world_.stats().scans;
  response.recoveries = world_.stats().recoveries;
  response.quarantined = quarantined();
  response.draining = draining();
  response.state =
      quarantined() ? "QUARANTINED" : recovery::to_string(world_.state());
  return response;
}

void Tenant::refresh_work_signal() {
  const bool recovering = !world_.normal();
  // The emptiness check and the store happen under one queue_mu_ hold:
  // try_enqueue()'s push + has_work_=true store is ordered against this
  // store by the lock, so a stale 'false' computed from a pre-push queue
  // can never overwrite the enqueuer's 'true' (lost-wakeup race that
  // would strand the queued request until the next submit).
  std::lock_guard<std::mutex> lock(queue_mu_);
  has_work_.store((recovering || !queue_.empty()) && !quarantined(),
                  std::memory_order_release);
}

void Tenant::complete(CompletionFn& done, const Response& response) {
  if (done) done(response);
  done = nullptr;
}

}  // namespace selfheal::service
