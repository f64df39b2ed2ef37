#include "selfheal/service/tenant.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "selfheal/obs/metrics.hpp"
#include "selfheal/wfspec/parser.hpp"

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

/// RAII WAL batch: one controller step / one request = one WAL record.
/// Destruction without commit() DISCARDS the buffered commits -- an
/// exception mid-step must leave the media at the previous step
/// boundary, never a half-step (the quarantine-with-intact-WAL
/// guarantee).
class BatchScope {
 public:
  explicit BatchScope(engine::DurableSessionStore* store) : store_(store) {
    if (store_ != nullptr) store_->begin_batch();
  }
  ~BatchScope() {
    if (store_ != nullptr && !committed_) store_->abort_batch();
  }
  void commit() {
    if (store_ != nullptr) store_->end_batch();
    committed_ = true;
  }

 private:
  engine::DurableSessionStore* store_;
  bool committed_ = false;
};

}  // namespace

const wfspec::WorkflowSpec& SpecCache::intern(const std::string& dsl,
                                              wfspec::ObjectCatalog& catalog) {
  if (const auto it = by_dsl_.find(dsl); it != by_dsl_.end()) return *it->second;
  specs_.push_back(
      std::make_unique<wfspec::WorkflowSpec>(wfspec::parse_workflow(dsl, catalog)));
  by_dsl_.emplace(dsl, specs_.back().get());
  return *specs_.back();
}

void SpecCache::adopt(std::vector<std::unique_ptr<wfspec::WorkflowSpec>> specs) {
  for (auto& spec : specs) specs_.push_back(std::move(spec));
}

Tenant::Tenant(TenantId id, TenantConfig config,
               std::atomic<std::uint64_t>* global_bytes)
    : id_(id), config_(std::move(config)), global_bytes_(global_bytes) {
  catalog_ = std::make_unique<wfspec::ObjectCatalog>();
  engine_ = std::make_unique<engine::Engine>(config_.engine);
  if (config_.durable) {
    durable_ = std::make_unique<engine::DurableSessionStore>();
    durable_->snapshot(*engine_);
    engine_->set_durability_observer(durable_.get());
  }
  controller_ = std::make_unique<recovery::SelfHealingController>(
      *engine_, config_.controller);
}

Tenant::~Tenant() {
  // The controller (and its recovery pool) must die before the engine;
  // clear the observer so late engine destruction can't touch durable_.
  controller_.reset();
  if (engine_ != nullptr) engine_->set_durability_observer(nullptr);
}

RejectReason Tenant::try_enqueue(Request request, std::size_t frame_bytes,
                                 CompletionFn done) {
  std::lock_guard<std::mutex> lock(queue_mu_);
  // Checked under queue_mu_: quarantine() seals the flag and swaps out
  // the queue under this same lock, so a request either lands in the
  // swapped-out queue (and is failed explicitly) or is rejected here --
  // never pushed after the swap to hang its client forever.
  if (quarantined()) return RejectReason::kQuarantined;
  if (draining()) return RejectReason::kDraining;
  if (queue_.size() >= config_.queue_capacity) {
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

void Tenant::set_storage_faults(storage::StorageFaultInjector* faults) {
  if (durable_ != nullptr) durable_->set_fault_injector(faults);
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
    if (controller_->state() != recovery::SystemState::kNormal) {
      return recovery_step();
    }
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
  BatchScope batch(durable_.get());
  if (chaos_hook_) chaos_hook_();
  std::size_t work = 0;
  if (const auto scanned = controller_->scan_one()) {
    work = *scanned;
  } else if (const auto recovered = controller_->recover_one()) {
    work = *recovered;
  } else {
    // The controller guarantees progress outside NORMAL (a full recovery
    // buffer unblocks recover_one); reaching here is an invariant
    // violation, not a client error.
    throw std::logic_error("controller stalled outside NORMAL");
  }
  batch.commit();
  ++stats_.recovery_steps;
  // Recovery is progress too: the starvation watermark must advance
  // while a tenant heals, or sustained attack storms would false-alarm.
  watermark_.fetch_add(1, std::memory_order_acq_rel);
  tenant_metrics().recovery_steps.inc();
  if (controller_->state() == recovery::SystemState::kNormal) {
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
  switch (queued.request.kind) {
    case RequestKind::kSubmitRun: return handle_submit(queued);
    case RequestKind::kAlert: return handle_alert(queued);
    case RequestKind::kQuery: handle_query(queued); return 1;
    case RequestKind::kDrain: handle_drain(queued); return 1;
  }
  return 1;
}

std::size_t Tenant::handle_submit(Queued& queued) {
  // Parse failures are the CLIENT's fault: reject the request, do not
  // quarantine the tenant.
  const wfspec::WorkflowSpec* spec = nullptr;
  std::vector<std::pair<wfspec::TaskId, int>> attacks;
  try {
    spec = &specs_.intern(queued.request.spec_dsl, *catalog_);
    for (const auto& mark : queued.request.attacks) {
      attacks.emplace_back(spec->task_by_name(mark.task), mark.incarnation);
    }
  } catch (const std::invalid_argument& e) {
    ++stats_.client_errors;
    tenant_metrics().client_errors.inc();
    Response response = status_response(RequestKind::kSubmitRun);
    response.ok = false;
    response.error = e.what();
    complete(queued.done, response);
    return 1;
  } catch (const std::logic_error& e) {
    ++stats_.client_errors;
    tenant_metrics().client_errors.inc();
    Response response = status_response(RequestKind::kSubmitRun);
    response.ok = false;
    response.error = e.what();
    complete(queued.done, response);
    return 1;
  }

  BatchScope batch(durable_.get());
  const auto before = engine_->log().size();
  // Requests pop only in NORMAL (Theorem 4 holds by construction), so
  // the run starts and executes immediately -- the controller's
  // submit_run NORMAL path, with the attack marks injected between
  // start and execution (an intruder corrupts live tasks, not specs).
  const auto run = engine_->start_run(*spec);
  for (const auto& [task, incarnation] : attacks) {
    engine_->inject_malicious(run, task, incarnation);
  }
  engine_->run_all();
  // A submit is one WAL record: the run start wrote the catalog objects,
  // spec and run the media lacked, the commits followed. The checkpoint
  // policy closes the batch as that record, or -- once the WAL has grown
  // to the newest snapshot's size -- writes a snapshot that subsumes it.
  if (durable_ != nullptr) durable_->checkpoint(*engine_);
  batch.commit();

  runs_.push_back(run);
  ++stats_.runs_started;
  tenant_metrics().runs.inc();
  const std::size_t executed = engine_->log().size() - before;
  stats_.tasks_executed += executed;

  Response response = status_response(RequestKind::kSubmitRun);
  response.ok = true;
  response.run = run;
  response.tasks_executed = executed;
  complete(queued.done, response);
  return std::max<std::size_t>(executed, 1);
}

std::size_t Tenant::handle_alert(Queued& queued) {
  if (queued.request.alert_run >= runs_.size()) {
    ++stats_.client_errors;
    tenant_metrics().client_errors.inc();
    Response response = status_response(RequestKind::kAlert);
    response.ok = false;
    response.error = "alert for unknown run index " +
                     std::to_string(queued.request.alert_run);
    complete(queued.done, response);
    return 1;
  }
  ids::Alert alert;
  alert.malicious = engine_->malicious_entries(runs_[queued.request.alert_run]);
  alert.report_time = static_cast<double>(engine_->log().size());
  const std::size_t reported = alert.malicious.size();
  // The queue is popped only in NORMAL, so the (bounded) alert buffer is
  // empty here and submission cannot lose the alert.
  controller_->submit_alert(std::move(alert));
  ++stats_.alerts_submitted;
  tenant_metrics().alerts.inc();
  // Turn the alert into its recovery plan IN this step: the controller's
  // streaming dependence index makes the scan O(frontier), so the plan
  // is materialized the moment the alert lands instead of one scheduler
  // round-trip later. Recovery EXECUTION still waits for dedicated
  // recovery steps. A scan reads the engine but never mutates it, so the
  // durable media stays byte-identical to the drive-once oracle (whose
  // scan step commits an empty WAL batch -- no record either way).
  std::size_t scan_cost = 0;
  if (const auto scanned = controller_->scan_one()) scan_cost = *scanned;
  // Completion fires when the controller returns to NORMAL -- the
  // alert-to-recovered moment the load generator measures.
  pending_alert_done_.emplace_back(std::move(queued.done), reported);
  refresh_work_signal();
  return std::max<std::size_t>(scan_cost, 1);
}

void Tenant::handle_query(Queued& queued) {
  Response response = status_response(RequestKind::kQuery);
  response.ok = true;
  complete(queued.done, response);
}

void Tenant::handle_drain(Queued& queued) {
  // FIFO + the recovery-first step priority mean everything submitted
  // before the drain has fully executed and healed by the time it pops;
  // the controller drain below is a defensive no-op, not a work loop.
  controller_->drain();
  draining_.store(true, std::memory_order_release);
  Response response = status_response(RequestKind::kDrain);
  response.ok = true;
  complete(queued.done, response);
}

void Tenant::quarantine(const std::string& why) noexcept {
  if (quarantined()) return;
  // The open WAL batch (the step that threw) is DISCARDED: the durable
  // media keeps only whole completed steps, so a later recover() resumes
  // from the last step boundary -- the quarantined tenant's WAL stays
  // intact and replayable.
  try {
    if (durable_ != nullptr) durable_->abort_batch();
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

Response Tenant::status_response(RequestKind kind) const {
  Response response;
  response.kind = kind;
  response.log_entries = engine_->log().size();
  response.watermark = stats_.requests_completed;
  response.scans = controller_->stats().scans;
  response.recoveries = controller_->stats().recoveries;
  response.quarantined = quarantined();
  response.draining = draining();
  response.state = quarantined() ? "QUARANTINED"
                                 : recovery::to_string(controller_->state());
  return response;
}

void Tenant::refresh_work_signal() {
  const bool recovering =
      controller_->state() != recovery::SystemState::kNormal;
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
