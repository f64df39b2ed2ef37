#include "selfheal/service/daemon.hpp"

#include <chrono>
#include <stdexcept>

#include "selfheal/obs/metrics.hpp"

namespace selfheal::service {

namespace {

struct DaemonMetrics {
  obs::Counter& accepted = obs::metrics().counter("service.admission.accepted");
  obs::Counter& rej_queue =
      obs::metrics().counter("service.admission.rejected.queue_full");
  obs::Counter& rej_bytes =
      obs::metrics().counter("service.admission.rejected.byte_budget");
  obs::Counter& rej_quarantined =
      obs::metrics().counter("service.admission.rejected.quarantined");
  obs::Counter& rej_frame =
      obs::metrics().counter("service.admission.rejected.bad_frame");
  obs::Counter& turns = obs::metrics().counter("service.scheduler.turns");
  obs::Counter& wakeups = obs::metrics().counter("service.scheduler.wakeups");
  obs::Counter& idle_wakeups =
      obs::metrics().counter("service.scheduler.idle_wakeups");
};

DaemonMetrics& daemon_metrics() {
  static DaemonMetrics m;
  return m;
}

}  // namespace

ServiceDaemon::ServiceDaemon(ServiceConfig config) : config_(config) {
  if (config_.quantum_units == 0) config_.quantum_units = 1;
}

ServiceDaemon::~ServiceDaemon() { stop(); }

TenantId ServiceDaemon::add_tenant(TenantConfig config) {
  std::lock_guard<std::mutex> lock(sched_mu_);
  const auto id = static_cast<TenantId>(slots_.size());
  auto slot = std::make_unique<Slot>();
  if (config.weight == 0) config.weight = 1;
  slot->tenant = std::make_unique<Tenant>(id, std::move(config), &queued_bytes_);
  slots_.push_back(std::move(slot));
  return id;
}

Tenant& ServiceDaemon::tenant(TenantId id) {
  // add_tenant() can grow (and reallocate) slots_ concurrently; the
  // lookup must happen under sched_mu_. Tenants are never removed and
  // each Slot is owned by a stable unique_ptr, so the returned reference
  // outlives the lock.
  std::lock_guard<std::mutex> lock(sched_mu_);
  if (id < 0 || static_cast<std::size_t>(id) >= slots_.size()) {
    throw std::out_of_range("no tenant " + std::to_string(id));
  }
  return *slots_[static_cast<std::size_t>(id)]->tenant;
}

const Tenant& ServiceDaemon::tenant(TenantId id) const {
  return const_cast<ServiceDaemon*>(this)->tenant(id);
}

std::size_t ServiceDaemon::tenant_count() const {
  std::lock_guard<std::mutex> lock(sched_mu_);
  return slots_.size();
}

Ack ServiceDaemon::submit(TenantId id, const std::string& frame,
                          CompletionFn done) {
  Ack ack;
  const auto reject = [&](RejectReason reason) {
    ack.accepted = false;
    ack.reason = reason;
    ack.queued_bytes = queued_bytes();
    std::lock_guard<std::mutex> lock(stats_mu_);
    switch (reason) {
      case RejectReason::kQueueFull:
        ++stats_.rejected_queue_full;
        daemon_metrics().rej_queue.inc();
        break;
      case RejectReason::kByteBudget:
        ++stats_.rejected_byte_budget;
        daemon_metrics().rej_bytes.inc();
        break;
      case RejectReason::kQuarantined:
        ++stats_.rejected_quarantined;
        daemon_metrics().rej_quarantined.inc();
        break;
      case RejectReason::kDraining:
        ++stats_.rejected_draining;
        break;
      case RejectReason::kBadFrame:
        ++stats_.rejected_bad_frame;
        daemon_metrics().rej_frame.inc();
        break;
      default:
        ++stats_.rejected_other;
        break;
    }
    return ack;
  };

  Request request;
  try {
    request = decode_frame(frame);
  } catch (const std::invalid_argument&) {
    return reject(RejectReason::kBadFrame);
  }
  Slot* slot = nullptr;
  {
    // The size check and element load must happen under sched_mu_: a
    // concurrent add_tenant() push_back can reallocate slots_. The Slot
    // itself is owned by a stable unique_ptr and never removed, so the
    // raw pointer stays valid after unlock.
    std::lock_guard<std::mutex> lock(sched_mu_);
    if (stopping_) return reject(RejectReason::kStopped);
    if (id < 0 || static_cast<std::size_t>(id) >= slots_.size()) {
      return reject(RejectReason::kUnknownTenant);
    }
    slot = slots_[static_cast<std::size_t>(id)].get();
  }

  // Global byte budget: charge first, roll back on any rejection, so
  // concurrent submissions cannot overshoot the budget.
  const std::uint64_t bytes = frame.size();
  const auto charged =
      queued_bytes_.fetch_add(bytes, std::memory_order_acq_rel) + bytes;
  if (charged > config_.byte_budget) {
    queued_bytes_.fetch_sub(bytes, std::memory_order_acq_rel);
    return reject(RejectReason::kByteBudget);
  }

  const auto reason =
      slot->tenant->try_enqueue(std::move(request), bytes, std::move(done));
  if (reason != RejectReason::kNone) {
    queued_bytes_.fetch_sub(bytes, std::memory_order_acq_rel);
    return reject(reason);
  }

  ack.accepted = true;
  ack.reason = RejectReason::kNone;
  ack.queue_depth = slot->tenant->queue_depth();
  ack.queued_bytes = queued_bytes();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.accepted;
  }
  daemon_metrics().accepted.inc();
  // Wake a worker only for an unclaimed tenant. A claimed one is picked
  // up by its worker's release-and-claim: that reads has_work() under
  // sched_mu_ after this read of `claimed`, so it sees the enqueue.
  bool claimed = false;
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    claimed = slot->claimed;
  }
  if (!claimed) work_cv_.notify_one();
  return ack;
}

ServiceDaemon::Slot* ServiceDaemon::claim_locked() {
  const std::size_t n = slots_.size();
  if (n == 0) return nullptr;
  // Deficit round robin: each pass over the candidates grants
  // weight * quantum; a tenant in debt (huge previous step) is skipped
  // until its grants repay the debt. Terminates: every pass strictly
  // increases every candidate's deficit.
  for (;;) {
    bool any_candidate = false;
    for (std::size_t visited = 0; visited < n; ++visited) {
      const std::size_t i = (rr_cursor_ + visited) % n;
      Slot& slot = *slots_[i];
      if (slot.claimed || !slot.tenant->has_work()) continue;
      any_candidate = true;
      slot.deficit += static_cast<std::int64_t>(
          slot.tenant->config().weight *
          static_cast<std::uint32_t>(config_.quantum_units));
      if (slot.deficit > 0) {
        slot.claimed = true;
        rr_cursor_ = (i + 1) % n;
        daemon_metrics().turns.inc();
        return &slot;
      }
    }
    if (!any_candidate) return nullptr;
  }
}

void ServiceDaemon::release_locked(Slot& slot) {
  slot.claimed = false;
  if (!slot.tenant->has_work()) slot.deficit = 0;
}

bool ServiceDaemon::claimable_locked() const {
  for (const auto& slot : slots_) {
    if (!slot->claimed && slot->tenant->has_work()) return true;
  }
  return false;
}

void ServiceDaemon::run_quantum(Slot& slot) {
  // Only the claiming worker touches `deficit` while `claimed` is set.
  while (slot.deficit > 0) {
    const std::size_t cost = slot.tenant->step_once();
    if (cost == 0) break;  // tenant went idle mid-quantum
    slot.deficit -= static_cast<std::int64_t>(cost);
  }
}

bool ServiceDaemon::dispatch_once() {
  Slot* slot = nullptr;
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    slot = claim_locked();
  }
  if (slot == nullptr) return false;
  run_quantum(*slot);
  std::lock_guard<std::mutex> lock(sched_mu_);
  release_locked(*slot);
  return true;
}

void ServiceDaemon::run_until_idle() {
  while (dispatch_once()) {
  }
}

void ServiceDaemon::start() {
  if (config_.workers == 0 || running()) return;
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    stopping_ = false;
  }
  running_.store(true, std::memory_order_release);
  workers_.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void ServiceDaemon::stop() {
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    if (workers_.empty() && !stopping_) {
      running_.store(false, std::memory_order_release);
      return;
    }
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    stopping_ = false;
    // A worker killed mid-quantum never releases its claim; clear them
    // so a later start()/inline pump can reschedule the tenants.
    for (auto& slot : slots_) slot->claimed = false;
  }
  running_.store(false, std::memory_order_release);
}

void ServiceDaemon::worker_loop() {
  std::unique_lock<std::mutex> lock(sched_mu_);
  bool woken = false;
  while (!stopping_) {
    Slot* slot = claim_locked();
    if (woken) {
      woken = false;
      ++wakeups_;
      daemon_metrics().wakeups.inc();
      if (slot == nullptr) {
        ++idle_wakeups_;
        daemon_metrics().idle_wakeups.inc();
      }
    }
    if (slot == nullptr) {
      work_cv_.wait(lock);
      woken = true;
      continue;
    }
    // Any tenant still claimable after our claim needs another worker.
    if (claimable_locked()) work_cv_.notify_one();
    lock.unlock();
    try {
      run_quantum(*slot);
    } catch (...) {
      // step_once() quarantines internally; anything escaping here is a
      // daemon bug, but a worker must never die and strand its claim.
    }
    // Release and claim the next tenant in one hold: a request enqueued
    // while this tenant was claimed is seen here, because admission
    // read `claimed` under this lock and skipped its notify.
    lock.lock();
    release_locked(*slot);
  }
}

bool ServiceDaemon::drain_all() {
  struct Waiter {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t remaining = 0;
    bool failed = false;
  };
  auto waiter = std::make_shared<Waiter>();
  bool clean = true;

  Request drain;
  drain.kind = RequestKind::kDrain;
  const std::string frame = encode_frame(drain);

  for (TenantId id = 0; static_cast<std::size_t>(id) < tenant_count(); ++id) {
    if (tenant(id).quarantined()) {
      clean = false;
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(waiter->mu);
      ++waiter->remaining;
    }
    const CompletionFn done = [waiter](const Response& response) {
      std::lock_guard<std::mutex> lock(waiter->mu);
      if (!response.ok) waiter->failed = true;
      --waiter->remaining;
      waiter->cv.notify_all();
    };
    Ack ack = submit(id, frame, done);
    // Backpressure on the drain itself: retry until the bounded queue
    // and the byte budget have room (pumping inline when no workers are
    // running). A budget smaller than the drain frame never has room.
    const auto backpressure = [&] {
      return ack.reason == RejectReason::kQueueFull ||
             (ack.reason == RejectReason::kByteBudget &&
              frame.size() <= config_.byte_budget);
    };
    while (!ack.accepted && backpressure()) {
      if (running()) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      } else if (!dispatch_once()) {
        break;
      }
      ack = submit(id, frame, done);
    }
    if (!ack.accepted) {
      std::lock_guard<std::mutex> lock(waiter->mu);
      --waiter->remaining;
      // An already-draining tenant is a clean no-op; anything else
      // (quarantined mid-loop, stopped) is not a clean drain.
      if (ack.reason != RejectReason::kDraining) clean = false;
    }
  }

  if (!running()) run_until_idle();
  {
    std::unique_lock<std::mutex> lock(waiter->mu);
    waiter->cv.wait(lock, [&] { return waiter->remaining == 0; });
    if (waiter->failed) clean = false;
  }
  for (TenantId id = 0; static_cast<std::size_t>(id) < tenant_count(); ++id) {
    if (tenant(id).quarantined()) clean = false;
  }
  return clean;
}

DaemonStats ServiceDaemon::stats() const {
  DaemonStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    out = stats_;
  }
  std::lock_guard<std::mutex> lock(sched_mu_);
  out.wakeups = wakeups_;
  out.idle_wakeups = idle_wakeups_;
  return out;
}

}  // namespace selfheal::service
