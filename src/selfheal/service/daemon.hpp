// The multi-tenant self-healing workflow service daemon.
//
// Hosts any number of isolated Tenants (see tenant.hpp) behind one
// admission gate and one weighted round-robin scheduler:
//
//   * Admission: submit() decodes the wire frame, then checks -- in
//     order -- tenant existence, daemon liveness, the GLOBAL queued-
//     frame byte budget, and the tenant's bounded queue. Every rejection
//     is immediate and carries a machine-readable reason token; nothing
//     is ever silently dropped.
//
//   * Scheduling: deficit-weighted round robin. Each turn a tenant with
//     work gains weight * quantum_units of deficit and runs steps until
//     the deficit is spent (cost overruns carry over as debt, so a
//     tenant that burned a huge recovery step skips turns until paid
//     off). One tenant's attack storm therefore delays another tenant's
//     alert-to-recovered path by at most its weight share -- the
//     fairness invariant the deterministic virtual-time test pins.
//
//   * Isolation: at most one worker drives a tenant at a time (claim
//     flag under the scheduler lock), tenants share no state, and a
//     tenant that throws is quarantined without touching the others.
//
//   * Wake-ups are edge-triggered: a parked worker is woken only when a
//     tenant becomes claimable and no awake worker will take it.
//     Admission notifies only if its tenant is unclaimed; a worker ends
//     a quantum by releasing its tenant and claiming the next one in one
//     scheduler-lock hold, and wakes another worker only if a claimable
//     tenant is left after its own claim.
//
// Two execution modes share all of that logic:
//   * start(workers >= 1) -- real worker threads, blocking on a condvar;
//   * workers == 0        -- deterministic inline mode: the caller pumps
//     dispatch_once() / run_until_idle(); no threads exist, so tests
//     can meter fairness in virtual time (work units) exactly.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "selfheal/service/request.hpp"
#include "selfheal/service/tenant.hpp"

namespace selfheal::service {

struct ServiceConfig {
  /// Worker threads started by start(); 0 selects deterministic inline
  /// mode (pump with dispatch_once / run_until_idle).
  std::size_t workers = 1;
  /// Global budget on queued frame bytes across ALL tenants; admission
  /// rejects with "byte_budget" beyond it.
  std::uint64_t byte_budget = 8ull << 20;
  /// Base WRR quantum: deficit granted per turn is weight * this.
  std::size_t quantum_units = 32;
};

struct DaemonStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_byte_budget = 0;
  std::uint64_t rejected_quarantined = 0;
  std::uint64_t rejected_draining = 0;
  std::uint64_t rejected_bad_frame = 0;
  std::uint64_t rejected_other = 0;
  /// Returns of a worker from its wait (stop excepted), and those of
  /// them that found no tenant to claim.
  std::uint64_t wakeups = 0;
  std::uint64_t idle_wakeups = 0;
  [[nodiscard]] std::uint64_t rejected() const {
    return rejected_queue_full + rejected_byte_budget + rejected_quarantined +
           rejected_draining + rejected_bad_frame + rejected_other;
  }
};

class ServiceDaemon {
 public:
  explicit ServiceDaemon(ServiceConfig config = {});
  ~ServiceDaemon();

  ServiceDaemon(const ServiceDaemon&) = delete;
  ServiceDaemon& operator=(const ServiceDaemon&) = delete;

  /// Registers a tenant. Thread-safe: callable at any time, also while
  /// workers run and other threads submit, drain or look tenants up.
  TenantId add_tenant(TenantConfig config);
  [[nodiscard]] Tenant& tenant(TenantId id);
  [[nodiscard]] const Tenant& tenant(TenantId id) const;
  [[nodiscard]] std::size_t tenant_count() const;

  /// Admission: decodes `frame` (encode_frame output) and enqueues it
  /// for `id`. Thread-safe; returns the immediate verdict. `done` fires
  /// asynchronously on completion (from a worker thread in started
  /// mode, from the pumping thread inline).
  Ack submit(TenantId id, const std::string& frame, CompletionFn done = nullptr);

  /// Spawns the configured workers (no-op when config.workers == 0).
  void start();
  /// Stops scheduling and joins all workers. Queued work stays queued;
  /// call drain_all() first for a clean shutdown. Exception-safe:
  /// always joins, even with quarantined tenants mid-flight.
  void stop();
  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// One WRR turn on the calling thread: claims the next tenant whose
  /// deficit allows work and runs its quantum. Returns false when no
  /// tenant has work. Usable only in inline mode (workers == 0 or
  /// stopped).
  bool dispatch_once();
  /// Pumps dispatch_once() until every tenant is idle.
  void run_until_idle();

  /// Sends a drain request to every live tenant and waits (pumping
  /// inline when not started) until each completes. Backpressure on a
  /// drain request (queue_full, byte_budget) is retried. Returns true
  /// iff every tenant drained cleanly (no quarantine).
  bool drain_all();

  [[nodiscard]] std::uint64_t queued_bytes() const noexcept {
    return queued_bytes_.load(std::memory_order_acquire);
  }
  [[nodiscard]] DaemonStats stats() const;
  [[nodiscard]] const ServiceConfig& config() const noexcept { return config_; }

 private:
  struct Slot {
    std::unique_ptr<Tenant> tenant;
    std::int64_t deficit = 0;  // WRR deficit (may go negative: debt)
    bool claimed = false;      // a worker is driving this tenant
  };

  /// Claims the next schedulable tenant (rotating, granting deficit per
  /// pass). Caller must hold sched_mu_. Returns nullptr when no tenant
  /// has work.
  Slot* claim_locked();
  /// Unclaims the slot; an emptied tenant forfeits its deficit (classic
  /// DRR). Caller must hold sched_mu_.
  void release_locked(Slot& slot);
  /// True when some unclaimed tenant has work. Caller must hold
  /// sched_mu_.
  [[nodiscard]] bool claimable_locked() const;
  /// Runs the claimed slot's quantum (no locks held).
  void run_quantum(Slot& slot);
  void worker_loop();

  ServiceConfig config_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::atomic<std::uint64_t> queued_bytes_{0};

  mutable std::mutex sched_mu_;
  std::condition_variable work_cv_;
  std::size_t rr_cursor_ = 0;
  bool stopping_ = false;
  std::uint64_t wakeups_ = 0;       // guarded by sched_mu_
  std::uint64_t idle_wakeups_ = 0;  // guarded by sched_mu_
  std::atomic<bool> running_{false};
  std::vector<std::thread> workers_;

  mutable std::mutex stats_mu_;
  DaemonStats stats_;
};

}  // namespace selfheal::service
