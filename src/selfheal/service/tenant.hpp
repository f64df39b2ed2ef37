// One isolated tenant of the workflow service daemon.
//
// A tenant is the service shell around one TenantWorld (world.hpp), the
// complete self-healing world -- catalog, specs, engine, controller and
// (by default) a DurableSessionStore mirroring every committed step onto
// corruptible media. The tenant adds only the service machinery:
// admission into a bounded queue, completions, quarantine, stats, the
// progress watermark and the chaos hook. Tenants share NOTHING -- no
// catalog, no store, no log -- so one tenant's attack storm can
// contaminate and stall only itself; cross-tenant interference is
// bounded by the daemon's weighted round-robin scheduler alone.
//
// Work model (the determinism contract): the daemon guarantees at most
// one worker drives a tenant at a time, and step_once() follows a fixed
// priority --
//
//   1. while the world is not NORMAL, execute ONE recovery step
//      (TenantWorld::apply_step: one step, one WAL record);
//   2. otherwise pop ONE queued request (FIFO) and apply it to the
//      world. An admitted alert additionally runs its SCAN in the same
//      step (the streaming dependence index makes it O(frontier)); scans
//      never mutate the engine, so this changes alert-to-plan latency
//      only, not the durable byte stream.
//
// Consequently a tenant's final engine state is a pure function of its
// own request arrival order -- worker count, other tenants' load, and
// scheduling jitter cannot reach it. That is what makes the drive-once
// oracle gate possible: a drained tenant must be byte-identical
// (session + effective store + WAL) to replaying the same requests
// through a bare TenantWorld with no service machinery.
//
// Client errors (a malformed spec, an unknown attack task, an alert for
// an unknown run) fail only their own request. Any exception escaping a
// step quarantines the tenant -- the world has already discarded the
// step's WAL batch, so the media keeps only whole steps; every in-flight
// completion is failed explicitly, and admission rejects further work
// with "quarantined". The daemon and all other tenants keep running.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "selfheal/engine/durable_session.hpp"
#include "selfheal/service/request.hpp"
#include "selfheal/service/world.hpp"

namespace selfheal::service {

struct TenantStats {
  /// Progress watermark: requests fully completed. The soak harness
  /// asserts this advances for every non-quarantined tenant under load
  /// (the starvation gate).
  std::uint64_t requests_completed = 0;
  std::uint64_t runs_started = 0;
  std::uint64_t tasks_executed = 0;
  std::uint64_t alerts_submitted = 0;
  std::uint64_t recovery_steps = 0;
  std::uint64_t client_errors = 0;  // malformed spec / bad run index
  /// Cumulative WRR cost charged (work units); the fairness tests meter
  /// share-of-service with this.
  std::uint64_t service_units = 0;
};

class Tenant {
 public:
  Tenant(TenantId id, const TenantConfig& config,
         std::atomic<std::uint64_t>* global_bytes);

  Tenant(const Tenant&) = delete;
  Tenant& operator=(const Tenant&) = delete;

  [[nodiscard]] TenantId id() const noexcept { return id_; }
  [[nodiscard]] const TenantConfig& config() const noexcept {
    return world_.config();
  }

  // --- Queue side (thread-safe, called by daemon admission) ---

  /// Admission + enqueue. `frame_bytes` is the wire size charged against
  /// the global byte budget (released when the request is popped).
  [[nodiscard]] RejectReason try_enqueue(Request request, std::size_t frame_bytes,
                                         CompletionFn done);
  [[nodiscard]] std::size_t queue_depth() const;

  /// Cheap work signal for the scheduler (no tenant-state access): set
  /// by enqueue, refreshed by the owning worker after every step.
  [[nodiscard]] bool has_work() const noexcept {
    return has_work_.load(std::memory_order_acquire);
  }

  // --- Work side (single-threaded: the claiming worker only) ---

  /// One unit of work per the priority above. Returns the cost in work
  /// units (0 = idle). Exceptions never escape: they quarantine.
  std::size_t step_once();

  /// Test seam for chaos: invoked before every recovery step; may throw
  /// to simulate a recovery-path fault (media error, scheduler bug).
  void set_chaos_hook(std::function<void()> hook) {
    chaos_hook_ = std::move(hook);
  }

  // --- Introspection (safe after the tenant is idle or from the owner) ---

  [[nodiscard]] bool quarantined() const noexcept {
    return quarantined_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool draining() const noexcept {
    return draining_.load(std::memory_order_acquire);
  }
  [[nodiscard]] const std::string& quarantine_reason() const noexcept {
    return quarantine_reason_;
  }
  [[nodiscard]] const TenantStats& stats() const noexcept { return stats_; }
  [[nodiscard]] TenantWorld& world() noexcept { return world_; }
  /// Null when TenantConfig::durable is false.
  [[nodiscard]] engine::DurableSessionStore* durable_store() noexcept {
    return world_.durable();
  }

  /// Progress watermark readable from any thread (the soak starvation
  /// probe): completed requests PLUS recovery steps, so a tenant deep in
  /// a healing storm still counts as making progress.
  [[nodiscard]] std::uint64_t watermark() const noexcept {
    return watermark_.load(std::memory_order_acquire);
  }

 private:
  struct Queued {
    Request request;
    std::size_t frame_bytes = 0;
    CompletionFn done;
  };

  /// Applies one popped request to the world; returns its work-unit cost.
  std::size_t handle(Queued& queued);

  /// One recovery step of the world.
  std::size_t recovery_step();

  /// Fails every in-flight completion and seals the tenant.
  void quarantine(const std::string& why) noexcept;

  [[nodiscard]] Response status_response(RequestKind kind);
  void refresh_work_signal();
  void complete(CompletionFn& done, const Response& response);

  TenantId id_;
  std::atomic<std::uint64_t>* global_bytes_;  // daemon's queued-byte gauge

  mutable std::mutex queue_mu_;
  std::deque<Queued> queue_;

  std::atomic<bool> has_work_{false};
  std::atomic<bool> quarantined_{false};
  std::atomic<bool> draining_{false};
  std::atomic<std::uint64_t> watermark_{0};
  std::string quarantine_reason_;

  TenantWorld world_;  // touched only by the claiming worker
  /// Alert completions awaiting the world's return to NORMAL.
  std::vector<std::pair<CompletionFn, std::size_t>> pending_alert_done_;
  std::function<void()> chaos_hook_;
  TenantStats stats_;
};

}  // namespace selfheal::service
