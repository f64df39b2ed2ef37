// One isolated tenant of the workflow service daemon.
//
// A tenant is a complete self-healing world: its own object catalog,
// workflow specs, execution engine, self-healing controller, and (by
// default) a DurableSessionStore mirroring every committed step onto
// corruptible media. Tenants share NOTHING -- no catalog, no store, no
// log -- so one tenant's attack storm can contaminate and stall only
// itself; cross-tenant interference is bounded by the daemon's weighted
// round-robin scheduler alone.
//
// Work model (the determinism contract): the daemon guarantees at most
// one worker drives a tenant at a time, and step_once() follows a fixed
// priority --
//
//   1. while the controller is not NORMAL, execute ONE recovery step
//      (scan_one, else recover_one), each wrapped in a WAL batch so one
//      controller step is one WAL record;
//   2. otherwise pop and fully handle ONE queued request (FIFO). An
//      alert request additionally runs its SCAN in the same step (the
//      streaming dependence index makes it O(frontier)); scans never
//      mutate the engine, so this changes alert-to-plan latency only,
//      not the durable byte stream.
//
// Consequently a tenant's final engine state is a pure function of its
// own request arrival order -- worker count, other tenants' load, and
// scheduling jitter cannot reach it. That is what makes the drive-once
// oracle gate possible: a drained tenant must be byte-identical
// (session + effective store + WAL) to replaying the same requests
// directly against an engine + controller with no service machinery.
//
// Fault isolation: any exception escaping a step quarantines the tenant
// -- the open WAL batch is DISCARDED (abort_batch) so the media keeps
// only whole steps, every in-flight completion is failed explicitly,
// and admission rejects further work with "quarantined". The daemon and
// all other tenants keep running.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "selfheal/engine/durable_session.hpp"
#include "selfheal/engine/engine.hpp"
#include "selfheal/recovery/controller.hpp"
#include "selfheal/service/request.hpp"
#include "selfheal/wfspec/object_catalog.hpp"
#include "selfheal/wfspec/workflow_spec.hpp"

namespace selfheal::service {

struct TenantConfig {
  std::string name = "tenant";
  /// Weighted round-robin share: a tenant's deficit grows by
  /// weight * quantum_units per scheduling turn.
  std::uint32_t weight = 1;
  /// Bounded request queue: admission rejects with "queue_full" beyond
  /// this many queued requests.
  std::size_t queue_capacity = 64;
  engine::EngineConfig engine;
  /// Service tenants default to batched alerts: any alerts simultaneous
  /// in the controller queue merge into ONE frontier expansion (a single
  /// scan over the union of their malicious sets). The drive-once oracle
  /// consumes the same config, so the gate covers the batching path.
  recovery::ControllerConfig controller = [] {
    recovery::ControllerConfig c;
    c.batch_alerts = true;
    return c;
  }();
  /// Attach a DurableSessionStore (checkpoint at birth, one WAL record
  /// per step). Off for throwaway tenants in micro-tests.
  bool durable = true;
};

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

/// One tenant's workflow specs, parsed once per distinct DSL text. Storm
/// traces resubmit a handful of workflows, so a submission's spec is
/// usually a lookup and every run of a workflow shares one spec.
class SpecCache {
 public:
  /// The spec of `dsl` over `catalog`, parsed on first sight. Throws
  /// what wfspec::parse_workflow throws; a failed parse caches nothing.
  const wfspec::WorkflowSpec& intern(const std::string& dsl,
                                     wfspec::ObjectCatalog& catalog);
  /// Takes ownership of already-parsed specs (a loaded session's).
  void adopt(std::vector<std::unique_ptr<wfspec::WorkflowSpec>> specs);

 private:
  std::vector<std::unique_ptr<wfspec::WorkflowSpec>> specs_;
  std::unordered_map<std::string, const wfspec::WorkflowSpec*> by_dsl_;
};

class Tenant {
 public:
  Tenant(TenantId id, TenantConfig config,
         std::atomic<std::uint64_t>* global_bytes);
  ~Tenant();

  Tenant(const Tenant&) = delete;
  Tenant& operator=(const Tenant&) = delete;

  [[nodiscard]] TenantId id() const noexcept { return id_; }
  [[nodiscard]] const TenantConfig& config() const noexcept { return config_; }

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
  [[nodiscard]] engine::Engine& engine() noexcept { return *engine_; }
  [[nodiscard]] const engine::Engine& engine() const noexcept { return *engine_; }
  [[nodiscard]] recovery::SelfHealingController& controller() noexcept {
    return *controller_;
  }
  /// Null when TenantConfig::durable is false.
  [[nodiscard]] engine::DurableSessionStore* durable_store() noexcept {
    return durable_.get();
  }
  /// Arms (or clears) storage fault injection on the durable media.
  void set_storage_faults(storage::StorageFaultInjector* faults);

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

  /// Handles one popped request; returns its work-unit cost.
  std::size_t handle(Queued& queued);
  std::size_t handle_submit(Queued& queued);
  std::size_t handle_alert(Queued& queued);
  void handle_query(Queued& queued);
  void handle_drain(Queued& queued);

  /// One controller recovery step inside a WAL batch.
  std::size_t recovery_step();

  /// Fails every in-flight completion and seals the tenant.
  void quarantine(const std::string& why) noexcept;

  [[nodiscard]] Response status_response(RequestKind kind) const;
  void refresh_work_signal();
  void complete(CompletionFn& done, const Response& response);

  TenantId id_;
  TenantConfig config_;
  std::atomic<std::uint64_t>* global_bytes_;  // daemon's queued-byte gauge

  mutable std::mutex queue_mu_;
  std::deque<Queued> queue_;

  std::atomic<bool> has_work_{false};
  std::atomic<bool> quarantined_{false};
  std::atomic<bool> draining_{false};
  std::atomic<std::uint64_t> watermark_{0};
  std::string quarantine_reason_;

  // Engine world (touched only by the claiming worker).
  std::unique_ptr<wfspec::ObjectCatalog> catalog_;
  SpecCache specs_;
  std::unique_ptr<engine::Engine> engine_;
  std::unique_ptr<engine::DurableSessionStore> durable_;
  std::unique_ptr<recovery::SelfHealingController> controller_;
  std::vector<engine::RunId> runs_;  // tenant-local run index -> engine RunId
  /// Alert completions awaiting the controller's return to NORMAL.
  std::vector<std::pair<CompletionFn, std::size_t>> pending_alert_done_;
  std::function<void()> chaos_hook_;
  TenantStats stats_;
};

}  // namespace selfheal::service
