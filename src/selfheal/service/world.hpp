// One tenant's world: the deterministic state machine of the paper's
// Fig. 2 controller, run by every service tenant, by the drive-once
// oracle and by every replica of the replicated recovery controller.
//
// TenantWorld owns exactly what one tenant's semantics need -- object
// catalog, spec cache, engine, self-healing controller, and (by
// default) a DurableSessionStore -- with none of the service machinery
// (no queues, no scheduler, no threads). Its two operations are the
// tenant step contract:
//
//   * apply(request)  -- handle one submit/alert in arrival order
//     (query/drain have no engine effect). A submit step is one WAL
//     batch closed by the checkpoint policy; an alert hands the run's
//     malicious instances to the controller.
//   * apply_step()    -- one controller recovery step (scan_one, else
//     recover_one) wrapped in a WAL batch: one step, one WAL record.
//
// Callers apply requests only in NORMAL, after apply_step() has healed
// the world back to it, so a normal task never runs before recovery
// completes (Theorem 4 by construction).
//
// Client errors -- a malformed spec, an attack mark naming no task of
// its spec, an alert for an unknown run -- are refused before anything
// is mutated: apply() reports the refusal and catalog, engine and media
// are exactly as before. Any other exception is a fault: the step's open
// WAL batch is discarded before it propagates, so the media keeps only
// whole steps and the next batch starts empty.
//
// Replaying the same command sequence through any TenantWorld yields
// byte-identical session text, WAL, and effective store -- the property
// the drive-once oracle gate and the replication layer's quorum/oracle
// equivalence gate rest on.
//
// export_state()/import_state() serialise the complete world (session
// text + durable media + run index) for replica snapshot transfer; both
// are only legal at a NORMAL boundary, where the controller queues are
// empty and the world is fully described by its durable artifacts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "selfheal/engine/durable_session.hpp"
#include "selfheal/engine/engine.hpp"
#include "selfheal/engine/value.hpp"
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
  recovery::ControllerConfig controller;
  /// Attach a DurableSessionStore (snapshot at birth, one WAL record
  /// per step, snapshots by the checkpoint policy). Off for throwaway
  /// tenants in micro-tests.
  bool durable = true;
};

/// Everything the byte-identity gate compares, captured after a drain.
struct TenantEndState {
  std::string session;                // session_io text of the live engine
  std::string wal;                    // DurableSessionStore WAL bytes
  std::vector<engine::Value> store;   // final value per object (effective)
  std::size_t log_entries = 0;
  std::size_t scans = 0;
  std::size_t recoveries = 0;
  bool strict_correct = false;        // Definition 2 via CorrectnessChecker

  /// The gate: byte-identical durable + live state.
  [[nodiscard]] bool identical(const TenantEndState& other) const {
    return session == other.session && wal == other.wal &&
           store == other.store;
  }
};

/// The capture primitive behind TenantWorld::capture, shared with the
/// replication layer's per-node captures.
[[nodiscard]] TenantEndState capture_end_state(
    engine::Engine& engine, engine::DurableSessionStore* durable,
    const recovery::ControllerStats& stats);

/// One tenant's workflow specs, parsed once per distinct DSL text. Storm
/// traces resubmit a handful of workflows, so a submission's spec is
/// usually a lookup and every run of a workflow shares one spec.
class SpecCache {
 public:
  /// The spec of `dsl`, or null if it was never interned.
  [[nodiscard]] const wfspec::WorkflowSpec* find(const std::string& dsl) const;
  /// Parses `dsl`, which find() does not know yet, over `catalog` and
  /// caches it. Throws what wfspec::parse_workflow throws.
  const wfspec::WorkflowSpec& intern(const std::string& dsl,
                                     wfspec::ObjectCatalog& catalog);
  /// Takes ownership of already-parsed specs (a loaded session's).
  void adopt(std::vector<std::unique_ptr<wfspec::WorkflowSpec>> specs);

 private:
  std::vector<std::unique_ptr<wfspec::WorkflowSpec>> specs_;
  std::unordered_map<std::string, const wfspec::WorkflowSpec*> by_dsl_;
};

/// What TenantWorld::apply() did with one request.
struct Applied {
  /// A client error refused the request and nothing was mutated;
  /// `error` says why.
  bool refused = false;
  std::string error;
  engine::RunId run = 0;               // submit: the run it started
  std::size_t tasks_executed = 0;      // submit: log entries it committed
  std::size_t malicious_reported = 0;  // alert: instances it reported
};

class TenantWorld {
 public:
  explicit TenantWorld(const TenantConfig& config);
  ~TenantWorld();

  TenantWorld(const TenantWorld&) = delete;
  TenantWorld& operator=(const TenantWorld&) = delete;

  /// Handles one request in arrival order. kSubmitRun parses, starts,
  /// attacks, and runs the workflow in one WAL batch, then checkpoints
  /// (one record, or a snapshot by policy); kAlert resolves the run's
  /// malicious instances and submits them to the controller;
  /// kQuery/kDrain have no engine effect. Client errors are refused
  /// (see the header comment); anything else that throws propagates
  /// with the step's WAL batch discarded.
  Applied apply(const Request& request);

  /// One controller step (scan_one, else recover_one) inside a WAL
  /// batch; returns its work units. Throws std::logic_error if the
  /// controller has nothing to do.
  std::size_t apply_step();

  [[nodiscard]] recovery::SystemState state() const {
    return controller_->state();
  }
  [[nodiscard]] bool normal() const {
    return state() == recovery::SystemState::kNormal;
  }
  [[nodiscard]] const TenantConfig& config() const noexcept { return config_; }
  [[nodiscard]] engine::Engine& engine() { return *engine_; }
  [[nodiscard]] recovery::SelfHealingController& controller() {
    return *controller_;
  }
  [[nodiscard]] const recovery::ControllerStats& stats() const {
    return controller_->stats();
  }
  /// Null when TenantConfig::durable is false.
  [[nodiscard]] engine::DurableSessionStore* durable() {
    return durable_.get();
  }

  /// End state for the byte-identity gate (session + WAL + store).
  [[nodiscard]] TenantEndState capture();

  /// Serialises the complete world. Only legal in NORMAL state.
  [[nodiscard]] std::string export_state() const;
  /// Replaces this world with an export_state() blob: the imported
  /// world's future applies are byte-identical to the source's. Throws
  /// std::invalid_argument on malformed input.
  void import_state(std::string_view blob);

 private:
  Applied submit(const Request& request);
  Applied alert(const Request& request);

  TenantConfig config_;
  std::unique_ptr<wfspec::ObjectCatalog> catalog_;
  SpecCache specs_;
  std::unique_ptr<engine::Engine> engine_;
  std::unique_ptr<engine::DurableSessionStore> durable_;
  std::unique_ptr<recovery::SelfHealingController> controller_;
};

}  // namespace selfheal::service
