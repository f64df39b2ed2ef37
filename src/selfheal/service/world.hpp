// A bare tenant world: the deterministic state machine behind both the
// drive-once oracle and the replicated recovery controller.
//
// TenantWorld owns exactly what one tenant's semantics need -- object
// catalog, specs, engine, self-healing controller, and (by default) a
// DurableSessionStore -- with none of the service machinery (no queues,
// no scheduler, no threads). Its two operations mirror the tenant step
// contract:
//
//   * apply(request)  -- handle one submit/alert in arrival order
//     (query/drain have no engine effect). A submit step ends in a
//     checkpoint; an alert enqueues the run's malicious instances.
//   * apply_step()    -- one controller recovery step (scan_one, else
//     recover_one) wrapped in a WAL batch: one step, one WAL record.
//
// Replaying the same command sequence through any TenantWorld yields
// byte-identical session text, WAL, and effective store -- that is the
// property the replication layer's quorum/oracle equivalence gate rests
// on: every replica applies the chosen log through its own world, and
// all of them must land on the oracle's bytes.
//
// export_state()/import_state() serialise the complete world (session
// text + durable media + run index) for replica snapshot transfer; both
// are only legal at a NORMAL boundary, where the controller queues are
// empty and the world is fully described by its durable artifacts.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "selfheal/engine/durable_session.hpp"
#include "selfheal/engine/engine.hpp"
#include "selfheal/recovery/controller.hpp"
#include "selfheal/service/loadgen.hpp"
#include "selfheal/service/request.hpp"
#include "selfheal/service/tenant.hpp"
#include "selfheal/wfspec/object_catalog.hpp"

namespace selfheal::service {

class TenantWorld {
 public:
  explicit TenantWorld(const TenantConfig& config);
  ~TenantWorld();

  TenantWorld(const TenantWorld&) = delete;
  TenantWorld& operator=(const TenantWorld&) = delete;

  /// Handles one request in arrival order. kSubmitRun parses, starts,
  /// attacks, and runs the workflow, then checkpoints (the WAL cannot
  /// replay spec/run creation); kAlert resolves the run's malicious
  /// instances and submits them to the controller; kQuery/kDrain have
  /// no engine effect. Throws std::out_of_range for an unknown alert
  /// run and propagates parse failures.
  void apply(const Request& request);

  /// One controller step (scan_one, else recover_one) inside a WAL
  /// batch. Throws std::logic_error if the controller has nothing to do.
  void apply_step();

  [[nodiscard]] recovery::SystemState state() const {
    return controller_->state();
  }
  [[nodiscard]] bool normal() const {
    return state() == recovery::SystemState::kNormal;
  }
  [[nodiscard]] std::size_t runs() const { return runs_.size(); }
  [[nodiscard]] engine::Engine& engine() { return *engine_; }
  [[nodiscard]] const recovery::ControllerStats& stats() const {
    return controller_->stats();
  }
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
  void import_state(const std::string& blob);

 private:
  TenantConfig config_;
  std::unique_ptr<wfspec::ObjectCatalog> catalog_;
  SpecCache specs_;
  std::unique_ptr<engine::Engine> engine_;
  std::unique_ptr<engine::DurableSessionStore> durable_;
  std::unique_ptr<recovery::SelfHealingController> controller_;
  std::vector<engine::RunId> runs_;  // n-th submission -> engine RunId
};

}  // namespace selfheal::service
