// Random workflow workload generation.
//
// Produces structurally valid random WorkflowSpecs (single start, >= 1
// end, branch nodes with selectors, optional cross-workflow object
// sharing) and complete attacked scenarios (engine + runs + injected
// malicious tasks). Used by the property-based recovery tests and the
// full-system simulator/benches.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "selfheal/engine/engine.hpp"
#include "selfheal/util/rng.hpp"
#include "selfheal/wfspec/workflow_spec.hpp"

namespace selfheal::sim {

/// Reads per task are drawn from [1, kMaxReads]; the start task reads 0.
inline constexpr std::size_t kMaxReads = 3;
/// Writes per task are drawn from [1, kMaxWrites].
inline constexpr std::size_t kMaxWrites = 2;
/// Objects in the pool that every workflow may share.
inline constexpr std::size_t kSharedPoolSize = 8;

struct WorkloadConfig {
  std::size_t min_tasks = 6;
  std::size_t max_tasks = 14;
  /// Probability that a non-terminal task gets a second successor
  /// (becoming a branch node).
  double branch_prob = 0.35;
  /// Probability that a read/write uses the SHARED object pool rather
  /// than a workflow-private object (cross-workflow damage spreading).
  double shared_object_prob = 0.25;
  /// Probability of adding one loop (a back edge along a tree-ancestor
  /// chain). The loop head's branch selector is forced to an object the
  /// loop body rewrites every lap, so the exit re-rolls per incarnation
  /// and execution terminates with overwhelming probability; pair with a
  /// generous EngineConfig::max_incarnations.
  double loop_prob = 0.0;
};

class WorkloadGenerator {
 public:
  WorkloadGenerator(wfspec::ObjectCatalog& catalog, WorkloadConfig config = {});

  /// Generates one random validated workflow spec. Reads favour objects
  /// written by predecessor tasks, so flow dependences actually arise.
  [[nodiscard]] wfspec::WorkflowSpec generate(const std::string& name, util::Rng& rng);

 private:
  wfspec::ObjectCatalog* catalog_;
  WorkloadConfig config_;
};

/// A complete attacked execution: specs, engine, and the ground-truth
/// malicious instances. Non-copyable (the engine holds spec pointers).
struct AttackScenario {
  std::unique_ptr<wfspec::ObjectCatalog> catalog;
  std::vector<std::unique_ptr<wfspec::WorkflowSpec>> specs;
  std::unique_ptr<engine::Engine> engine;
  std::vector<engine::InstanceId> malicious;
};

/// Runs `n_workflows` random workflows with `n_attacks` malicious task
/// injections (each corrupting a random task of a random run), fully
/// deterministically from `seed`. Pass a generous
/// engine_config.max_incarnations when WorkloadConfig::loop_prob > 0.
/// A non-null `fault_injector` is installed before the workload runs and
/// stays installed on the returned engine.
[[nodiscard]] AttackScenario make_attack_scenario(
    std::uint64_t seed, std::size_t n_workflows, std::size_t n_attacks,
    WorkloadConfig config = {}, engine::EngineConfig engine_config = {},
    engine::FaultInjector fault_injector = {});

}  // namespace selfheal::sim
