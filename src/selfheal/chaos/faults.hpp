// Seeded task-fault schedules for the chaos harness.
//
// A TaskFaultPlan decides, for every execution attempt the engine makes,
// whether the attempt fails transiently (the engine retries it), fails
// permanently (the run aborts -- graceful degradation), or succeeds.
// Decisions are STATELESS hashes of (seed, run, task, incarnation):
// the same campaign seed produces the same fault pattern regardless of
// call order, interleaving, or how often the engine re-consults the
// plan -- the determinism contract every chaos campaign relies on.
#pragma once

#include <cstddef>
#include <cstdint>

#include "selfheal/engine/engine.hpp"

namespace selfheal::chaos {

/// Failed attempts a transient fault lasts for (attempt 1..duration
/// fail, attempt duration+1 succeeds).
inline constexpr int kTransientDuration = 2;

struct TaskFaultConfig {
  /// Probability that a task instance fails transiently. Transient
  /// faults clear after kTransientDuration failed attempts, so the
  /// engine's retries recover them (unless its kMaxTaskRetries are
  /// exhausted first, which escalates to an abort).
  double transient_rate = 0.0;
  /// Probability that a task instance fails permanently: every attempt
  /// fails, the engine aborts the run, and the rest of the system keeps
  /// going (graceful degradation).
  double permanent_rate = 0.0;

  [[nodiscard]] bool enabled() const {
    return transient_rate > 0.0 || permanent_rate > 0.0;
  }
};

class TaskFaultPlan {
 public:
  TaskFaultPlan(std::uint64_t seed, TaskFaultConfig config)
      : seed_(seed), config_(config) {}

  /// The fate of one execution attempt. Counts each faulted instance
  /// once (on its first attempt).
  engine::TaskFault decide(engine::RunId run, wfspec::TaskId task,
                           int incarnation, int attempt);

  /// An engine::FaultInjector bound to this plan. The plan must outlive
  /// the engine it is installed into.
  [[nodiscard]] engine::FaultInjector injector();

  [[nodiscard]] std::size_t transient_injected() const noexcept {
    return transient_injected_;
  }
  [[nodiscard]] std::size_t permanent_injected() const noexcept {
    return permanent_injected_;
  }

 private:
  std::uint64_t seed_;
  TaskFaultConfig config_;
  std::size_t transient_injected_ = 0;
  std::size_t permanent_injected_ = 0;
};

}  // namespace selfheal::chaos
