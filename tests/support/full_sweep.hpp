// The reference recovery executor: the full sweep the cone replay
// replaced. Every plan rebuilds the effective index, replays EVERY run
// from its spec start against a clean timeline, and reconciles every
// object. It is O(log x runs) per plan and kept only as the
// specification the differential tests hold RecoveryScheduler to: same
// commits, same bytes, same outcome fields apart from work_units.
#pragma once

#include "selfheal/engine/engine.hpp"
#include "selfheal/recovery/plan.hpp"
#include "selfheal/recovery/scheduler.hpp"

namespace selfheal::testing {

/// Executes `plan` on `engine` with the full sweep. `clean_reads` as in
/// recovery::SchedulerOptions.
recovery::RecoveryOutcome full_sweep_execute(engine::Engine& engine,
                                             const recovery::RecoveryPlan& plan,
                                             bool clean_reads = true);

}  // namespace selfheal::testing
