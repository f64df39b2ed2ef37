#include "selfheal/chaos/faults.hpp"

#include "selfheal/util/fault_schedule.hpp"
#include "selfheal/util/rng.hpp"

namespace selfheal::chaos {

engine::TaskFault TaskFaultPlan::decide(engine::RunId run, wfspec::TaskId task,
                                        int incarnation, int attempt) {
  if (!config_.enabled()) return engine::TaskFault::kNone;
  const double u = util::schedule_uniform(
      seed_, util::mix64(static_cast<std::uint64_t>(run) << 32 |
                             static_cast<std::uint32_t>(task),
                         static_cast<std::uint64_t>(incarnation)));
  if (u < config_.permanent_rate) {
    if (attempt == 1) ++permanent_injected_;
    return engine::TaskFault::kPermanent;
  }
  if (u < config_.permanent_rate + config_.transient_rate) {
    if (attempt == 1) ++transient_injected_;
    if (attempt <= kTransientDuration) return engine::TaskFault::kTransient;
  }
  return engine::TaskFault::kNone;
}

engine::FaultInjector TaskFaultPlan::injector() {
  return [this](engine::RunId run, wfspec::TaskId task, int incarnation,
                int attempt) { return decide(run, task, incarnation, attempt); };
}

}  // namespace selfheal::chaos
