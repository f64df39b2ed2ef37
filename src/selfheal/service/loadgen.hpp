// Open-loop workload generation and the drive-once oracle.
//
// make_tenant_trace() turns a StormConfig into a deterministic,
// virtually-timed request schedule: workflow submissions arrive as a
// 2-state Markov-modulated Poisson process (the repo's BurstModel --
// long quiet stretches, short attack storms), submissions landing in a
// burst carry attack marks with high probability, and every attacked
// submission is followed by an IDS alert after an exponential detection
// delay. The same (seed, tenant) pair always yields byte-identical
// traces, which is what makes the oracle gate below meaningful.
//
// run_drive_once_oracle() replays a trace through one bare TenantWorld
// -- no daemon, no queues, no scheduler, no threads -- honouring the
// tenant step contract (recovery drains to NORMAL before the next
// request; one step, one WAL batch; client errors refused). A drained
// service tenant that was fed the same trace must match it byte for
// byte: session text, WAL bytes, and effective store
// (TenantEndState::identical). Any divergence means the service
// machinery leaked into tenant semantics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "selfheal/ctmc/mmpp_stg.hpp"
#include "selfheal/service/request.hpp"
#include "selfheal/service/world.hpp"

namespace selfheal::service {

class Tenant;

/// One scheduled request: `at` is virtual seconds from storm start. The
/// open-loop bench maps virtual to wall-clock time; determinism tests
/// ignore `at` and use order alone.
struct TimedRequest {
  double at = 0.0;
  Request request;
};

struct StormConfig {
  std::uint64_t seed = 1;
  /// Workflow submissions in the trace (alerts ride along on top).
  std::size_t submissions = 64;
  /// Arrival modulation: lambda_quiet / lambda_burst are the submission
  /// rates (per virtual second) in each mode; the switching rates set
  /// storm dwell times.
  ctmc::BurstModel burst;
  /// Probability a submission carries attack marks, per mode.
  double attack_p_quiet = 0.05;
  double attack_p_burst = 0.9;
  /// Mean IDS detection delay (virtual seconds) from attacked
  /// submission to its alert.
  double mean_detection_delay = 0.25;
};

/// Deterministic trace for one tenant: same (config.seed, tenant) in,
/// same requests out. Trace run indices assume every submission is
/// accepted (submit with retry-until-accepted to preserve them).
[[nodiscard]] std::vector<TimedRequest> make_tenant_trace(
    const StormConfig& config, std::uint64_t tenant);

/// Captures a (drained, idle) service tenant's end state.
[[nodiscard]] TenantEndState capture_tenant_state(Tenant& tenant);

/// Replays `trace` through a bare TenantWorld built from `config`
/// (queue fields ignored) and captures the end state.
[[nodiscard]] TenantEndState run_drive_once_oracle(
    const TenantConfig& config, const std::vector<TimedRequest>& trace);

}  // namespace selfheal::service
