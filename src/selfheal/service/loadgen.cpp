#include "selfheal/service/loadgen.hpp"

#include <algorithm>

#include "selfheal/service/tenant.hpp"
#include "selfheal/util/rng.hpp"

namespace selfheal::service {

namespace {

/// One workload shape: DSL text plus the tasks an attack may mark.
/// Templates deliberately REUSE object names across runs (and across
/// templates: `x`), so a corrupted write in one run infects later runs
/// and the analyzer has real cross-run dependence chains to walk.
struct SpecTemplate {
  const char* dsl;
  std::vector<const char*> attack_tasks;
};

const std::vector<SpecTemplate>& spec_templates() {
  static const std::vector<SpecTemplate> kTemplates = {
      {"workflow pipeline\n"
       "task a writes x\n"
       "task b reads x writes y\n"
       "task c reads y writes z\n"
       "task d reads z x writes w\n"
       "edge a b\n"
       "edge b c\n"
       "edge c d\n",
       {"a", "b"}},
      {"workflow fork\n"
       "task src writes s\n"
       "task pick reads s x writes f selector s\n"
       "task left reads f\n"
       "task right reads f s\n"
       "edge src pick\n"
       "edge pick left right\n",
       {"src", "pick"}},
      {"workflow ledger\n"
       "task load reads x writes m\n"
       "task post reads y m writes n\n"
       "task close reads n writes p\n"
       "edge load post\n"
       "edge post close\n",
       {"load", "post"}},
  };
  return kTemplates;
}

}  // namespace

std::vector<TimedRequest> make_tenant_trace(const StormConfig& config,
                                            std::uint64_t tenant) {
  // Per-tenant stream: golden-ratio mix so tenant 0 and tenant 1 share
  // nothing even under the same storm seed.
  util::Rng rng(config.seed ^ ((tenant + 1) * 0x9e3779b97f4a7c15ULL));
  const auto& templates = spec_templates();

  std::vector<TimedRequest> trace;
  trace.reserve(config.submissions * 2);

  double now = 0.0;
  bool burst = false;
  double switch_at = now + rng.exponential(config.burst.quiet_to_burst);
  std::uint32_t run_index = 0;
  while (run_index < config.submissions) {
    const double rate =
        burst ? config.burst.lambda_burst : config.burst.lambda_quiet;
    const double arrival = now + rng.exponential(rate);
    if (arrival >= switch_at) {
      now = switch_at;
      burst = !burst;
      switch_at = now + rng.exponential(burst ? config.burst.burst_to_quiet
                                              : config.burst.quiet_to_burst);
      continue;
    }
    now = arrival;

    const auto& tmpl = templates[rng.index_into(templates)];
    TimedRequest submit;
    submit.at = now;
    submit.request.kind = RequestKind::kSubmitRun;
    submit.request.run_name = "run-" + std::to_string(run_index);
    submit.request.spec_dsl = tmpl.dsl;
    const bool attacked =
        rng.chance(burst ? config.attack_p_burst : config.attack_p_quiet);
    if (attacked) {
      AttackMark mark;
      mark.task = tmpl.attack_tasks[rng.index_into(tmpl.attack_tasks)];
      mark.incarnation = 1;
      submit.request.attacks.push_back(std::move(mark));
    }
    trace.push_back(std::move(submit));

    if (attacked) {
      TimedRequest alert;
      alert.at = now + rng.exponential(1.0 / config.mean_detection_delay);
      alert.request.kind = RequestKind::kAlert;
      alert.request.alert_run = run_index;
      trace.push_back(std::move(alert));
    }
    ++run_index;
  }

  // Alerts interleave with later submissions by detection time; stable
  // sort keeps the submit-before-its-own-alert order at equal times.
  std::stable_sort(trace.begin(), trace.end(),
                   [](const TimedRequest& a, const TimedRequest& b) {
                     return a.at < b.at;
                   });
  return trace;
}

TenantEndState capture_tenant_state(Tenant& tenant) {
  return tenant.world().capture();
}

TenantEndState run_drive_once_oracle(const TenantConfig& config,
                                     const std::vector<TimedRequest>& trace) {
  // No Tenant, no daemon: the oracle shares only the step contract with
  // the service -- requests apply in arrival order, recovery drains to
  // NORMAL first, one step per WAL batch, and a refused client error
  // changes nothing. TenantWorld IS that contract; the same class
  // applies the replicated shard's chosen log on every node.
  TenantWorld world(config);
  const auto heal_to_normal = [&] {
    while (!world.normal()) world.apply_step();
  };
  for (const auto& timed : trace) {
    heal_to_normal();
    world.apply(timed.request);
  }
  heal_to_normal();
  return world.capture();
}

}  // namespace selfheal::service
