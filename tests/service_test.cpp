// Service daemon tests: wire framing, admission control tokens, the
// drive-once byte-identity gate (25 seeds x {inline, threaded}),
// weighted fairness in deterministic virtual time, and quarantine
// isolation (a throwing tenant must not take down the daemon, and its
// WAL must stay intact and replayable).
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "selfheal/deps/dependency.hpp"
#include "selfheal/engine/durable_session.hpp"
#include "selfheal/engine/session_io.hpp"
#include "selfheal/obs/metrics.hpp"
#include "selfheal/recovery/analyzer.hpp"
#include "selfheal/recovery/correctness.hpp"
#include "selfheal/recovery/scheduler.hpp"
#include "selfheal/service/client.hpp"
#include "selfheal/service/daemon.hpp"
#include "selfheal/service/loadgen.hpp"
#include "selfheal/storage/crc32c.hpp"
#include "selfheal/wfspec/object_catalog.hpp"
#include "selfheal/wfspec/parser.hpp"

namespace selfheal {
namespace {

using service::Ack;
using service::AttackMark;
using service::RejectReason;
using service::Request;
using service::RequestKind;
using service::Response;
using service::ServiceClient;
using service::ServiceConfig;
using service::ServiceDaemon;
using service::TenantConfig;

const char* kPipelineDsl =
    "workflow pipeline\n"
    "task a writes x\n"
    "task b reads x writes y\n"
    "task c reads y writes z\n"
    "edge a b\n"
    "edge b c\n";

Request make_submit(const std::string& name, bool attacked = false) {
  Request request;
  request.kind = RequestKind::kSubmitRun;
  request.run_name = name;
  request.spec_dsl = kPipelineDsl;
  if (attacked) request.attacks.push_back(AttackMark{"a", 1});
  return request;
}

std::string session_text(const engine::Engine& engine) {
  std::ostringstream out;
  engine::save_session(engine, out);
  return out.str();
}

// --- Framing ---

TEST(ServiceFraming, RoundTripsEveryKind) {
  Request submit = make_submit("r0", true);
  submit.attacks.push_back(AttackMark{"b", 2});
  const auto decoded = service::decode_frame(service::encode_frame(submit));
  EXPECT_EQ(decoded.kind, RequestKind::kSubmitRun);
  EXPECT_EQ(decoded.run_name, "r0");
  EXPECT_EQ(decoded.spec_dsl, submit.spec_dsl);
  ASSERT_EQ(decoded.attacks.size(), 2u);
  EXPECT_EQ(decoded.attacks[0].task, "a");
  EXPECT_EQ(decoded.attacks[1].task, "b");
  EXPECT_EQ(decoded.attacks[1].incarnation, 2);

  Request alert;
  alert.kind = RequestKind::kAlert;
  alert.alert_run = 17;
  const auto alert2 = service::decode_frame(service::encode_frame(alert));
  EXPECT_EQ(alert2.kind, RequestKind::kAlert);
  EXPECT_EQ(alert2.alert_run, 17u);

  for (const auto kind : {RequestKind::kQuery, RequestKind::kDrain}) {
    Request request;
    request.kind = kind;
    EXPECT_EQ(service::decode_frame(service::encode_frame(request)).kind, kind);
  }
}

TEST(ServiceFraming, RejectsDamage) {
  const auto frame = service::encode_frame(make_submit("r0"));
  // Bit flip in the payload: checksum catches it.
  std::string flipped = frame;
  flipped[frame.size() - 2] ^= 0x10;
  EXPECT_THROW((void)service::decode_frame(flipped), std::invalid_argument);
  // Truncation: length mismatch.
  EXPECT_THROW((void)service::decode_frame(frame.substr(0, frame.size() - 3)),
               std::invalid_argument);
  // Wrong magic.
  std::string magic = frame;
  magic[0] = 'X';
  EXPECT_THROW((void)service::decode_frame(magic), std::invalid_argument);
  // Garbage.
  EXPECT_THROW((void)service::decode_frame("not a frame"),
               std::invalid_argument);
  EXPECT_THROW((void)service::decode_frame(""), std::invalid_argument);
  // Hostile header: absurd length must be rejected before allocation.
  EXPECT_THROW((void)service::decode_frame("shf1 99999999999 00000000\nx"),
               std::invalid_argument);
}

TEST(ServiceFraming, RejectsTrailingDataAfterSpecBlock) {
  const auto frame_of = [](const std::string& payload) {
    char header[64];
    std::snprintf(header, sizeof(header), "shf1 %zu %08x\n", payload.size(),
                  storage::crc32c(payload));
    return std::string(header) + payload;
  };
  const std::string good = "submit r0\nspec 1\nworkflow w\n";
  EXPECT_EQ(service::decode_frame(frame_of(good)).kind,
            RequestKind::kSubmitRun);
  // Junk directly after the spec block.
  EXPECT_THROW((void)service::decode_frame(frame_of(good + "junk\n")),
               std::invalid_argument);
  // A blank line must not smuggle trailing data past the check.
  EXPECT_THROW((void)service::decode_frame(frame_of(good + "\njunk\n")),
               std::invalid_argument);
  EXPECT_THROW((void)service::decode_frame(frame_of(good + "\n\n\njunk\n")),
               std::invalid_argument);
  // Trailing blank lines alone stay acceptable.
  EXPECT_EQ(service::decode_frame(frame_of(good + "\n\n")).kind,
            RequestKind::kSubmitRun);
}

TEST(ServiceFraming, RejectTokensAreStable) {
  // The wire contract: machine-readable, grep-stable reason tokens.
  EXPECT_STREQ(service::to_token(RejectReason::kQueueFull), "queue_full");
  EXPECT_STREQ(service::to_token(RejectReason::kByteBudget), "byte_budget");
  EXPECT_STREQ(service::to_token(RejectReason::kQuarantined), "quarantined");
  EXPECT_STREQ(service::to_token(RejectReason::kDraining), "draining");
  EXPECT_STREQ(service::to_token(RejectReason::kUnknownTenant),
               "unknown_tenant");
  EXPECT_STREQ(service::to_token(RejectReason::kBadFrame), "bad_frame");
  EXPECT_STREQ(service::to_token(RejectReason::kStopped), "stopped");
  EXPECT_STREQ(service::to_token(RejectReason::kRedirected), "redirected");
}

// --- Admission control ---

TEST(ServiceAdmission, QueueFullRejectionCarriesReason) {
  ServiceConfig config;
  config.workers = 0;  // inline: nothing drains the queue during the test
  ServiceDaemon daemon(config);
  TenantConfig tenant;
  tenant.queue_capacity = 2;
  const auto id = daemon.add_tenant(tenant);

  const auto frame = service::encode_frame(make_submit("r"));
  EXPECT_TRUE(daemon.submit(id, frame).accepted);
  EXPECT_TRUE(daemon.submit(id, frame).accepted);
  const Ack ack = daemon.submit(id, frame);
  EXPECT_FALSE(ack.accepted);
  EXPECT_EQ(ack.reason, RejectReason::kQueueFull);
  EXPECT_STREQ(ack.reason_token(), "queue_full");
  EXPECT_EQ(ack.queue_depth, 0u);  // depth reported only on accept
  EXPECT_EQ(daemon.stats().rejected_queue_full, 1u);

  // The queue drains inline and the tenant accepts again.
  daemon.run_until_idle();
  EXPECT_TRUE(daemon.submit(id, frame).accepted);
}

TEST(ServiceAdmission, ByteBudgetRejectionCarriesReason) {
  ServiceConfig config;
  config.workers = 0;
  const auto frame = service::encode_frame(make_submit("r"));
  config.byte_budget = frame.size() + frame.size() / 2;  // fits exactly one
  ServiceDaemon daemon(config);
  const auto a = daemon.add_tenant(TenantConfig{});
  const auto b = daemon.add_tenant(TenantConfig{});

  EXPECT_TRUE(daemon.submit(a, frame).accepted);
  const Ack ack = daemon.submit(b, frame);  // global budget, other tenant
  EXPECT_FALSE(ack.accepted);
  EXPECT_EQ(ack.reason, RejectReason::kByteBudget);
  EXPECT_STREQ(ack.reason_token(), "byte_budget");
  EXPECT_EQ(daemon.stats().rejected_byte_budget, 1u);

  // Popping the queued frame releases its bytes.
  daemon.run_until_idle();
  EXPECT_EQ(daemon.queued_bytes(), 0u);
  EXPECT_TRUE(daemon.submit(b, frame).accepted);
}

TEST(ServiceAdmission, UnknownTenantAndBadFrame) {
  ServiceDaemon daemon(ServiceConfig{0, 8u << 20, 32});
  const auto id = daemon.add_tenant(TenantConfig{});
  EXPECT_EQ(daemon.submit(id + 7, service::encode_frame(make_submit("r")))
                .reason,
            RejectReason::kUnknownTenant);
  EXPECT_EQ(daemon.submit(id, "shf1 corrupted").reason,
            RejectReason::kBadFrame);
  EXPECT_EQ(daemon.stats().rejected_bad_frame, 1u);
}

TEST(ServiceAdmission, DrainSealsTheTenant) {
  ServiceDaemon daemon(ServiceConfig{0, 8u << 20, 32});
  const auto id = daemon.add_tenant(TenantConfig{});
  ServiceClient client(daemon, id);

  EXPECT_TRUE(client.call(make_submit("r0")).ok);
  Request drain;
  drain.kind = RequestKind::kDrain;
  const auto response = client.call(drain);
  EXPECT_TRUE(response.ok);
  EXPECT_TRUE(response.draining);

  const Ack ack = daemon.submit(id, service::encode_frame(make_submit("r1")));
  EXPECT_FALSE(ack.accepted);
  EXPECT_STREQ(ack.reason_token(), "draining");
}

TEST(ServiceAdmission, QueryReportsStatus) {
  ServiceDaemon daemon(ServiceConfig{0, 8u << 20, 32});
  const auto id = daemon.add_tenant(TenantConfig{});
  ServiceClient client(daemon, id);
  EXPECT_TRUE(client.call(make_submit("r0", true)).ok);

  Request query;
  query.kind = RequestKind::kQuery;
  const auto status = client.call(query);
  EXPECT_TRUE(status.ok);
  EXPECT_EQ(status.state, "NORMAL");
  EXPECT_GT(status.log_entries, 0u);
  EXPECT_FALSE(status.quarantined);
}

TEST(ServiceAdmission, MalformedSpecIsClientErrorNotQuarantine) {
  ServiceDaemon daemon(ServiceConfig{0, 8u << 20, 32});
  const auto id = daemon.add_tenant(TenantConfig{});
  ServiceClient client(daemon, id);

  Request bad = make_submit("r0");
  bad.spec_dsl = "workflow broken\nbogus line here\n";
  const auto response = client.call(bad);
  EXPECT_FALSE(response.ok);
  EXPECT_FALSE(response.error.empty());
  EXPECT_FALSE(daemon.tenant(id).quarantined());
  // And an attack naming a missing task is equally non-fatal.
  Request ghost = make_submit("r1");
  ghost.attacks.push_back(AttackMark{"no-such-task", 1});
  EXPECT_FALSE(client.call(ghost).ok);
  EXPECT_FALSE(daemon.tenant(id).quarantined());
  // The tenant still works.
  EXPECT_TRUE(client.call(make_submit("r2")).ok);
  EXPECT_EQ(daemon.tenant(id).stats().client_errors, 2u);
}

// --- Byte identity vs the drive-once oracle ---

TEST(ServiceOracle, ByteIdentical25SeedsAtAnyWorkerCount) {
  // The correctness anchor: a drained tenant must be byte-identical
  // (session + WAL + effective store) to replaying its request sequence
  // directly on an engine + controller, at EVERY worker count.
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    service::StormConfig storm;
    storm.seed = seed;
    storm.submissions = 10;
    const auto trace = service::make_tenant_trace(storm, 0);
    const auto oracle = service::run_drive_once_oracle(TenantConfig{}, trace);
    EXPECT_TRUE(oracle.strict_correct) << "seed " << seed;

    for (const std::size_t workers : {std::size_t{0}, std::size_t{2}}) {
      ServiceConfig config;
      config.workers = workers;
      ServiceDaemon daemon(config);
      const auto id = daemon.add_tenant(TenantConfig{});
      daemon.start();
      ServiceClient client(daemon, id);
      for (const auto& timed : trace) {
        ASSERT_TRUE(client.call(timed.request).ok)
            << "seed " << seed << " workers " << workers;
      }
      EXPECT_TRUE(daemon.drain_all());
      daemon.stop();
      const auto state = service::capture_tenant_state(daemon.tenant(id));
      EXPECT_TRUE(state.identical(oracle))
          << "seed " << seed << " workers " << workers
          << " session=" << (state.session == oracle.session)
          << " wal=" << (state.wal == oracle.wal)
          << " store=" << (state.store == oracle.store);
      EXPECT_TRUE(state.strict_correct);
      EXPECT_EQ(state.scans, oracle.scans);
      EXPECT_EQ(state.recoveries, oracle.recoveries);
    }
  }
}

TEST(ServiceOracle, MultiTenantIsolationUnderThreads) {
  // Three tenants with different storms, four workers, one submitter
  // per tenant: each tenant must still match ITS OWN oracle exactly --
  // neighbours and scheduling jitter cannot leak into tenant state.
  service::StormConfig storm;
  storm.seed = 99;
  storm.submissions = 12;

  ServiceConfig config;
  config.workers = 4;
  ServiceDaemon daemon(config);
  std::vector<service::TenantId> ids;
  std::vector<std::vector<service::TimedRequest>> traces;
  for (std::size_t t = 0; t < 3; ++t) {
    ids.push_back(daemon.add_tenant(TenantConfig{}));
    traces.push_back(service::make_tenant_trace(storm, t));
  }
  daemon.start();

  std::vector<std::thread> submitters;
  std::atomic<int> failures{0};
  for (std::size_t t = 0; t < 3; ++t) {
    submitters.emplace_back([&, t] {
      ServiceClient client(daemon, ids[t]);
      for (const auto& timed : traces[t]) {
        if (!client.call(timed.request).ok) failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(daemon.drain_all());
  daemon.stop();

  for (std::size_t t = 0; t < 3; ++t) {
    const auto oracle =
        service::run_drive_once_oracle(TenantConfig{}, traces[t]);
    const auto state =
        service::capture_tenant_state(daemon.tenant(ids[t]));
    EXPECT_TRUE(state.identical(oracle)) << "tenant " << t;
    EXPECT_TRUE(state.strict_correct) << "tenant " << t;
  }
}

TEST(ServiceConcurrency, ConcurrentIngestWhileScanStaysIncremental) {
  // TSan coverage for the streaming path: four tenants on four workers,
  // each fed an alert-heavy storm by its own submitter thread. Worker
  // threads run in-step scans (frontier reads + taint ingest) while
  // submitters and neighbouring tenants keep appending, so every shared
  // surface -- metrics registry, scheduler, queue handoff -- sees real
  // ingest-while-scan interleavings. Each tenant must end strictly
  // correct, and steady-state scans must never fall back to a full
  // dependence rebuild (one attach rebuild per tenant is allowed).
  service::StormConfig storm;
  storm.seed = 4242;
  storm.submissions = 24;
  storm.attack_p_quiet = 0.3;

  ServiceConfig config;
  config.workers = 4;
  ServiceDaemon daemon(config);
  constexpr std::size_t kTenants = 4;
  std::vector<service::TenantId> ids;
  std::vector<std::vector<service::TimedRequest>> traces;
  for (std::size_t t = 0; t < kTenants; ++t) {
    ids.push_back(daemon.add_tenant(TenantConfig{}));
    traces.push_back(service::make_tenant_trace(storm, t));
  }
  const auto rebuilds_before =
      obs::metrics().counter("deps.full_rebuilds").value();
  const auto tags_before =
      obs::metrics().counter("deps.stream_tags_propagated").value();

  daemon.start();
  std::vector<std::thread> submitters;
  std::atomic<int> failures{0};
  for (std::size_t t = 0; t < kTenants; ++t) {
    submitters.emplace_back([&, t] {
      ServiceClient client(daemon, ids[t]);
      for (const auto& timed : traces[t]) {
        if (!client.call(timed.request).ok) failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(daemon.drain_all());
  daemon.stop();

  std::uint64_t alerts = 0;
  for (std::size_t t = 0; t < kTenants; ++t) {
    auto& tenant = daemon.tenant(ids[t]);
    alerts += tenant.stats().alerts_submitted;
    const auto state = service::capture_tenant_state(tenant);
    EXPECT_TRUE(state.strict_correct) << "tenant " << t;
  }
  ASSERT_GT(alerts, 0u) << "storm produced no alerts; raise attack_p";
  const auto rebuilds =
      obs::metrics().counter("deps.full_rebuilds").value() - rebuilds_before;
  EXPECT_LE(rebuilds, kTenants);
  EXPECT_GT(obs::metrics().counter("deps.stream_tags_propagated").value(),
            tags_before);
}

// --- Weighted fairness in deterministic virtual time ---

TEST(ServiceFairness, SaturatorCannotExceedWeightShare) {
  // Inline mode is deterministic: virtual time is the count of work
  // units dispatched. A weight-1 saturator flooding its queue must not
  // delay the weight-3 victim's alert-to-recovered beyond its share:
  // when the victim's alert completes, the saturator can have consumed
  // at most (w_sat / w_vic) of the victim's units, plus DRR slack
  // (one quantum of credit per tenant and one step of overshoot).
  ServiceConfig config;
  config.workers = 0;
  config.quantum_units = 4;
  ServiceDaemon daemon(config);

  TenantConfig saturator_config;
  saturator_config.name = "saturator";
  saturator_config.weight = 1;
  saturator_config.queue_capacity = 512;
  const auto saturator = daemon.add_tenant(saturator_config);

  TenantConfig victim_config;
  victim_config.name = "victim";
  victim_config.weight = 3;
  victim_config.queue_capacity = 512;
  const auto victim = daemon.add_tenant(victim_config);

  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(daemon
                    .submit(saturator, service::encode_frame(
                                           make_submit("s" + std::to_string(i))))
                    .accepted);
  }
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(daemon
                    .submit(victim, service::encode_frame(make_submit(
                                        "v" + std::to_string(i), i == 29)))
                    .accepted);
  }
  Request alert;
  alert.kind = RequestKind::kAlert;
  alert.alert_run = 29;

  std::uint64_t saturator_units_at_heal = 0;
  std::uint64_t victim_units_at_heal = 0;
  std::size_t saturator_backlog_at_heal = 0;
  bool healed = false;
  const auto done = [&](const Response& response) {
    ASSERT_TRUE(response.ok);
    healed = true;
    saturator_units_at_heal =
        daemon.tenant(saturator).stats().service_units;
    victim_units_at_heal = daemon.tenant(victim).stats().service_units;
    saturator_backlog_at_heal = daemon.tenant(saturator).queue_depth();
  };
  ASSERT_TRUE(
      daemon.submit(victim, service::encode_frame(alert), done).accepted);

  daemon.run_until_idle();
  ASSERT_TRUE(healed);
  ASSERT_GT(victim_units_at_heal, 0u);
  // Weight share: saturator/1 <= victim/3, within DRR slack. The slack
  // covers held credit (quantum * weight) plus one submission overshoot.
  const std::uint64_t slack = 4 * (1 + 3) + 16;
  EXPECT_LE(saturator_units_at_heal * 3, victim_units_at_heal + 3 * slack)
      << "saturator=" << saturator_units_at_heal
      << " victim=" << victim_units_at_heal;
  // And the saturator was genuinely backlogged AT heal time (the bound
  // above would be vacuous otherwise).
  EXPECT_GT(saturator_backlog_at_heal, 0u);

  daemon.run_until_idle();
  EXPECT_TRUE(daemon.drain_all());
}

// --- Quarantine isolation ---

TEST(ServiceQuarantine, ThrowingRecoveryIsolatesTenantKeepsWalIntact) {
  ServiceConfig config;
  config.workers = 0;
  ServiceDaemon daemon(config);
  const auto sick = daemon.add_tenant(TenantConfig{});
  const auto healthy = daemon.add_tenant(TenantConfig{});

  // The chaos seam: the first recovery step of the sick tenant throws
  // (a media error / scheduler bug stand-in).
  daemon.tenant(sick).set_chaos_hook(
      [] { throw std::runtime_error("chaos: recovery fault"); });

  ServiceClient sick_client(daemon, sick);
  ASSERT_TRUE(sick_client.call(make_submit("r0", true)).ok);
  const std::string wal_before = daemon.tenant(sick).durable_store()->wal();
  const std::string session_before = session_text(daemon.tenant(sick).engine());

  // The alert pushes the controller out of NORMAL; the next step is a
  // recovery step, which throws.
  Request alert;
  alert.kind = RequestKind::kAlert;
  alert.alert_run = 0;
  Response alert_response;
  bool alert_completed = false;
  ASSERT_TRUE(daemon
                  .submit(sick, service::encode_frame(alert),
                          [&](const Response& response) {
                            alert_completed = true;
                            alert_response = response;
                          })
                  .accepted);
  daemon.run_until_idle();

  // The tenant is quarantined; the completion was failed, not dropped.
  EXPECT_TRUE(daemon.tenant(sick).quarantined());
  ASSERT_TRUE(alert_completed);
  EXPECT_FALSE(alert_response.ok);
  EXPECT_TRUE(alert_response.quarantined);
  EXPECT_EQ(alert_response.state, "QUARANTINED");

  // Admission rejects with the machine-readable token.
  const Ack ack = daemon.submit(sick, service::encode_frame(make_submit("r1")));
  EXPECT_STREQ(ack.reason_token(), "quarantined");

  // The WAL is INTACT: the aborted step emitted nothing, recover() sees
  // clean media and rebuilds exactly the last committed boundary.
  auto* durable = daemon.tenant(sick).durable_store();
  EXPECT_EQ(durable->wal(), wal_before);
  engine::RecoveryReport report;
  const auto recovered = durable->recover(report);
  EXPECT_TRUE(report.clean()) << report.summary();
  ASSERT_NE(recovered.engine, nullptr);
  EXPECT_EQ(session_text(*recovered.engine), session_before);

  // The neighbour tenant and the daemon are untouched.
  ServiceClient healthy_client(daemon, healthy);
  EXPECT_TRUE(healthy_client.call(make_submit("ok")).ok);
  EXPECT_FALSE(daemon.tenant(healthy).quarantined());
  // drain_all reports the unclean tenant but still drains the rest.
  EXPECT_FALSE(daemon.drain_all());
  EXPECT_TRUE(daemon.tenant(healthy).draining());
}

TEST(ServiceQuarantine, RecoveredReplayYieldsIdenticalStreamingPlans) {
  // After a quarantine, recover() replays the media into a fresh world.
  // The streaming dependence index over the REPLAYED log (restore_entry
  // path, not live appends) must behave exactly like a scratch build:
  // identical plans, and recovery rounds splice instead of rebuilding.
  ServiceConfig config;
  config.workers = 0;
  ServiceDaemon daemon(config);
  const auto sick = daemon.add_tenant(TenantConfig{});
  daemon.tenant(sick).set_chaos_hook(
      [] { throw std::runtime_error("chaos: recovery fault"); });

  ServiceClient client(daemon, sick);
  ASSERT_TRUE(client.call(make_submit("r0", true)).ok);
  Request alert;
  alert.kind = RequestKind::kAlert;
  alert.alert_run = 0;
  ASSERT_TRUE(daemon.submit(sick, service::encode_frame(alert)).accepted);
  daemon.run_until_idle();
  ASSERT_TRUE(daemon.tenant(sick).quarantined());

  engine::RecoveryReport report;
  auto session = daemon.tenant(sick).durable_store()->recover(report);
  ASSERT_TRUE(report.clean()) << report.summary();
  ASSERT_NE(session.engine, nullptr);
  auto& eng = *session.engine;

  std::vector<engine::InstanceId> malicious;
  for (const auto& e : eng.log().entries()) {
    if (e.kind == engine::ActionKind::kMalicious) malicious.push_back(e.id);
  }
  ASSERT_FALSE(malicious.empty());

  deps::DependencyAnalyzer streaming(eng.log(), eng.specs_by_run());
  const recovery::RecoveryAnalyzer streaming_analyzer(eng, streaming);
  const recovery::RecoveryAnalyzer fresh_analyzer(eng);
  const auto plan = streaming_analyzer.analyze(malicious);
  ASSERT_TRUE(plan == fresh_analyzer.analyze(malicious));

  // Heal the replayed world; the recovery entries must splice.
  recovery::RecoveryScheduler scheduler(eng);
  scheduler.execute(plan);
  EXPECT_TRUE(streaming.refresh(eng.log(), eng.specs_by_run()));
  const deps::DependencyAnalyzer rebuilt(eng.log(), eng.specs_by_run());
  EXPECT_EQ(streaming.edges(), rebuilt.edges());
  EXPECT_TRUE(streaming.tainted_frontier().empty());
  EXPECT_TRUE(recovery::CorrectnessChecker(eng).check().strict_correct());
}

TEST(ServiceQuarantine, ThrowingUnderWorkersKeepsDaemonAlive) {
  ServiceConfig config;
  config.workers = 2;
  ServiceDaemon daemon(config);
  const auto sick = daemon.add_tenant(TenantConfig{});
  const auto healthy = daemon.add_tenant(TenantConfig{});
  daemon.tenant(sick).set_chaos_hook(
      [] { throw std::runtime_error("chaos: recovery fault"); });
  daemon.start();

  ServiceClient sick_client(daemon, sick);
  ASSERT_TRUE(sick_client.call(make_submit("r0", true)).ok);
  Request alert;
  alert.kind = RequestKind::kAlert;
  alert.alert_run = 0;
  const auto alert_response = sick_client.call(alert);
  EXPECT_FALSE(alert_response.ok);  // quarantined, completion failed

  // Workers are still alive and serving the healthy tenant.
  ServiceClient healthy_client(daemon, healthy);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(healthy_client.call(make_submit("h" + std::to_string(i))).ok);
  }
  EXPECT_FALSE(daemon.drain_all());  // sick tenant can't drain cleanly
  daemon.stop();
  EXPECT_TRUE(daemon.tenant(sick).quarantined());
  EXPECT_FALSE(daemon.tenant(healthy).quarantined());
}

// --- abort_batch (the durable exception-safety primitive) ---

TEST(DurableAbortBatch, DiscardsOpenBatchKeepsWalReplayable) {
  // Build the runs first and snapshot them, then batch per-step
  // mutations exactly the way tenant steps do: run0 is finished
  // history, run1 is live work the steps will advance.
  engine::Engine eng;
  wfspec::ObjectCatalog catalog;
  const auto spec = wfspec::parse_workflow(kPipelineDsl, catalog);
  const auto run0 = eng.start_run(spec);
  eng.run_all();
  const auto run1 = eng.start_run(spec);

  engine::DurableSessionStore store;
  store.snapshot(eng);
  eng.set_durability_observer(&store);
  const std::string wal_base = store.wal();

  // Committed step: one engine step of run1, one WAL record. Survives.
  store.begin_batch();
  ASSERT_TRUE(eng.step());
  store.end_batch();
  const std::string wal_committed = store.wal();
  EXPECT_GT(wal_committed.size(), wal_base.size());

  // Aborted step -- the step that "threw": the live engine advanced,
  // the media must NOT. This is terminal for the store's owner (the
  // service quarantines the tenant), so no further batches follow.
  store.begin_batch();
  ASSERT_TRUE(eng.step());
  store.abort_batch();
  EXPECT_EQ(store.wal(), wal_committed);

  // Recovery replays exactly the committed steps: the aborted step's
  // entry is gone, the media is at the last whole-step boundary, and
  // the report is clean -- nothing torn, nothing lost silently.
  engine::RecoveryReport report;
  const auto recovered = store.recover(report);
  EXPECT_TRUE(report.clean()) << report.summary();
  ASSERT_NE(recovered.engine, nullptr);
  EXPECT_EQ(recovered.engine->log().size(), eng.log().size() - 1);
  EXPECT_FALSE(recovered.engine->run_active(run0));
  EXPECT_TRUE(recovered.engine->run_active(run1));

  eng.set_durability_observer(nullptr);
}

// --- Drain and shutdown ---

TEST(ServiceDaemonLifecycle, DrainAllThenRestart) {
  ServiceConfig config;
  config.workers = 2;
  ServiceDaemon daemon(config);
  const auto a = daemon.add_tenant(TenantConfig{});
  const auto b = daemon.add_tenant(TenantConfig{});
  daemon.start();

  ServiceClient ca(daemon, a);
  ServiceClient cb(daemon, b);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(ca.call(make_submit("a" + std::to_string(i), i % 3 == 0)).ok);
    ASSERT_TRUE(cb.call(make_submit("b" + std::to_string(i))).ok);
  }
  EXPECT_TRUE(daemon.drain_all());
  EXPECT_TRUE(daemon.tenant(a).draining());
  EXPECT_TRUE(daemon.tenant(b).draining());
  daemon.stop();
  EXPECT_FALSE(daemon.running());
  // Stop / start is idempotent and restartable.
  daemon.stop();
  daemon.start();
  EXPECT_TRUE(daemon.running());
  daemon.stop();
}

}  // namespace
}  // namespace selfheal
