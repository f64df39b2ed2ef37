// Service daemon tests: wire framing, admission control tokens, the
// drive-once byte-identity gate (25 seeds x {inline, threaded}),
// scheduler wake-ups (none lost, few idle), weighted fairness in
// deterministic virtual time, and quarantine isolation (a throwing
// tenant must not take down the daemon, and its WAL must stay intact
// and replayable).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
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
#include "selfheal/service/world.hpp"
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

Request submit_dsl(const std::string& dsl, const char* attack = nullptr) {
  Request request = make_submit("r");
  request.spec_dsl = dsl;
  if (attack != nullptr) request.attacks.push_back(AttackMark{attack, 1});
  return request;
}

Request alert_for(std::uint32_t run) {
  Request request;
  request.kind = RequestKind::kAlert;
  request.alert_run = run;
  return request;
}

// Parsing this spec interns `fresh` before its bad edge fails.
const char* kMalformedDsl =
    "workflow broken\n"
    "task a writes fresh\n"
    "edge a nowhere\n";

// Objects the pipeline lacks: interned after it, so a catalog that a
// refused request had touched numbers them differently.
const char* kLedgerDsl =
    "workflow ledger\n"
    "task load reads x writes m\n"
    "task post reads m writes n\n"
    "edge load post\n";

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
  // Headers the encoder never writes, around an intact "query\n" payload.
  const auto header_verdict = [](const std::string& header) -> std::string {
    try {
      (void)service::decode_frame(header + "\nquery\n");
      return "accepted";
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
  };
  EXPECT_EQ(header_verdict("shf1 6 116c26e0"), "accepted");
  for (const char* header :
       {"shf1 6 116c26e0 junk", "shf1 +6 116c26e0", "shf1 006 116c26e0",
        " shf1 6 116c26e0", "\tshf1 6 116c26e0", "shf1  6 116c26e0",
        "shf1\t6 116c26e0", "shf1 6\t116c26e0", "shf1 6 116c26e0 ",
        "shf1 6 0116c26e0", "shf1 6 116C26E0"}) {
    EXPECT_EQ(header_verdict(header), "frame: bad header") << header;
  }
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

// --- TenantWorld: client errors and faulted steps ---

TEST(TenantWorld, ClientErrorsAreRefusedBeforeAnyMutation) {
  struct Case {
    const char* name;
    Request request;
    const char* error;
  };
  const std::vector<Case> cases = {
      {"malformed spec", submit_dsl(kMalformedDsl),
       "workflow DSL line 3: no task named nowhere in workflow broken"},
      {"unknown attack task, new spec", submit_dsl(kLedgerDsl, "no-such-task"),
       "no task named no-such-task in workflow ledger"},
      {"unknown attack task, cached spec",
       submit_dsl(kPipelineDsl, "no-such-task"),
       "no task named no-such-task in workflow pipeline"},
      {"alert for an unknown run", alert_for(1),
       "alert for unknown run index 1"},
  };
  for (const auto& c : cases) {
    service::TenantWorld world{TenantConfig{}};
    service::TenantWorld clean{TenantConfig{}};  // never sees c.request
    for (auto* w : {&world, &clean}) {
      ASSERT_FALSE(w->apply(make_submit("r0")).refused);
    }
    const auto session_before = session_text(world.engine());
    const auto wal_before = world.durable()->wal();

    const auto applied = world.apply(c.request);
    EXPECT_TRUE(applied.refused) << c.name;
    EXPECT_EQ(applied.error, c.error) << c.name;
    EXPECT_EQ(session_text(world.engine()), session_before) << c.name;
    EXPECT_EQ(world.durable()->wal(), wal_before) << c.name;
    EXPECT_EQ(world.engine().run_count(), 1u) << c.name;
    EXPECT_TRUE(world.normal()) << c.name;

    for (auto* w : {&world, &clean}) {
      ASSERT_FALSE(w->apply(submit_dsl(kLedgerDsl, "load")).refused);
      ASSERT_FALSE(w->apply(alert_for(1)).refused);
      while (!w->normal()) w->apply_step();
    }
    EXPECT_TRUE(world.capture().identical(clean.capture())) << c.name;
  }
}

TEST(TenantWorld, FaultedSubmitLeavesNoOpenBatch) {
  // `b` loops on itself or exits to `c` by the value of `k`, which
  // nothing writes, so every visit decides alike: of the two successor
  // orders, one loops until the run exceeds
  // EngineConfig::max_incarnations. The engine then throws mid-submit,
  // after start_run has written the run into the open batch.
  bool faulted = false;
  for (const char* edges : {"edge b b c\n", "edge b c b\n"}) {
    const std::string looping = std::string(
                                    "workflow spin\n"
                                    "task a writes x\n"
                                    "task b reads k x writes y selector k\n"
                                    "task c reads y\n"
                                    "edge a b\n") +
                                edges;
    service::TenantWorld world{TenantConfig{}};
    ASSERT_FALSE(world.apply(make_submit("r0")).refused);
    auto& store = *world.durable();
    const auto session_before = session_text(world.engine());
    const auto wal_before = store.wal();
    try {
      world.apply(submit_dsl(looping));
      continue;  // this order took the exit
    } catch (const std::runtime_error&) {
      faulted = true;
    }
    // Nothing of the step is left buffered: closing an empty batch
    // writes nothing...
    store.begin_batch();
    store.end_batch();
    EXPECT_EQ(store.wal(), wal_before);
    // ...and the media recovers exactly the session before the step.
    engine::RecoveryReport report;
    const auto recovered = store.recover(report);
    EXPECT_TRUE(report.clean()) << report.summary();
    ASSERT_NE(recovered.engine, nullptr);
    EXPECT_EQ(session_text(*recovered.engine), session_before);
  }
  EXPECT_TRUE(faulted);
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

TEST(ServiceOracle, ClientErrorsRefusedLikeTheOracleAtAnyWorkerCount) {
  // A storm with a malformed submit and an alert for a run that never
  // existed spliced in: the daemon fails both requests, the oracle
  // refuses both, and neither leaves a trace in the bytes.
  service::StormConfig storm;
  storm.seed = 7;
  storm.submissions = 10;
  const auto clean_trace = service::make_tenant_trace(storm, 0);
  auto trace = clean_trace;
  service::TimedRequest malformed;
  malformed.request = submit_dsl(kMalformedDsl);
  service::TimedRequest stray;
  stray.request = alert_for(1000);
  trace.insert(trace.begin() + static_cast<std::ptrdiff_t>(trace.size() / 2),
               malformed);
  trace.insert(trace.begin() + static_cast<std::ptrdiff_t>(trace.size() / 3),
               stray);

  const auto oracle = service::run_drive_once_oracle(TenantConfig{}, trace);
  EXPECT_TRUE(oracle.strict_correct);
  EXPECT_TRUE(oracle.identical(
      service::run_drive_once_oracle(TenantConfig{}, clean_trace)));

  for (const std::size_t workers : {std::size_t{0}, std::size_t{2}}) {
    ServiceConfig config;
    config.workers = workers;
    ServiceDaemon daemon(config);
    const auto id = daemon.add_tenant(TenantConfig{});
    daemon.start();
    ServiceClient client(daemon, id);
    std::size_t failed = 0;
    for (const auto& timed : trace) {
      if (!client.call(timed.request).ok) ++failed;
    }
    EXPECT_EQ(failed, 2u) << "workers " << workers;
    EXPECT_TRUE(daemon.drain_all());
    daemon.stop();
    EXPECT_FALSE(daemon.tenant(id).quarantined());
    EXPECT_EQ(daemon.tenant(id).stats().client_errors, 2u);
    const auto state = service::capture_tenant_state(daemon.tenant(id));
    EXPECT_TRUE(state.identical(oracle)) << "workers " << workers;
    EXPECT_EQ(state.scans, oracle.scans);
    EXPECT_EQ(state.recoveries, oracle.recoveries);
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

// --- Scheduler wake-ups ---

using Clock = std::chrono::steady_clock;

/// Completions of one test, shared with the daemon's workers.
struct CompletionCounter {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t done = 0;
  std::size_t failed = 0;

  /// Waits until `expected` completions arrived; false at the deadline.
  bool wait_for(std::size_t expected, Clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_until(lock, deadline, [&] { return done >= expected; });
  }
};

service::CompletionFn count_completion(
    std::shared_ptr<CompletionCounter> counter) {
  return [counter](const Response& response) {
    std::lock_guard<std::mutex> lock(counter->mu);
    ++counter->done;
    if (!response.ok) ++counter->failed;
    counter->cv.notify_all();
  };
}

TEST(ServiceScheduler, NoLostWakeupAcrossBurstsAndParkedWorkers) {
  // Bursts of 1, 2 and queue_capacity + 1 requests per tenant, each
  // followed by an idle gap long enough for every worker to park: each
  // burst's first request lands on parked workers, so a missed notify
  // strands it. A round fails at its deadline; the test never hangs.
  constexpr std::size_t kRounds = 50;
  constexpr std::size_t kCapacity = 2;
  const std::size_t bursts[] = {1, 2, kCapacity + 1};
  const auto kRoundLimit = std::chrono::seconds(10);

  for (const std::size_t tenants : {std::size_t{1}, std::size_t{3}}) {
    for (const std::size_t workers :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      SCOPED_TRACE("tenants " + std::to_string(tenants) + " workers " +
                   std::to_string(workers));
      ServiceConfig config;
      config.workers = workers;
      ServiceDaemon daemon(config);
      TenantConfig tenant_config;
      tenant_config.queue_capacity = kCapacity;
      std::vector<std::vector<service::TimedRequest>> traces;
      for (std::size_t t = 0; t < tenants; ++t) {
        daemon.add_tenant(tenant_config);
        service::StormConfig storm;
        storm.seed = 40 + t;
        storm.submissions = 100;
        traces.push_back(service::make_tenant_trace(storm, t));
      }
      daemon.start();

      auto counter = std::make_shared<CompletionCounter>();
      std::vector<std::size_t> next(tenants, 0);
      // Admits tenant t's next request, retrying queue_full until the
      // deadline.
      const auto admit = [&](std::size_t t, Clock::time_point deadline) {
        const auto frame = service::encode_frame(traces[t][next[t]].request);
        for (;;) {
          const Ack ack = daemon.submit(static_cast<service::TenantId>(t),
                                        frame, count_completion(counter));
          if (ack.accepted) {
            ++next[t];
            return true;
          }
          EXPECT_EQ(ack.reason, RejectReason::kQueueFull);
          if (ack.reason != RejectReason::kQueueFull ||
              Clock::now() > deadline) {
            return false;
          }
          std::this_thread::yield();
        }
      };
      std::size_t submitted = 0;
      for (std::size_t round = 0; round < kRounds; ++round) {
        const auto deadline = Clock::now() + kRoundLimit;
        bool admitted = true;
        for (std::size_t i = 0; i < bursts[round % 3] && admitted; ++i) {
          for (std::size_t t = 0; t < tenants && admitted; ++t) {
            if (next[t] == traces[t].size()) continue;
            admitted = admit(t, deadline);
            if (admitted) ++submitted;
          }
        }
        if (!admitted || !counter->wait_for(submitted, deadline)) {
          ADD_FAILURE() << "round " << round << ": not all of " << submitted
                        << " requests completed within the deadline";
          return;  // the daemon's stop() releases the workers
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      EXPECT_TRUE(daemon.drain_all());
      daemon.stop();
      EXPECT_EQ(counter->failed, 0u);
      for (std::size_t t = 0; t < tenants; ++t) {
        traces[t].resize(next[t]);
        const auto oracle =
            service::run_drive_once_oracle(tenant_config, traces[t]);
        const auto state = service::capture_tenant_state(
            daemon.tenant(static_cast<service::TenantId>(t)));
        EXPECT_TRUE(state.identical(oracle)) << "tenant " << t;
        EXPECT_TRUE(state.strict_correct) << "tenant " << t;
      }
    }
  }
}

TEST(ServiceScheduler, IdleWakeupsStayRareForOneSaturatedTenant) {
  // One tenant, three workers, a submitter that keeps the queue full:
  // at most one worker can drive the tenant, so waking the other two on
  // every admission only makes them find nothing to claim.
  constexpr std::size_t kRequests = 2000;
  ServiceConfig config;
  config.workers = 3;
  ServiceDaemon daemon(config);
  const auto id = daemon.add_tenant(TenantConfig{});
  daemon.start();

  auto counter = std::make_shared<CompletionCounter>();
  for (std::size_t i = 0; i < kRequests; ++i) {
    const auto frame =
        service::encode_frame(make_submit("r" + std::to_string(i)));
    for (;;) {
      const Ack ack = daemon.submit(id, frame, count_completion(counter));
      if (ack.accepted) break;
      ASSERT_EQ(ack.reason, RejectReason::kQueueFull);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  ASSERT_TRUE(
      counter->wait_for(kRequests, Clock::now() + std::chrono::seconds(60)));
  EXPECT_TRUE(daemon.drain_all());
  daemon.stop();

  const auto stats = daemon.stats();
  EXPECT_EQ(counter->failed, 0u);
  EXPECT_EQ(stats.accepted, kRequests + 1);  // + the drain request
  EXPECT_GT(stats.wakeups, 0u);
  EXPECT_LE(static_cast<double>(stats.idle_wakeups),
            0.1 * static_cast<double>(stats.accepted))
      << "idle " << stats.idle_wakeups << " of " << stats.wakeups
      << " wake-ups, " << stats.accepted << " accepted";
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
  const std::string session_before = session_text(daemon.tenant(sick).world().engine());

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
  std::vector<engine::InstanceId> frontier;
  streaming.tainted_frontier(frontier);
  EXPECT_TRUE(frontier.empty());
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

TEST(ServiceDaemonLifecycle, DrainAllRetriesByteBudgetInline) {
  // The byte budget holds one submit frame, and one submit is queued:
  // the drain requests must wait for it instead of giving up.
  const auto frame = service::encode_frame(make_submit("r"));
  ServiceConfig config;
  config.workers = 0;
  config.byte_budget = frame.size();
  ServiceDaemon daemon(config);
  const auto a = daemon.add_tenant(TenantConfig{});
  const auto b = daemon.add_tenant(TenantConfig{});
  bool ran = false;
  ASSERT_TRUE(
      daemon.submit(a, frame, [&](const Response& r) { ran = r.ok; }).accepted);

  EXPECT_TRUE(daemon.drain_all());
  EXPECT_TRUE(ran);
  EXPECT_TRUE(daemon.tenant(a).draining());
  EXPECT_TRUE(daemon.tenant(b).draining());
}

TEST(ServiceDaemonLifecycle, DrainAllRetriesByteBudgetWithWorkers) {
  // A query's completion holds tenant a's worker until released, so the
  // submit queued behind it keeps the budget full while drain_all runs.
  const auto frame = service::encode_frame(make_submit("r"));
  ServiceConfig config;
  config.workers = 2;
  config.byte_budget = frame.size();
  // Completions may run until the daemon stops, so their promises outlive
  // it; `release` dies first, so an early exit cannot strand a worker.
  std::promise<void> entered;
  std::promise<bool> ran;
  ServiceDaemon daemon(config);
  std::promise<void> release;
  auto released = release.get_future().share();
  const auto a = daemon.add_tenant(TenantConfig{});
  const auto b = daemon.add_tenant(TenantConfig{});
  daemon.start();

  Request query;
  query.kind = RequestKind::kQuery;
  ASSERT_TRUE(daemon
                  .submit(a, service::encode_frame(query),
                          [&entered, released](const Response&) {
                            entered.set_value();
                            released.wait();
                          })
                  .accepted);
  entered.get_future().wait();
  ASSERT_TRUE(daemon
                  .submit(a, frame,
                          [&ran](const Response& r) { ran.set_value(r.ok); })
                  .accepted);

  auto drained =
      std::async(std::launch::async, [&] { return daemon.drain_all(); });
  const bool gave_up = drained.wait_for(std::chrono::milliseconds(20)) ==
                       std::future_status::ready;
  release.set_value();
  ASSERT_EQ(drained.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_FALSE(gave_up);
  EXPECT_TRUE(drained.get());
  EXPECT_TRUE(ran.get_future().get());
  EXPECT_TRUE(daemon.tenant(a).draining());
  EXPECT_TRUE(daemon.tenant(b).draining());
  daemon.stop();
}

TEST(ServiceDaemonLifecycle, AddTenantWhileDrainingAndCounting) {
  // add_tenant() may run concurrently with everything else; every read
  // of the tenant table takes the scheduler lock (TSan checks this).
  constexpr std::size_t kAdded = 64;
  ServiceConfig config;
  config.workers = 2;
  ServiceDaemon daemon(config);
  daemon.add_tenant(TenantConfig{});
  daemon.start();

  std::atomic<bool> reading{false};
  std::atomic<bool> adding{true};
  std::size_t last_count = 0;
  std::size_t unclean = 0;
  std::thread reader([&] {
    while (adding.load()) {
      if (!daemon.drain_all()) ++unclean;
      last_count = std::max(last_count, daemon.tenant_count());
      reading.store(true);
    }
  });
  while (!reading.load()) std::this_thread::yield();
  for (std::size_t i = 0; i < kAdded; ++i) {
    TenantConfig tenant;
    tenant.durable = false;
    daemon.add_tenant(tenant);
    std::this_thread::yield();
  }
  adding.store(false);
  reader.join();
  EXPECT_EQ(unclean, 0u);
  EXPECT_GE(last_count, 1u);
  EXPECT_TRUE(daemon.drain_all());
  EXPECT_EQ(daemon.tenant_count(), kAdded + 1);
  for (std::size_t t = 0; t < kAdded + 1; ++t) {
    EXPECT_TRUE(daemon.tenant(static_cast<service::TenantId>(t)).draining());
  }
  daemon.stop();
}

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
