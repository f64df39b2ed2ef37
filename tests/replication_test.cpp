// Replicated recovery controller: consensus safety under loss, leader
// failover mid-recovery, follower catch-up, and the quorum/oracle
// byte-identity gate.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "selfheal/replication/campaign.hpp"
#include "selfheal/replication/consensus.hpp"
#include "selfheal/replication/group.hpp"
#include "selfheal/replication/node.hpp"
#include "selfheal/replication/transport.hpp"
#include "selfheal/service/loadgen.hpp"
#include "selfheal/service/request.hpp"

namespace {

using namespace selfheal;
using namespace selfheal::replication;

constexpr const char* kPipelineDsl =
    "workflow pipeline\n"
    "task a writes x\n"
    "task b reads x writes y\n"
    "task c reads y writes z\n"
    "task d reads z x writes w\n"
    "edge a b\n"
    "edge b c\n"
    "edge c d\n";

service::Request submit_request(const std::string& name, bool attacked) {
  service::Request request;
  request.kind = service::RequestKind::kSubmitRun;
  request.run_name = name;
  request.spec_dsl = kPipelineDsl;
  if (attacked) {
    service::AttackMark mark;
    mark.task = "a";
    mark.incarnation = 1;
    request.attacks.push_back(mark);
  }
  return request;
}

service::Request alert_request(std::uint32_t run) {
  service::Request request;
  request.kind = service::RequestKind::kAlert;
  request.alert_run = run;
  return request;
}

std::vector<service::TimedRequest> as_trace(
    const std::vector<service::Request>& requests) {
  std::vector<service::TimedRequest> trace;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    service::TimedRequest timed;
    timed.at = static_cast<double>(i);
    timed.request = requests[i];
    trace.push_back(std::move(timed));
  }
  return trace;
}

/// Drives `requests` through a group and asserts every replica's end
/// state is byte-identical to the drive-once oracle's.
void expect_group_matches_oracle(ReplicaGroup& group,
                                 const std::vector<service::Request>& requests,
                                 const service::TenantConfig& tenant) {
  for (const auto& request : requests) group.drive(request);
  group.heal();
  for (std::size_t i = 0; i < group.replicas(); ++i) {
    const auto id = static_cast<NodeId>(i);
    if (!group.transport().alive(id)) group.restart(id);
  }
  group.sync();
  const auto oracle =
      service::run_drive_once_oracle(tenant, as_trace(requests));
  for (std::size_t i = 0; i < group.replicas(); ++i) {
    const auto state = group.capture(static_cast<NodeId>(i));
    EXPECT_TRUE(state.identical(oracle)) << "replica " << i << " diverged";
  }
}

// --- Transport ---

TEST(LossyTransport, DeliversNextRoundInSendOrderWhenFaultFree) {
  LossyTransport transport(3);
  transport.send(0, 1, "a");
  transport.send(0, 2, "b");
  transport.send(1, 2, "c");
  std::vector<std::string> seen;
  transport.pump([&](const Packet& p) { seen.push_back(p.payload); });
  EXPECT_EQ(seen, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(transport.idle());
  EXPECT_EQ(transport.stats().delivered, 3u);
  EXPECT_EQ(transport.stats().dropped, 0u);
}

TEST(LossyTransport, FaultScheduleIsSeedStable) {
  LossyTransportConfig config;
  config.seed = 7;
  config.drop_rate = 0.2;
  config.delay_rate = 0.2;
  config.duplicate_rate = 0.2;
  const auto run = [&] {
    LossyTransport transport(2, config);
    std::vector<std::string> seen;
    for (int i = 0; i < 200; ++i) {
      transport.send(0, 1, "m" + std::to_string(i));
    }
    while (!transport.idle()) {
      transport.pump([&](const Packet& p) { seen.push_back(p.payload); });
    }
    return std::make_pair(seen, transport.stats());
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second.dropped, second.second.dropped);
  EXPECT_GT(first.second.dropped, 0u);
  EXPECT_GT(first.second.delayed, 0u);
  EXPECT_GT(first.second.duplicated, 0u);
  EXPECT_EQ(first.second.delivered, second.second.delivered);
}

TEST(LossyTransport, PartitionsCutInFlightAndDeadNodesDrop) {
  LossyTransport transport(3);
  PartitionWindow window;
  window.begin_round = 2;
  window.end_round = 10;
  window.side_a = 0b001;  // node 0 vs {1, 2}
  transport.set_partitions({window});

  transport.send(0, 1, "pre");  // due round 1: before the window
  transport.pump([](const Packet&) {});
  EXPECT_EQ(transport.stats().delivered, 1u);

  transport.send(0, 1, "cut-at-delivery");  // due round 2: window active
  transport.pump([](const Packet&) {});
  EXPECT_EQ(transport.stats().partition_drops, 1u);
  transport.send(0, 1, "cut-at-send");  // sent during the window
  EXPECT_EQ(transport.stats().partition_drops, 2u);
  transport.send(1, 2, "same-side");  // not cut
  transport.pump([](const Packet&) {});
  EXPECT_EQ(transport.stats().delivered, 2u);

  transport.set_alive(2, false);
  transport.send(1, 2, "to-the-dead");
  EXPECT_EQ(transport.stats().dead_drops, 1u);
}

TEST(LossyTransport, SelfSendsAreLossless) {
  LossyTransportConfig config;
  config.seed = 3;
  config.drop_rate = 1.0;  // every peer packet dies
  LossyTransport transport(2, config);
  for (int i = 0; i < 50; ++i) transport.send(0, 0, "loop");
  std::size_t delivered = 0;
  while (!transport.idle()) {
    transport.pump([&](const Packet&) { ++delivered; });
  }
  EXPECT_EQ(delivered, 50u);
}

// --- Wire formats ---

TEST(ReplicationWire, MsgRoundTripsArbitraryBytes) {
  Msg msg;
  msg.kind = MsgKind::kPromise;
  msg.slot = 42;
  msg.ballot = Ballot{7, 2};
  msg.accepted = Ballot{3, 1};
  msg.applied = 9;
  msg.value = std::string("line1\nline2\0binary", 18);
  const auto decoded = decode_msg(encode_msg(msg));
  EXPECT_EQ(decoded.kind, MsgKind::kPromise);
  EXPECT_EQ(decoded.slot, 42u);
  EXPECT_TRUE(decoded.ballot == msg.ballot);
  EXPECT_TRUE(decoded.accepted == msg.accepted);
  EXPECT_EQ(decoded.applied, 9u);
  EXPECT_EQ(decoded.value, msg.value);

  EXPECT_THROW(decode_msg("garbage"), std::invalid_argument);
  EXPECT_THROW(decode_msg("rmsg promise 1 1 0 0 0 0 99\nshort"),
               std::invalid_argument);
}

TEST(ReplicationWire, CommandRoundTrips) {
  const auto wire = encode_command("c17", false, "payload\nwith lines");
  const auto command = decode_command(wire);
  EXPECT_EQ(command.cid, "c17");
  EXPECT_FALSE(command.is_step);
  EXPECT_EQ(command.payload, "payload\nwith lines");
  const auto step = decode_command(encode_command("c18", true, ""));
  EXPECT_TRUE(step.is_step);
  EXPECT_THROW(decode_command("cmd c1 bogus 0\n"), std::invalid_argument);
}

// --- Acceptor durability ---

TEST(AcceptorLog, ReplayRestoresPromisesAcceptsChosenAndSnapshot) {
  AcceptorLog log;
  log.record_promise(0, Ballot{3, 1});
  log.record_accept(0, Ballot{3, 1}, "v0");
  log.record_promise(0, Ballot{5, 2});  // later, higher promise
  log.record_chosen(0, "v0");
  log.record_snapshot(1, "world-blob");
  log.record_promise(1, Ballot{6, 0});

  const auto recovered = AcceptorLog::replay(log.wal());
  EXPECT_FALSE(recovered.torn);
  ASSERT_EQ(recovered.slots.count(0), 1u);
  EXPECT_TRUE(recovered.slots.at(0).promised == (Ballot{5, 2}));
  EXPECT_TRUE(recovered.slots.at(0).accepted == (Ballot{3, 1}));
  EXPECT_EQ(recovered.slots.at(0).value, "v0");
  EXPECT_TRUE(recovered.slots.at(1).promised == (Ballot{6, 0}));
  ASSERT_EQ(recovered.chosen.count(0), 1u);
  EXPECT_EQ(recovered.chosen.at(0), "v0");
  ASSERT_TRUE(recovered.snapshot.has_value());
  EXPECT_EQ(recovered.snapshot->first, 1u);
  EXPECT_EQ(recovered.snapshot->second, "world-blob");
}

TEST(AcceptorLog, TornTailIsReportedAndPrefixSurvives) {
  AcceptorLog log;
  log.record_promise(0, Ballot{3, 1});
  const auto intact = log.wal().size();
  log.record_promise(1, Ballot{4, 1});
  auto torn = log.wal();
  torn.resize(intact + (torn.size() - intact) / 2);
  const auto recovered = AcceptorLog::replay(torn);
  EXPECT_TRUE(recovered.torn);
  EXPECT_EQ(recovered.slots.size(), 1u);  // only the intact promise
  EXPECT_TRUE(recovered.slots.at(0).promised == (Ballot{3, 1}));
}

TEST(CommitTracker, ReleasesContiguousPrefixInOrder) {
  CommitTracker tracker;
  EXPECT_TRUE(tracker.record(2, "v2"));
  EXPECT_FALSE(tracker.next().has_value());  // gap at 0
  EXPECT_TRUE(tracker.record(0, "v0"));
  EXPECT_FALSE(tracker.record(0, "dup"));  // idempotent
  ASSERT_TRUE(tracker.next().has_value());
  EXPECT_EQ(tracker.next()->second, "v0");
  tracker.advance();
  EXPECT_FALSE(tracker.next().has_value());  // gap at 1
  EXPECT_EQ(tracker.first_unknown(), 1u);
  EXPECT_TRUE(tracker.record(1, "v1"));
  tracker.advance();
  ASSERT_TRUE(tracker.next().has_value());
  EXPECT_EQ(tracker.next()->second, "v2");
  EXPECT_EQ(tracker.max_known(), 2u);
  tracker.advance();
  tracker.compact(3);
  EXPECT_EQ(tracker.floor(), 3u);
  EXPECT_EQ(tracker.chosen(2), nullptr);  // compacted away
  EXPECT_TRUE(tracker.knows(2));          // still known-applied
}

TEST(ReplicaNode, PromisesAndAcceptsSurviveCrashRestart) {
  service::TenantConfig tenant;
  ReplicaNode node(0, 3, tenant, /*snapshot_every=*/0);
  std::vector<std::pair<NodeId, Msg>> outbox;
  const SendFn send = [&](NodeId to, const Msg& msg) {
    outbox.emplace_back(to, msg);
  };

  Msg prepare;
  prepare.kind = MsgKind::kPrepare;
  prepare.slot = 0;
  prepare.ballot = Ballot{5, 1};
  node.handle(prepare, 1, send);
  ASSERT_EQ(outbox.size(), 1u);
  EXPECT_EQ(outbox.back().second.kind, MsgKind::kPromise);

  Msg accept;
  accept.kind = MsgKind::kAccept;
  accept.slot = 0;
  accept.ballot = Ballot{5, 1};
  accept.value = "v";
  node.handle(accept, 1, send);
  ASSERT_EQ(outbox.size(), 2u);
  EXPECT_EQ(outbox.back().second.kind, MsgKind::kAccepted);

  node.crash();
  node.restart();
  EXPECT_FALSE(node.last_restart_torn());

  // The promise must hold: a lower ballot is refused after the crash.
  outbox.clear();
  Msg low;
  low.kind = MsgKind::kPrepare;
  low.slot = 0;
  low.ballot = Ballot{3, 2};
  node.handle(low, 2, send);
  ASSERT_EQ(outbox.size(), 1u);
  EXPECT_EQ(outbox.back().second.kind, MsgKind::kNack);
  EXPECT_TRUE(outbox.back().second.ballot == (Ballot{5, 1}));

  // And a higher ballot learns the accepted value back.
  outbox.clear();
  Msg high;
  high.kind = MsgKind::kPrepare;
  high.slot = 0;
  high.ballot = Ballot{9, 2};
  node.handle(high, 2, send);
  ASSERT_EQ(outbox.size(), 1u);
  EXPECT_EQ(outbox.back().second.kind, MsgKind::kPromise);
  EXPECT_TRUE(outbox.back().second.accepted == (Ballot{5, 1}));
  EXPECT_EQ(outbox.back().second.value, "v");
}

// --- Group: quorum execution matches the oracle ---

TEST(ReplicaGroup, FaultFreeTripleMatchesOracle) {
  ReplicaGroupConfig config;
  ReplicaGroup group(config);
  const std::vector<service::Request> requests = {
      submit_request("run-0", true), alert_request(0),
      submit_request("run-1", false)};
  expect_group_matches_oracle(group, requests, config.tenant);
  EXPECT_EQ(group.stats().elections, 0u);
  EXPECT_GT(group.stats().steps_committed, 0u);
}

TEST(ReplicaGroup, LossyFabricStillMatchesOracle) {
  ReplicaGroupConfig config;
  config.transport.seed = 11;
  config.transport.drop_rate = 0.15;
  config.transport.delay_rate = 0.15;
  config.transport.duplicate_rate = 0.10;
  ReplicaGroup group(config);
  const std::vector<service::Request> requests = {
      submit_request("run-0", true), alert_request(0),
      submit_request("run-1", true), alert_request(1)};
  expect_group_matches_oracle(group, requests, config.tenant);
  EXPECT_GT(group.transport().stats().dropped, 0u);
}

TEST(ReplicaGroup, FiveReplicasUnderPartitionsMatchOracle) {
  ReplicaGroupConfig config;
  config.replicas = 5;
  config.transport.seed = 23;
  config.transport.drop_rate = 0.05;
  PartitionWindow window;
  window.begin_round = 10;
  window.end_round = 60;
  window.side_a = 0b00011;  // 2-node minority isolated (quorum = 3 holds)
  ReplicaGroup group(config);
  group.transport().set_partitions({window});
  const std::vector<service::Request> requests = {
      submit_request("run-0", true), alert_request(0),
      submit_request("run-1", false)};
  expect_group_matches_oracle(group, requests, config.tenant);
  EXPECT_GT(group.transport().stats().partition_drops, 0u);
}

TEST(ReplicaGroup, FollowerCatchesUpFromSnapshotPlusLog) {
  ReplicaGroupConfig config;
  config.snapshot_every = 2;  // compact aggressively: force the
                              // snapshot path, not just log replay
  ReplicaGroup group(config);
  group.kill(2);  // misses the whole run
  std::vector<service::Request> requests;
  for (int i = 0; i < 4; ++i) {
    requests.push_back(submit_request("run-" + std::to_string(i), i % 2 == 0));
    if (i % 2 == 0) requests.push_back(alert_request(static_cast<std::uint32_t>(i)));
  }
  expect_group_matches_oracle(group, requests, config.tenant);
  EXPECT_GE(group.node(2).stats().snapshots_installed, 1u);
}

TEST(ReplicaGroup, LeaderFailoverMidRecoveryCompletesOnNewLeader) {
  ReplicaGroupConfig config;
  ReplicaGroup group(config);
  // Commit 1 = the attacked submission, commit 2 = its alert (world
  // leaves NORMAL), commit 3 = the first recovery step -- kill the
  // leader right there, mid-recovery, and leave it dead.
  group.schedule_kill_leader(/*commit_index=*/3, /*restart_after=*/0);
  const std::vector<service::Request> requests = {
      submit_request("run-0", true), alert_request(0)};
  expect_group_matches_oracle(group, requests, config.tenant);
  EXPECT_EQ(group.stats().leader_kills, 1u);
  EXPECT_TRUE(group.stats().mid_recovery_failover);
  EXPECT_GE(group.stats().elections, 1u);
  EXPECT_NE(group.leader(), 0);  // recovery finished on a new leader
  EXPECT_TRUE(group.node(group.leader()).world().normal());
  ASSERT_FALSE(group.stats().failover_rounds.empty());
}

TEST(ReplicaGroup, FollowerRedirectsWithLeaderHint) {
  ReplicaGroupConfig config;
  ReplicaGroup group(config);
  const auto frame = service::encode_frame(submit_request("run-0", false));

  const auto redirected = group.submit(1, frame);
  EXPECT_FALSE(redirected.accepted);
  EXPECT_STREQ(redirected.reason_token(), "redirected");
  EXPECT_EQ(redirected.leader_hint, group.leader());

  auto damaged = frame;
  damaged[damaged.size() / 2] ^= 0x40;
  const auto rejected = group.submit(group.leader(), damaged);
  EXPECT_FALSE(rejected.accepted);
  EXPECT_STREQ(rejected.reason_token(), "bad_frame");

  const auto accepted = group.submit(group.leader(), frame);
  EXPECT_TRUE(accepted.accepted);
  EXPECT_EQ(group.node(group.leader()).world().engine().run_count(), 1u);
}

// --- Campaigns ---

TEST(ReplicationCampaign, TwentyFiveSeedSweepPassesAndIsDeterministic) {
  const auto base = default_replication_campaign(0);
  const auto suite = run_replication_campaigns(1, 25, base, /*threads=*/4);
  for (const auto& result : suite.results) {
    EXPECT_TRUE(result.passed())
        << "seed " << result.seed << ": " << result.failure;
  }
  EXPECT_EQ(suite.failed, 0u);
  // The chaos actually happened: kills landed, partitions cut packets,
  // and at least one seed lost its leader mid-recovery.
  EXPECT_GT(suite.mid_recovery_failovers, 0u);
  std::uint64_t kills = 0;
  std::uint64_t partition_drops = 0;
  for (const auto& result : suite.results) {
    kills += result.leader_kills;
    partition_drops += result.transport.partition_drops;
  }
  EXPECT_GT(kills, 0u);
  EXPECT_GT(partition_drops, 0u);

  // Byte-identical report for any thread count (per-seed result slots).
  const auto serial = run_replication_campaigns(1, 25, base, /*threads=*/1);
  EXPECT_EQ(suite.to_json("repro"), serial.to_json("repro"));
}

TEST(ReplicationCampaign, ThreadedFailoverStorm) {
  // TSan target: concurrent campaigns, each with its own group, over
  // shared result slots.
  auto base = default_replication_campaign(0);
  base.submissions = 6;
  const auto suite = run_replication_campaigns(100, 8, base, /*threads=*/4);
  for (const auto& result : suite.results) {
    EXPECT_TRUE(result.passed())
        << "seed " << result.seed << ": " << result.failure;
  }
}

}  // namespace
