// The counted-body envelopes read back from media or a replica -- durable
// media, tenant worlds, replica snapshots, replicated commands,
// replication messages and acceptor records -- read every integer
// field strictly: a sign on an unsigned field, a leading '+', a value out
// of the field's range and a trailing token are refused with the
// envelope's own context, and well-formed envelopes round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "selfheal/engine/durable_session.hpp"
#include "selfheal/replication/consensus.hpp"
#include "selfheal/replication/node.hpp"
#include "selfheal/service/request.hpp"
#include "selfheal/service/world.hpp"
#include "selfheal/storage/wal.hpp"

namespace {

using namespace selfheal;
using namespace selfheal::replication;

constexpr const char* kPipelineDsl =
    "workflow pipeline\n"
    "task a writes x\n"
    "task b reads x writes y\n"
    "edge a b\n";

/// An integer field: its token index on the line, and whether it is a
/// signed one (node ids, where -1 means "no node").
struct Field {
  std::size_t token;
  bool is_signed = false;
};

struct Mutant {
  std::string name;
  std::string text;
};

/// The strict-integer mutants of the line starting at `begin`: each field
/// given a '+', pushed out of range and (unsigned fields) set to -1, and
/// the line given a trailing token.
std::vector<Mutant> mutants(const std::string& text, std::size_t begin,
                            const std::vector<Field>& fields) {
  const auto end = std::min(text.find('\n', begin), text.size());
  std::vector<std::size_t> starts;
  for (std::size_t i = begin; i < end; i = text.find(' ', i) + 1) {
    starts.push_back(i);
    if (text.find(' ', i) >= end) break;
  }
  std::vector<Mutant> out;
  for (const auto& field : fields) {
    const auto at = starts.at(field.token);
    const auto size = std::min(text.find(' ', at), end) - at;
    const auto with = [&](const std::string& token) {
      auto copy = text;
      copy.replace(at, size, token);
      return copy;
    };
    const auto name = "field " + std::to_string(field.token);
    out.push_back({name + " +", with("+" + text.substr(at, size))});
    out.push_back({name + " out of range", with("18446744073709551616")});
    if (!field.is_signed) out.push_back({name + " -1", with("-1")});
  }
  auto trailing = text;
  trailing.insert(end, " 7");
  out.push_back({"trailing token", trailing});
  return out;
}

/// `read` accepts `valid` and refuses every mutant of the line at
/// `begin` with std::invalid_argument "<context>: ...".
template <typename Read>
void expect_strict(const std::string& valid, std::size_t begin,
                   const std::vector<Field>& fields, const std::string& context,
                   const Read& read) {
  ASSERT_NO_THROW(read(valid)) << context;
  for (const auto& mutant : mutants(valid, begin, fields)) {
    try {
      read(mutant.text);
      ADD_FAILURE() << context << " accepted " << mutant.name;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind(context + ":", 0), 0u)
          << mutant.name << ": " << e.what();
    }
  }
}

TEST(Envelope, ReplicationMsgIsStrictAndRoundTrips) {
  Msg msg;
  msg.kind = MsgKind::kPromise;
  msg.slot = 42;
  msg.ballot = Ballot{7, 2};
  msg.accepted = Ballot{3, -1};
  msg.applied = 9;
  msg.value = std::string("v\n\0w", 4);
  const auto wire = encode_msg(msg);
  const auto back = decode_msg(wire);
  EXPECT_EQ(back.slot, 42u);
  EXPECT_TRUE(back.ballot == msg.ballot);
  EXPECT_TRUE(back.accepted == msg.accepted);
  EXPECT_EQ(back.applied, 9u);
  EXPECT_EQ(back.value, msg.value);
  // rmsg <kind> <slot> <counter> <node> <counter> <node> <applied> <bytes>
  expect_strict(wire, 0,
                {{2}, {3}, {4, true}, {5}, {6, true}, {7}, {8}},
                "replication msg",
                [](const std::string& w) { (void)decode_msg(w); });
}

TEST(Envelope, ReplicatedCommandIsStrictAndRoundTrips) {
  const auto value = encode_command("c7", false, "pay\nload");
  const auto command = decode_command(value);
  EXPECT_EQ(command.cid, "c7");
  EXPECT_FALSE(command.is_step);
  EXPECT_EQ(command.payload, "pay\nload");
  // cmd <cid> <kind> <bytes>
  expect_strict(value, 0, {{3}}, "replicated command",
                [](const std::string& v) { (void)decode_command(v); });
}

TEST(Envelope, AcceptorRecordsAreStrictAndRoundTrip) {
  AcceptorLog log;
  log.record_promise(4, Ballot{5, 1});
  log.record_accept(4, Ballot{5, 1}, "v4");
  log.record_chosen(4, "v4");
  log.record_snapshot(5, "world");
  const auto recovered = AcceptorLog::replay(log.wal());
  EXPECT_TRUE(recovered.slots.at(4).accepted == (Ballot{5, 1}));
  EXPECT_EQ(recovered.chosen.at(4), "v4");
  EXPECT_EQ(recovered.snapshot->second, "world");

  // Each record's header, with the log around it re-framed intact.
  const auto scan = storage::scan_wal(log.wal());
  const std::vector<std::vector<Field>> fields = {
      {{1}, {2}, {3, true}},       // promise <slot> <counter> <node>
      {{1}, {2}, {3, true}, {4}},  // accept <slot> <counter> <node> <bytes>
      {{1}, {2}},                  // chosen <slot> <bytes>
      {{1}, {2}},                  // snapshot <applied> <bytes>
  };
  ASSERT_EQ(scan.records.size(), fields.size());
  for (std::size_t r = 0; r < scan.records.size(); ++r) {
    expect_strict(scan.records[r].payload, 0, fields[r], "acceptor log",
                  [&](const std::string& payload) {
                    std::string wal = storage::wal_header();
                    for (std::size_t i = 0; i < scan.records.size(); ++i) {
                      storage::wal_append(wal, scan.records[i].type,
                                          i == r ? payload : scan.records[i].payload);
                    }
                    (void)AcceptorLog::replay(wal);
                  });
  }
}

service::Request submit() {
  service::Request request;
  request.kind = service::RequestKind::kSubmitRun;
  request.spec_dsl = kPipelineDsl;
  request.attacks.push_back({"a", 1});
  return request;
}

TEST(Envelope, DurableMediaIsStrictAndRoundTrips) {
  service::TenantWorld world{service::TenantConfig{}};
  world.apply(submit());
  const auto media = world.durable()->export_media();
  engine::DurableSessionStore twin;
  twin.import_media(media);
  EXPECT_EQ(twin.export_media(), media);
  const auto read = [](const std::string& blob) {
    engine::DurableSessionStore store;
    store.import_media(blob);
  };
  // media v2 <blobs> <wal> <generation> <log size> <ops> <bytes> <mark>
  expect_strict(media, 0, {{2}, {3}, {4}, {5}, {6}, {7}, {8}}, "media import",
                read);
  // blob <bytes>
  expect_strict(media, media.find('\n') + 1, {{1}}, "media import", read);
}

TEST(Envelope, TenantWorldIsStrictAndRoundTrips) {
  service::TenantWorld world{service::TenantConfig{}};
  world.apply(submit());
  world.apply(submit());
  const auto blob = world.export_state();
  service::TenantWorld twin{service::TenantConfig{}};
  twin.import_state(blob);
  EXPECT_EQ(twin.export_state(), blob);
  const auto read = [](const std::string& b) {
    service::TenantWorld fresh{service::TenantConfig{}};
    fresh.import_state(b);
  };
  // world v1 <session bytes> <media bytes> <runs>
  expect_strict(blob, 0, {{2}, {3}, {4}}, "world import", read);
  // run <id>, the first of the run index lines
  expect_strict(blob, blob.rfind("run ", blob.rfind("run ") - 1), {{1}},
                "world import", read);
  // The n-th submission is engine run n: the run lines must count the
  // session's runs in order.
  const auto tail = blob.rfind("run 0\nrun 1\n");
  ASSERT_EQ(tail + 12, blob.size());
  auto swapped = blob;
  swapped.replace(tail, 12, "run 1\nrun 0\n");
  EXPECT_THROW(read(swapped), std::invalid_argument);
  auto one_run = blob.substr(0, tail) + "run 0\n";
  ASSERT_EQ(one_run[one_run.find('\n') - 1], '2');
  one_run[one_run.find('\n') - 1] = '1';
  EXPECT_THROW(read(one_run), std::invalid_argument);
}

TEST(Envelope, ReplicaSnapshotIsStrictAndRoundTrips) {
  // A node that snapshots after every apply leaves an nsnap blob in its
  // acceptor log.
  ReplicaNode node(0, 1, service::TenantConfig{}, /*snapshot_every=*/1);
  const SendFn loopback = [&](NodeId to, const Msg& msg) {
    node.handle(msg, to, loopback);
  };
  node.propose(encode_command("c1", false, service::encode_request(submit())),
               loopback);
  node.apply_ready();
  const auto snapshot = AcceptorLog::replay(node.wal()).snapshot;
  ASSERT_TRUE(snapshot.has_value());
  const auto install = [&](const std::string& blob) {
    ReplicaNode fresh(1, 1, service::TenantConfig{}, 0);
    Msg msg;
    msg.kind = MsgKind::kCatchupSnapshot;
    msg.applied = snapshot->first;
    msg.value = blob;
    fresh.handle(msg, 0, [](NodeId, const Msg&) {});
    if (!fresh.applied_cid("c1")) throw std::logic_error("cid list lost");
    return fresh.world().export_state();
  };
  EXPECT_EQ(install(snapshot->second), node.world().export_state());
  // nsnap v1 <cids> <world bytes>
  expect_strict(snapshot->second, 0, {{2}, {3}}, "replica snapshot", install);
}

}  // namespace
