// Golden verdicts for the read path: everything the system reads back
// from its own media or from a peer -- session text, the WAL replay of
// recover(), media, world, replica snapshot, replicated command,
// replication message and acceptor log -- over a fixed corpus. Each
// input's verdict is one line of tests/data/read_path_verdicts.txt:
//
//   <input id> A <crc32c of what the reader built, re-serialised>
//   <input id> R <error context: "session line 12", "media import", ...>
//   <input id> X <exception type, for a reader that escaped
//                 std::invalid_argument>
//
// The corpus: the session fuzz corpus; the media after every step of
// durable storm traces (recover()) and every snapshot generation they
// wrote (load_session); the damaged media of both storage fault sweeps;
// and the messages, commands, snapshots, worlds, media and acceptor logs
// of one replication storm. Every envelope also appears with integer
// mutations: each integer field set to -1, given a leading '+', pushed
// out of range, and each header line given a trailing token (ids ending
// /neg, /plus, /big, /trail). A mutant may read differently from the
// recorded verdict only by being rejected: the strict reader refuses
// what operator>> let through. Every other line must match exactly.
//
// The file was recorded from the readers this test first ran against.
// Regenerate it (only for an intended verdict change) by running this
// test with SELFHEAL_GOLDEN_OUT=tests/data/read_path_verdicts.txt.
#include <gtest/gtest.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "selfheal/engine/durable_session.hpp"
#include "selfheal/engine/session_io.hpp"
#include "selfheal/recovery/analyzer.hpp"
#include "selfheal/recovery/scheduler.hpp"
#include "selfheal/replication/consensus.hpp"
#include "selfheal/replication/node.hpp"
#include "selfheal/service/loadgen.hpp"
#include "selfheal/service/request.hpp"
#include "selfheal/service/world.hpp"
#include "selfheal/sim/workload.hpp"
#include "selfheal/storage/crc32c.hpp"
#include "selfheal/storage/fault_injector.hpp"
#include "selfheal/storage/snapshot.hpp"
#include "selfheal/storage/wal.hpp"
#include "session_corpus.hpp"

namespace {

using namespace selfheal;

std::string hex8(std::uint32_t value) {
  char text[16];
  std::snprintf(text, sizeof(text), "%08x", value);
  return text;
}

std::string session_text(const engine::Engine& eng) {
  std::ostringstream out;
  engine::save_session(eng, out);
  return out.str();
}

/// The verdict of one read: A + the CRC of what `read` returns, or the
/// rejection.
std::string verdict(const std::function<std::string()>& read) {
  try {
    return "A " + hex8(storage::crc32c(read()));
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    return "R " + what.substr(0, what.find(':'));
  } catch (const std::out_of_range&) {
    return "X out_of_range";
  } catch (const std::length_error&) {
    return "X length_error";
  } catch (const std::logic_error&) {
    return "X logic_error";
  } catch (const std::runtime_error&) {
    return "X runtime_error";
  } catch (const std::exception&) {
    return "X exception";
  }
}

struct Verdicts {
  std::vector<std::pair<std::string, std::string>> lines;
  void add(std::string id, std::string v) {
    for (auto& c : id) {
      if (c == ' ') c = '_';
    }
    lines.emplace_back(std::move(id), std::move(v));
  }
};

// --- integer mutations -------------------------------------------------

/// The [begin, end) of the line starting at `begin` (end excludes '\n').
std::size_t line_end(const std::string& text, std::size_t begin) {
  const auto nl = text.find('\n', begin);
  return nl == std::string::npos ? text.size() : nl;
}

bool is_integer(const std::string& token) {
  std::size_t i = token.size() > 1 && token[0] == '-' ? 1 : 0;
  if (i == token.size()) return false;
  for (; i < token.size(); ++i) {
    if (token[i] < '0' || token[i] > '9') return false;
  }
  return true;
}

/// Every integer mutation of the line at `begin`: each integer token set
/// to -1, prefixed with '+', pushed past UINT64_MAX, and the line given a
/// trailing token.
std::vector<std::pair<std::string, std::string>> line_mutants(
    const std::string& text, std::size_t begin, const std::string& tag) {
  const auto end = line_end(text, begin);
  std::vector<std::string> tokens;
  std::vector<std::size_t> starts;
  for (std::size_t i = begin; i < end;) {
    const auto space = std::min(text.find(' ', i), end);
    tokens.push_back(text.substr(i, space - i));
    starts.push_back(i);
    i = space + 1;
  }
  std::vector<std::pair<std::string, std::string>> out;
  for (std::size_t t = 0; t < tokens.size(); ++t) {
    if (!is_integer(tokens[t])) continue;
    const auto id = tag + "/f" + std::to_string(t);
    const auto with = [&](const std::string& token) {
      auto copy = text;
      copy.replace(starts[t], tokens[t].size(), token);
      return copy;
    };
    out.emplace_back(id + "/neg", with("-1"));
    out.emplace_back(id + "/plus", with("+" + tokens[t]));
    out.emplace_back(id + "/big", with("18446744073709551616"));
  }
  auto trailing = text;
  trailing.insert(end, " 7");
  out.emplace_back(tag + "/trail", std::move(trailing));
  return out;
}

/// Records `input` and its mutants at each line start in `lines`.
void with_mutants(Verdicts& out, const std::string& id, const std::string& input,
                  const std::vector<std::size_t>& lines,
                  const std::function<std::string(const std::string&)>& read) {
  out.add(id, verdict([&] { return read(input); }));
  for (std::size_t l = 0; l < lines.size(); ++l) {
    for (const auto& [mid, mutant] :
         line_mutants(input, lines[l], id + "/l" + std::to_string(l))) {
      out.add(mid, verdict([&] { return read(mutant); }));
    }
  }
}

std::uint64_t header_field(const std::string& text, std::size_t index) {
  std::istringstream head(text.substr(0, text.find('\n')));
  std::string token;
  for (std::size_t i = 0; i <= index; ++i) head >> token;
  std::uint64_t value = 0;
  std::from_chars(token.data(), token.data() + token.size(), value);
  return value;
}

// --- readers under test ------------------------------------------------

std::string read_session(const std::string& text) {
  return session_text(*engine::load_session(text).engine);
}

std::string read_recovery(const engine::DurableSessionStore& store) {
  engine::RecoveryReport report;
  const auto session = store.recover(report);
  auto text = report.summary() + "\n";
  if (session.engine != nullptr) text += session_text(*session.engine);
  return text;
}

std::string read_media(const std::string& blob) {
  engine::DurableSessionStore store;
  store.import_media(blob);
  return store.export_media() + read_recovery(store);
}

std::string read_world(const std::string& blob) {
  service::TenantWorld world{service::TenantConfig{}};
  world.import_state(blob);
  return world.export_state();
}

std::string read_msg(const std::string& wire) {
  return replication::encode_msg(replication::decode_msg(wire));
}

std::string read_command(const std::string& value) {
  const auto command = replication::decode_command(value);
  return replication::encode_command(command.cid, command.is_step,
                                     command.payload);
}

std::string read_acceptor_log(const std::string& wal) {
  const auto recovered = replication::AcceptorLog::replay(wal);
  std::ostringstream out;
  out << "torn " << recovered.torn << "\n";
  for (const auto& [slot, s] : recovered.slots) {
    out << "slot " << slot << " " << s.promised.counter << " " << s.promised.node
        << " " << s.accepted.counter << " " << s.accepted.node << " "
        << hex8(storage::crc32c(s.value)) << "\n";
  }
  for (const auto& [slot, value] : recovered.chosen) {
    out << "chosen " << slot << " " << hex8(storage::crc32c(value)) << "\n";
  }
  if (recovered.snapshot) {
    out << "snapshot " << recovered.snapshot->first << " "
        << hex8(storage::crc32c(recovered.snapshot->second)) << "\n";
  }
  return out.str();
}

// --- corpus: sessions ----------------------------------------------------

void session_verdicts(Verdicts& out) {
  const auto good = selfheal::testing::valid_session_text();
  out.add("session/valid", verdict([&] { return read_session(good); }));
  for (const auto& c : selfheal::testing::malformed_sessions()) {
    out.add("session/" + c.name, verdict([&] { return read_session(c.text); }));
  }
  auto v2 = good.substr(0, good.find("checksum"));
  v2.replace(v2.find("selfheal-session 3"), 18, "selfheal-session 2");
  out.add("session/v2", verdict([&] { return read_session(v2); }));
  auto tampered = good;
  const auto digit = good.find_first_of("0123456789", good.find(" C ") + 3);
  tampered[digit] = tampered[digit] == '9' ? '8' : static_cast<char>(tampered[digit] + 1);
  out.add("session/tampered", verdict([&] { return read_session(tampered); }));
}

// --- corpus: durable storm traces ----------------------------------------

void storm_verdicts(Verdicts& out) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const bool attacks : {true, false}) {
      service::StormConfig storm;
      storm.seed = seed;
      storm.submissions = 100;
      if (!attacks) {
        storm.attack_p_quiet = 0.0;
        storm.attack_p_burst = 0.0;
      }
      const auto trace = service::make_tenant_trace(storm, 0);
      service::TenantWorld world{service::TenantConfig{}};
      const auto& store = *world.durable();
      const auto tag = "storm/" + std::to_string(seed) + (attacks ? "a" : "q");
      std::size_t step = 0;
      std::size_t snapshots = 0;
      const auto check = [&] {
        out.add(tag + "/" + std::to_string(step++),
                verdict([&] { return read_recovery(store); }));
        const auto& blobs = store.snapshots().blobs();
        for (; snapshots < blobs.size(); ++snapshots) {
          const auto decoded = storage::decode_snapshot(blobs[snapshots]);
          out.add(tag + "/snap" + std::to_string(snapshots),
                  verdict([&] { return read_session(decoded.payload); }));
        }
      };
      check();
      for (const auto& timed : trace) {
        while (!world.normal()) {
          world.apply_step();
          check();
        }
        world.apply(timed.request);
        check();
      }
      while (!world.normal()) {
        world.apply_step();
        check();
      }
      out.add(tag + "/media", verdict([&] {
                return read_media(store.export_media());
              }));
    }
  }
}

// --- corpus: storage fault sweeps ------------------------------------------

std::vector<std::pair<const char*, storage::StorageFaultConfig>> fault_batches() {
  std::vector<std::pair<const char*, storage::StorageFaultConfig>> batches(5);
  batches[0].first = "torn";
  batches[0].second.torn_write_rate = 0.3;
  batches[1].first = "flip";
  batches[1].second.bit_flip_rate = 0.3;
  batches[2].first = "truncate";
  batches[2].second.truncation_rate = 0.3;
  batches[3].first = "duplicate";
  batches[3].second.duplicate_record_rate = 0.3;
  batches[4].first = "rename-crash";
  batches[4].second.crash_before_rename_rate = 0.9;
  return batches;
}

void media_verdicts(Verdicts& out, const std::string& id,
                    const engine::DurableSessionStore& store) {
  out.add(id, verdict([&] { return read_recovery(store); }));
  out.add(id + "/media", verdict([&] { return read_media(store.export_media()); }));
}

void fault_sweep_verdicts(Verdicts& out) {
  for (const auto& [name, faults] : fault_batches()) {
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
      // The attack-scenario sweep: recovery mirrored under faults.
      {
        auto scenario = sim::make_attack_scenario(seed % 8 + 1, 3, 2);
        auto& eng = *scenario.engine;
        engine::DurableSessionStore store;
        store.checkpoint(eng);
        storage::StorageFaultInjector injector(seed, faults);
        store.set_fault_injector(&injector);
        eng.set_durability_observer(&store);
        recovery::RecoveryScheduler scheduler(eng);
        scheduler.execute(
            recovery::RecoveryAnalyzer(eng).analyze(scenario.malicious));
        store.snapshot(eng);
        eng.set_durability_observer(nullptr);
        media_verdicts(out, std::string("fault/attack/") + name + "/" +
                                std::to_string(seed),
                       store);
      }
      // The submit sweep: a durable world over a storm trace.
      {
        service::StormConfig storm;
        storm.seed = seed;
        storm.submissions = 60;
        const auto trace = service::make_tenant_trace(storm, 0);
        service::TenantWorld world{service::TenantConfig{}};
        storage::StorageFaultInjector injector(seed, faults);
        world.durable()->set_fault_injector(&injector);
        for (const auto& timed : trace) {
          while (!world.normal()) world.apply_step();
          world.apply(timed.request);
        }
        while (!world.normal()) world.apply_step();
        world.durable()->set_fault_injector(nullptr);
        media_verdicts(out, std::string("fault/submit/") + name + "/" +
                                std::to_string(seed),
                       *world.durable());
      }
    }
  }
}

// --- corpus: one replication storm -----------------------------------------

/// Three replicas over a lossless FIFO network, every wire message and
/// media artifact kept. Node 2 misses the storm and catches up at the
/// end (catch-up snapshot + chosen replies); node 1 crashes mid-storm
/// and restarts from its acceptor log.
struct ReplicationStorm {
  std::vector<std::string> wires;
  std::vector<std::string> commands;
  std::vector<std::pair<std::uint64_t, std::string>> snapshots;
  std::vector<std::string> worlds;
  std::vector<std::string> media;
  std::vector<std::string> acceptor_logs;

  ReplicationStorm() {
    using namespace replication;
    const service::TenantConfig tenant;
    std::vector<std::unique_ptr<ReplicaNode>> nodes;
    for (NodeId id = 0; id < 3; ++id) {
      nodes.push_back(std::make_unique<ReplicaNode>(id, 3, tenant, 2));
    }
    std::vector<bool> alive = {true, true, false};
    std::deque<std::tuple<NodeId, NodeId, std::string>> queue;
    std::set<std::string> seen_commands;
    std::function<SendFn(NodeId)> send_from = [&](NodeId from) {
      return SendFn([&, from](NodeId to, const Msg& msg) {
        auto wire = encode_msg(msg);
        wires.push_back(wire);
        if (msg.kind == MsgKind::kAccept && seen_commands.insert(msg.value).second) {
          commands.push_back(msg.value);
        }
        queue.emplace_back(from, to, std::move(wire));
      });
    };
    const auto pump = [&] {
      while (!queue.empty()) {
        auto [from, to, wire] = std::move(queue.front());
        queue.pop_front();
        if (!alive[static_cast<std::size_t>(to)]) continue;
        nodes[static_cast<std::size_t>(to)]->handle(decode_msg(wire), from,
                                                    send_from(to));
        for (std::size_t n = 0; n < nodes.size(); ++n) {
          if (alive[n]) nodes[n]->apply_ready();
        }
      }
    };
    std::size_t cid = 0;
    const auto commit = [&](bool is_step, const std::string& payload) {
      nodes[0]->propose(
          encode_command("c" + std::to_string(++cid), is_step, payload),
          send_from(0));
      pump();
    };
    std::set<std::uint64_t> seen_snapshots;
    const auto keep_artifacts = [&] {
      auto& world = nodes[0]->world();
      worlds.push_back(world.export_state());
      media.push_back(world.durable()->export_media());
      const auto recovered = AcceptorLog::replay(nodes[0]->wal());
      if (recovered.snapshot &&
          seen_snapshots.insert(recovered.snapshot->first).second) {
        snapshots.push_back(*recovered.snapshot);
      }
    };

    service::StormConfig storm;
    storm.seed = 5;
    storm.submissions = 12;
    const auto trace = service::make_tenant_trace(storm, 0);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      while (!nodes[0]->world().normal()) commit(true, "");
      commit(false, service::encode_request(trace[i].request));
      if (nodes[0]->world().normal() && i % 3 == 0) keep_artifacts();
      if (i == trace.size() / 3) {
        nodes[1]->crash();
        alive[1] = false;
        acceptor_logs.push_back(nodes[1]->wal());
        alive[2] = true;  // the quorum needs a second live node
      }
      if (i == 2 * trace.size() / 3) {
        nodes[1]->restart();
        alive[1] = true;
        nodes[1]->request_catchup(send_from(1));
        pump();
      }
    }
    while (!nodes[0]->world().normal()) commit(true, "");
    keep_artifacts();
    for (const auto& node : nodes) acceptor_logs.push_back(node->wal());
  }
};

std::string install_snapshot(std::uint64_t applied, const std::string& blob,
                             std::size_t max_cid) {
  using namespace replication;
  ReplicaNode node(0, 3, service::TenantConfig{}, 0);
  Msg msg;
  msg.kind = MsgKind::kCatchupSnapshot;
  msg.applied = applied;
  msg.value = blob;
  node.handle(msg, 1, [](NodeId, const Msg&) {});
  auto text = node.world().export_state() + "\napplied " +
              std::to_string(node.tracker().next_apply()) + " cids ";
  for (std::size_t c = 1; c <= max_cid; ++c) {
    text += node.applied_cid("c" + std::to_string(c)) ? '1' : '0';
  }
  return text;
}

/// Rebuilds an acceptor WAL with the first record of each keyword
/// replaced by each of its mutants.
void acceptor_log_verdicts(Verdicts& out, const std::string& id,
                           const std::string& wal) {
  out.add(id, verdict([&] { return read_acceptor_log(wal); }));
  const auto scan = storage::scan_wal(wal);
  std::set<std::string> mutated;
  for (std::size_t r = 0; r < scan.records.size(); ++r) {
    const auto& payload = scan.records[r].payload;
    const auto keyword = payload.substr(0, payload.find(' '));
    if (!mutated.insert(keyword).second) continue;
    for (const auto& [mid, mutant] :
         line_mutants(payload, 0, id + "/" + keyword)) {
      std::string rebuilt = storage::wal_header();
      for (std::size_t i = 0; i < scan.records.size(); ++i) {
        storage::wal_append(rebuilt, scan.records[i].type,
                            i == r ? mutant : scan.records[i].payload);
      }
      out.add(mid, verdict([&] { return read_acceptor_log(rebuilt); }));
    }
  }
}

void replication_verdicts(Verdicts& out) {
  const ReplicationStorm storm;
  std::map<std::string, std::size_t> mutated_kinds;
  for (std::size_t i = 0; i < storm.wires.size(); ++i) {
    const auto& wire = storm.wires[i];
    const auto kind = wire.substr(5, wire.find(' ', 5) - 5);
    const auto id = "rmsg/" + std::to_string(i);
    if (mutated_kinds[kind]++ < 2) {
      with_mutants(out, id, wire, {0}, read_msg);
    } else {
      out.add(id, verdict([&] { return read_msg(wire); }));
    }
  }
  for (std::size_t i = 0; i < storm.commands.size(); ++i) {
    with_mutants(out, "cmd/" + std::to_string(i), storm.commands[i], {0},
                 read_command);
  }
  const auto max_cid = storm.commands.size() + 8;
  for (std::size_t i = 0; i < storm.snapshots.size(); ++i) {
    const auto& [applied, blob] = storm.snapshots[i];
    with_mutants(out, "nsnap/" + std::to_string(i), blob, {0},
                 [&, applied = applied](const std::string& b) {
                   return install_snapshot(applied, b, max_cid);
                 });
  }
  for (std::size_t i = 0; i < storm.worlds.size(); ++i) {
    const auto& blob = storm.worlds[i];
    const auto header = blob.find('\n') + 1;
    const auto tail = header + header_field(blob, 2) + header_field(blob, 3);
    std::vector<std::size_t> lines = {0};
    if (tail < blob.size()) lines.push_back(tail);
    with_mutants(out, "world/" + std::to_string(i), blob, lines, read_world);
  }
  for (std::size_t i = 0; i < storm.media.size(); ++i) {
    const auto& blob = storm.media[i];
    std::vector<std::size_t> lines = {0};
    if (header_field(blob, 2) > 0) lines.push_back(blob.find('\n') + 1);
    with_mutants(out, "media/" + std::to_string(i), blob, lines, read_media);
  }
  for (std::size_t i = 0; i < storm.acceptor_logs.size(); ++i) {
    acceptor_log_verdicts(out, "acceptor/" + std::to_string(i),
                          storm.acceptor_logs[i]);
  }
}

bool is_mutant(const std::string& id) {
  for (const char* suffix : {"/neg", "/plus", "/big", "/trail"}) {
    const std::string s = suffix;
    if (id.size() >= s.size() && id.compare(id.size() - s.size(), s.size(), s) == 0) {
      return true;
    }
  }
  return false;
}

TEST(ReadPathGolden, VerdictsMatchTheRecordedOnes) {
  Verdicts now;
  session_verdicts(now);
  storm_verdicts(now);
  fault_sweep_verdicts(now);
  replication_verdicts(now);

  if (const char* path = std::getenv("SELFHEAL_GOLDEN_OUT")) {
    std::ofstream file(path);
    for (const auto& [id, v] : now.lines) file << id << " " << v << "\n";
    GTEST_SKIP() << "wrote " << now.lines.size() << " verdicts to " << path;
  }

  std::ifstream file(SELFHEAL_TEST_DATA_DIR "/read_path_verdicts.txt");
  ASSERT_TRUE(file) << "missing golden verdict file";
  std::vector<std::pair<std::string, std::string>> golden;
  for (std::string line; std::getline(file, line);) {
    const auto space = line.find(' ');
    golden.emplace_back(line.substr(0, space), line.substr(space + 1));
  }
  ASSERT_EQ(golden.size(), now.lines.size());
  std::size_t tightened = 0;
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const auto& [id, was] = golden[i];
    const auto& [now_id, is] = now.lines[i];
    ASSERT_EQ(id, now_id) << "corpus order changed at line " << i + 1;
    if (was == is) continue;
    if (is_mutant(id) && is.rfind("R ", 0) == 0) {
      ++tightened;  // the strict reader refuses what operator>> took
      continue;
    }
    ADD_FAILURE() << id << ": recorded '" << was << "', now '" << is << "'";
  }
  RecordProperty("tightened", static_cast<int>(tightened));
  std::printf("%zu verdicts, %zu mutants newly rejected\n", golden.size(),
              tightened);
}

}  // namespace
