// One replica of the replicated recovery controller.
//
// A ReplicaNode is the composition of three roles over a single
// TenantWorld:
//
//   * acceptor -- answers prepare/accept for any slot, persisting every
//     promise and accepted value to its AcceptorLog BEFORE the wire
//     reply (the classic Paxos durability contract);
//   * proposer -- drives at most one proposal at a time, at the node's
//     first slot with no known chosen value; phase 1 adoption re-proposes
//     any in-flight value a quorum reports, which is exactly how a new
//     leader finishes commands the dead leader left half-done;
//   * learner  -- collects chosen values into a CommitTracker and
//     applies them to the world strictly in slot order.
//
// The replicated command log carries self-describing values
// (encode_command): every entry has a client id, and the apply layer
// skips any cid it has already applied -- so a command that ends up
// chosen in two slots (original proposal plus a failover re-proposal)
// executes exactly once on every replica. `step` commands additionally
// no-op when the world is already NORMAL, making over-proposed recovery
// steps harmless. Both guards are pure functions of replica state, so
// all replicas skip identically and the byte-identity gate holds.
//
// Snapshots: every `snapshot_every` applies that land on a NORMAL
// boundary, the node serialises (applied cids + world export) into the
// acceptor log and compacts retained chosen values below the frontier.
// Catch-up for peers below the compaction floor is served from that
// snapshot; above it, from retained chosen entries.
//
// crash()/restart() simulate power loss: everything but the acceptor
// WAL bytes is discarded, then rebuilt by AcceptorLog::replay plus
// in-order re-apply from the newest snapshot (or slot 0).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>

#include "selfheal/replication/consensus.hpp"
#include "selfheal/replication/transport.hpp"
#include "selfheal/service/world.hpp"

namespace selfheal::replication {

using SendFn = std::function<void(NodeId to, const Msg& msg)>;

/// A replicated log value: `cmd <cid> req|step <payload-bytes>` header
/// line, then the encode_request payload (empty for step).
[[nodiscard]] std::string encode_command(const std::string& cid,
                                         bool is_step,
                                         const std::string& payload);

struct Command {
  std::string cid;
  bool is_step = false;
  std::string payload;  // encode_request bytes when !is_step
};

/// Throws std::invalid_argument on malformed input.
[[nodiscard]] Command decode_command(std::string_view value);

struct NodeStats {
  std::uint64_t promises_made = 0;
  std::uint64_t accepts_made = 0;
  std::uint64_t nacks_sent = 0;
  std::uint64_t chosen_learned = 0;
  std::uint64_t snapshots_taken = 0;
  std::uint64_t snapshots_installed = 0;
  std::uint64_t catchup_served = 0;
  std::uint64_t applied = 0;
  std::uint64_t skipped_duplicates = 0;  // cid dedup hits
  std::uint64_t skipped_normal_steps = 0;
};

class ReplicaNode {
 public:
  ReplicaNode(NodeId id, std::size_t cluster,
              const service::TenantConfig& config,
              std::uint32_t snapshot_every);

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] bool alive() const noexcept { return alive_; }
  [[nodiscard]] std::size_t quorum() const noexcept {
    return cluster_ / 2 + 1;
  }

  /// Simulated power loss: volatile state (world, tracker, slots,
  /// proposer, cid set) is discarded; the acceptor WAL bytes survive.
  void crash();
  /// Rebuilds from the acceptor WAL: replayed promises/accepts restore
  /// the safety state, the newest snapshot (if any) seeds the world, and
  /// retained chosen records re-apply in order.
  void restart();
  [[nodiscard]] bool last_restart_torn() const noexcept {
    return last_restart_torn_;
  }

  /// Starts (or restarts) a proposal for `value` at this node's first
  /// unknown slot, with a fresh ballot above anything it has seen.
  void propose(std::string value, const SendFn& send);
  /// Abandons the current attempt and re-runs phase 1 with a higher
  /// ballot at the current first unknown slot (stall recovery).
  void retry_proposal(const SendFn& send);
  [[nodiscard]] bool proposing() const noexcept {
    return proposer_.has_value();
  }

  /// Dispatches one protocol message. Acceptor replies are persisted to
  /// the acceptor log before `send` is invoked.
  void handle(const Msg& msg, NodeId from, const SendFn& send);

  /// Applies every contiguously-known chosen value to the world; takes a
  /// snapshot when due. Returns the number applied.
  std::size_t apply_ready();

  /// Broadcasts a catch-up request advertising this node's frontier.
  void request_catchup(const SendFn& send);

  [[nodiscard]] bool applied_cid(const std::string& cid) const {
    return applied_cids_.count(cid) > 0;
  }
  [[nodiscard]] service::TenantWorld& world() { return *world_; }
  [[nodiscard]] const CommitTracker& tracker() const noexcept {
    return tracker_;
  }
  [[nodiscard]] const std::string& wal() const noexcept { return log_.wal(); }
  [[nodiscard]] const NodeStats& stats() const noexcept { return stats_; }

 private:
  void broadcast(const Msg& msg, const SendFn& send);
  void learn(std::uint64_t slot, const std::string& value);
  void apply_command(const std::string& value);
  void maybe_snapshot();
  [[nodiscard]] std::string make_snapshot() const;
  void install_snapshot(std::uint64_t applied, const std::string& blob,
                        bool record);

  NodeId id_;
  std::size_t cluster_;
  service::TenantConfig config_;
  std::uint32_t snapshot_every_;
  bool alive_ = true;
  bool last_restart_torn_ = false;

  std::unique_ptr<service::TenantWorld> world_;
  AcceptorLog log_;
  CommitTracker tracker_;
  std::map<std::uint64_t, AcceptorSlot> slots_;
  std::optional<ProposerInstance> proposer_;
  std::set<std::string> applied_cids_;
  std::uint64_t next_ballot_counter_ = 0;
  std::uint32_t applies_since_snapshot_ = 0;
  /// Newest NORMAL-boundary snapshot: (applied frontier, blob).
  std::optional<std::pair<std::uint64_t, std::string>> last_snapshot_;
  NodeStats stats_;
};

}  // namespace selfheal::replication
