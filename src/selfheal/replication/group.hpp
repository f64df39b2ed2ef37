// The replicated recovery controller: N ReplicaNodes over one
// LossyTransport, driven to consensus one command at a time.
//
// The group replays the service request stream through the replicated
// log exactly the way the drive-once oracle replays it through a bare
// TenantWorld:
//
//   drive(request):  heal();  commit one `req` command
//   heal():          while the leader's applied world is not NORMAL,
//                    commit one `step` command
//
// so the chosen log IS the oracle's effective sequence -- requests in
// arrival order, each preceded by however many recovery steps the
// controller needed, one step per slot. Every replica applies that log
// through its own world, and the byte-identity gate (campaign.hpp)
// checks all of them against the oracle's session/WAL/store bytes.
//
// Leadership is a performance hint, not a safety property: any node's
// proposal is safe, the leader just avoids ballot duels. The group
// rotates leadership when the leader dies (kill()) or when a commit
// stalls past kStallRotateRounds (a partitioned-off leader looks
// exactly like a dead one from the client's seat). A new leader's phase
// 1 adopts whatever the old leader left half-accepted, which is how a
// mid-recovery failover finishes the in-flight step on the new leader.
//
// Scheduled chaos: schedule_kill_leader(commit_index, restart_after)
// kills whoever leads after the commit_index-th commit and restarts the
// node restart_after commits later (from its acceptor WAL, then
// catch-up). Scheduling by commit index keeps campaigns deterministic.
//
// Every commit is bounded by kMaxRoundsPerCommit transport rounds;
// exceeding it throws (the liveness gate -- a partition schedule that
// never leaves a quorum connected is a configuration bug, not a hang).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "selfheal/replication/node.hpp"
#include "selfheal/replication/transport.hpp"
#include "selfheal/service/loadgen.hpp"
#include "selfheal/service/request.hpp"
#include "selfheal/service/tenant.hpp"

namespace selfheal::replication {

/// Rounds without proposer progress before the leader re-runs phase 1
/// with a higher ballot (lost packets need retransmission).
inline constexpr std::uint64_t kRetryRounds = 8;
/// Rounds without progress before leadership rotates away from a
/// live-but-unreachable leader (partition failover).
inline constexpr std::uint64_t kStallRotateRounds = 64;
/// Liveness bound: one commit exceeding this many rounds throws.
inline constexpr std::uint64_t kMaxRoundsPerCommit = 4096;

struct ReplicaGroupConfig {
  std::size_t replicas = 3;
  service::TenantConfig tenant;
  LossyTransportConfig transport;
  /// World snapshot + chosen-log compaction cadence (applies); 0 = never.
  std::uint32_t snapshot_every = 8;
};

struct GroupStats {
  std::uint64_t commits = 0;
  std::uint64_t steps_committed = 0;
  std::uint64_t elections = 0;  // leadership changes after the initial
  std::uint64_t leader_kills = 0;
  /// Rounds from proposal to applied-on-leader, one sample per commit.
  std::vector<std::uint64_t> commit_rounds;
  /// Rounds from a leader kill to the next commit completing.
  std::vector<std::uint64_t> failover_rounds;
  /// True if any leader kill landed while the world was mid-recovery.
  bool mid_recovery_failover = false;
};

class ReplicaGroup {
 public:
  explicit ReplicaGroup(const ReplicaGroupConfig& config);

  /// Heals to NORMAL, then commits the request through the replicated
  /// log. Completion means the leader's world applied it.
  void drive(const service::Request& request);

  /// Commits `step` commands until the leader's applied world is NORMAL.
  void heal();

  /// Pumps until every live node has applied every chosen slot and the
  /// transport is idle; laggards re-request catch-up. Call after the
  /// trace (and after restarting killed nodes) to converge the cluster.
  void sync();

  /// Kills a node (it neither sends nor receives; volatile state lost).
  void kill(NodeId node);
  /// Restarts a killed node from its acceptor WAL, then catch-up.
  void restart(NodeId node);

  /// After the `commit_index`-th commit completes, kill the then-leader;
  /// restart it `restart_after` commits later (0 = leave it dead).
  void schedule_kill_leader(std::uint64_t commit_index,
                            std::uint64_t restart_after);

  /// The shf1 front door: a frame submitted to the leader is driven
  /// through consensus; a follower answers "redirected" with a leader
  /// hint; a damaged frame answers "bad_frame".
  service::Ack submit(NodeId node, const std::string& frame);

  [[nodiscard]] NodeId leader() const noexcept { return leader_; }
  [[nodiscard]] std::size_t replicas() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] ReplicaNode& node(NodeId id) {
    return *nodes_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] LossyTransport& transport() noexcept { return transport_; }
  [[nodiscard]] const GroupStats& stats() const noexcept { return stats_; }

  /// End state of one replica's world (for the oracle gate).
  [[nodiscard]] service::TenantEndState capture(NodeId id) {
    return node(id).world().capture();
  }

 private:
  [[nodiscard]] SendFn make_send(NodeId from);
  void pump_once();
  void rotate_leader();
  void commit(const std::string& cid, const std::string& value);
  void run_scheduled_kills();
  [[nodiscard]] std::string next_cid();

  ReplicaGroupConfig config_;
  LossyTransport transport_;
  std::vector<std::unique_ptr<ReplicaNode>> nodes_;
  NodeId leader_ = 0;
  /// Leadership churned since the last frontier probe: the leader's
  /// world state is untrusted until heal() proves it current.
  bool leader_maybe_stale_ = false;
  std::uint64_t cid_counter_ = 0;
  /// commit index -> restart_after (0 = never restart).
  std::map<std::uint64_t, std::uint64_t> kill_at_commit_;
  /// commit index -> node to restart.
  std::map<std::uint64_t, NodeId> restart_at_commit_;
  /// Round of the most recent leader kill with no commit since.
  std::optional<std::uint64_t> failover_started_;
  GroupStats stats_;
};

}  // namespace selfheal::replication
