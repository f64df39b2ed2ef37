#include "selfheal/replication/group.hpp"

#include <algorithm>
#include <stdexcept>

namespace selfheal::replication {

ReplicaGroup::ReplicaGroup(const ReplicaGroupConfig& config)
    : config_(config), transport_(config.replicas, config.transport) {
  if (config.replicas < 1 || config.replicas > 16) {
    throw std::invalid_argument("replica group: 1..16 replicas");
  }
  nodes_.reserve(config.replicas);
  for (std::size_t i = 0; i < config.replicas; ++i) {
    nodes_.push_back(std::make_unique<ReplicaNode>(
        static_cast<NodeId>(i), config.replicas, config.tenant,
        config.snapshot_every));
  }
}

SendFn ReplicaGroup::make_send(NodeId from) {
  return [this, from](NodeId to, const Msg& msg) {
    transport_.send(from, to, encode_msg(msg));
  };
}

void ReplicaGroup::pump_once() {
  transport_.pump([this](const Packet& packet) {
    auto& receiver = node(packet.to);
    if (!receiver.alive()) return;
    receiver.handle(decode_msg(packet.payload), packet.from,
                    make_send(packet.to));
  });
  for (auto& replica : nodes_) {
    if (replica->alive()) replica->apply_ready();
  }
}

void ReplicaGroup::rotate_leader() {
  const auto n = static_cast<NodeId>(nodes_.size());
  for (NodeId step = 1; step <= n; ++step) {
    const NodeId candidate = static_cast<NodeId>((leader_ + step) % n);
    if (transport_.alive(candidate)) {
      leader_ = candidate;
      ++stats_.elections;
      // The new leader may trail the chosen log (and slots may be
      // hidden in dead acceptors): its world state cannot be trusted
      // until a probe lands at its frontier (heal()).
      leader_maybe_stale_ = true;
      return;
    }
  }
  throw std::runtime_error("replication: no live replica to lead");
}

std::string ReplicaGroup::next_cid() {
  return "c" + std::to_string(++cid_counter_);
}

void ReplicaGroup::commit(const std::string& cid, const std::string& value) {
  if (!transport_.alive(leader_)) rotate_leader();
  const std::uint64_t start = transport_.round();
  std::uint64_t last_progress = start;
  std::uint64_t frontier = node(leader_).tracker().next_apply();
  node(leader_).propose(value, make_send(leader_));
  while (!node(leader_).applied_cid(cid)) {
    if (transport_.round() - start > kMaxRoundsPerCommit) {
      throw std::runtime_error(
          "replication: liveness bound exceeded committing " + cid);
    }
    pump_once();
    if (node(leader_).tracker().next_apply() != frontier) {
      frontier = node(leader_).tracker().next_apply();
      last_progress = transport_.round();
    }
    if (node(leader_).applied_cid(cid)) break;
    if (!node(leader_).proposing()) {
      // The slot went to someone else's value (a failover re-proposal
      // or a decided slot the leader is walking through); chase the
      // next one.
      node(leader_).propose(value, make_send(leader_));
      continue;
    }
    const std::uint64_t stalled = transport_.round() - last_progress;
    if (stalled >= kStallRotateRounds) {
      // A partitioned-off leader is indistinguishable from a dead one;
      // move leadership on and let phase 1 pick up any half-done slot.
      rotate_leader();
      last_progress = transport_.round();
      frontier = node(leader_).tracker().next_apply();
      node(leader_).propose(value, make_send(leader_));
    } else if (stalled > 0 && stalled % kRetryRounds == 0) {
      node(leader_).retry_proposal(make_send(leader_));
    }
  }
  ++stats_.commits;
  stats_.commit_rounds.push_back(transport_.round() - start);
  if (failover_started_.has_value()) {
    stats_.failover_rounds.push_back(transport_.round() - *failover_started_);
    failover_started_.reset();
  }
  run_scheduled_kills();
}

void ReplicaGroup::run_scheduled_kills() {
  const auto restart_it = restart_at_commit_.find(stats_.commits);
  if (restart_it != restart_at_commit_.end()) {
    restart(restart_it->second);
    restart_at_commit_.erase(restart_it);
  }
  const auto kill_it = kill_at_commit_.find(stats_.commits);
  if (kill_it != kill_at_commit_.end()) {
    const NodeId victim = leader_;
    stats_.mid_recovery_failover |= !node(victim).world().normal();
    kill(victim);
    ++stats_.leader_kills;
    failover_started_ = transport_.round();
    if (kill_it->second > 0) {
      restart_at_commit_[stats_.commits + kill_it->second] = victim;
    }
    kill_at_commit_.erase(kill_it);
    rotate_leader();
  }
}

void ReplicaGroup::schedule_kill_leader(std::uint64_t commit_index,
                                        std::uint64_t restart_after) {
  kill_at_commit_[commit_index] = restart_after;
}

void ReplicaGroup::kill(NodeId target) {
  node(target).crash();
  transport_.set_alive(target, false);
}

void ReplicaGroup::restart(NodeId target) {
  transport_.set_alive(target, true);
  node(target).restart();
  node(target).request_catchup(make_send(target));
}

void ReplicaGroup::heal() {
  // A leader's world answers "NORMAL?" truthfully only if the leader
  // has applied the whole chosen log. After a leadership change the new
  // leader may trail it -- and a commit's chosen broadcast can die with
  // its leader, leaving slots recoverable only through phase 1. So
  // while leadership is suspect, every step commit doubles as a probe:
  // landing exactly at the leader's prior frontier (no hidden slot
  // displaced it, no rotation interfered) proves the leader current,
  // after which its NORMAL answer is trusted again. Probe steps that
  // find a NORMAL world apply as no-ops on every replica, so the
  // oracle-equivalent step sequence is preserved.
  for (;;) {
    if (!transport_.alive(leader_)) rotate_leader();
    if (!leader_maybe_stale_ && node(leader_).world().normal()) return;
    const NodeId prior = leader_;
    const std::uint64_t before = node(leader_).tracker().next_apply();
    const std::string cid = next_cid();
    commit(cid, encode_command(cid, /*is_step=*/true, ""));
    ++stats_.steps_committed;
    if (leader_maybe_stale_ && leader_ == prior &&
        node(leader_).tracker().next_apply() == before + 1) {
      leader_maybe_stale_ = false;
    }
  }
}

void ReplicaGroup::drive(const service::Request& request) {
  heal();
  const std::string cid = next_cid();
  commit(cid,
         encode_command(cid, /*is_step=*/false,
                        service::encode_request(request)));
}

void ReplicaGroup::sync() {
  // heal() leaves the leader provably current (frontier-probed if
  // leadership churned) with a NORMAL world at the true end of the log.
  heal();
  // Now drain: every live replica catches up to the leader's frontier.
  const std::uint64_t target = node(leader_).tracker().next_apply();
  const std::uint64_t start = transport_.round();
  for (;;) {
    bool lagging = false;
    for (auto& replica : nodes_) {
      if (!replica->alive()) continue;
      if (replica->tracker().next_apply() < target) lagging = true;
    }
    if (!lagging && transport_.idle()) return;
    if (transport_.round() - start > kMaxRoundsPerCommit) {
      throw std::runtime_error("replication: sync liveness bound exceeded");
    }
    if (lagging &&
        (transport_.round() - start) % kRetryRounds == 0) {
      for (auto& replica : nodes_) {
        if (replica->alive() && replica->tracker().next_apply() < target) {
          replica->request_catchup(make_send(replica->id()));
        }
      }
    }
    pump_once();
  }
}

service::Ack ReplicaGroup::submit(NodeId target, const std::string& frame) {
  service::Ack ack;
  service::Request request;
  try {
    request = service::decode_frame(frame);
  } catch (const std::invalid_argument&) {
    ack.accepted = false;
    ack.reason = service::RejectReason::kBadFrame;
    return ack;
  }
  if (!transport_.alive(leader_)) rotate_leader();
  if (target != leader_) {
    ack.accepted = false;
    ack.reason = service::RejectReason::kRedirected;
    ack.leader_hint = leader_;
    return ack;
  }
  drive(request);
  ack.accepted = true;
  ack.reason = service::RejectReason::kNone;
  return ack;
}

}  // namespace selfheal::replication
