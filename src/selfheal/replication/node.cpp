#include "selfheal/replication/node.hpp"

#include <algorithm>
#include <stdexcept>

#include "selfheal/util/text_reader.hpp"

namespace selfheal::replication {

std::string encode_command(const std::string& cid, bool is_step,
                           const std::string& payload) {
  std::string out;
  util::append_envelope(out, payload, "cmd", cid, is_step ? "step" : "req");
  return out;
}

Command decode_command(std::string_view value) {
  util::TextReader in(value, "replicated command");
  auto head = in.header();
  head.expect("cmd");
  Command command;
  command.cid = head.token("cid");
  const auto kind = head.token("kind");
  if (kind != "req" && kind != "step") head.bad("kind", kind);
  command.is_step = kind == "step";
  command.payload = head.body("payload");
  in.done();
  return command;
}

ReplicaNode::ReplicaNode(NodeId id, std::size_t cluster,
                         const service::TenantConfig& config,
                         std::uint32_t snapshot_every)
    : id_(id),
      cluster_(cluster),
      config_(config),
      snapshot_every_(snapshot_every),
      world_(std::make_unique<service::TenantWorld>(config)) {}

void ReplicaNode::crash() {
  alive_ = false;
  world_.reset();
  tracker_ = CommitTracker{};
  slots_.clear();
  proposer_.reset();
  applied_cids_.clear();
  next_ballot_counter_ = 0;
  applies_since_snapshot_ = 0;
  last_snapshot_.reset();
  // log_ survives: it is the node's disk.
}

void ReplicaNode::restart() {
  auto recovered = AcceptorLog::replay(log_.wal());
  last_restart_torn_ = recovered.torn;
  alive_ = true;
  world_ = std::make_unique<service::TenantWorld>(config_);
  tracker_ = CommitTracker{};
  slots_ = std::move(recovered.slots);
  proposer_.reset();
  applied_cids_.clear();
  applies_since_snapshot_ = 0;
  last_snapshot_.reset();
  // Promises restored above mean a rebooted node can never betray one
  // it made before the crash. Resume ballots above anything promised.
  for (const auto& [slot, state] : slots_) {
    next_ballot_counter_ =
        std::max(next_ballot_counter_, state.promised.counter);
  }
  if (recovered.snapshot.has_value()) {
    install_snapshot(recovered.snapshot->first, recovered.snapshot->second,
                     /*record=*/false);
  }
  for (auto& [slot, value] : recovered.chosen) {
    tracker_.record(slot, std::move(value));
  }
  apply_ready();
}

void ReplicaNode::broadcast(const Msg& msg, const SendFn& send) {
  for (std::size_t peer = 0; peer < cluster_; ++peer) {
    send(static_cast<NodeId>(peer), msg);
  }
}

void ReplicaNode::propose(std::string value, const SendFn& send) {
  ++next_ballot_counter_;
  ProposerInstance proposer;
  proposer.slot = tracker_.first_unknown();
  proposer.ballot = Ballot{next_ballot_counter_, id_};
  proposer.my_value = std::move(value);
  proposer_ = std::move(proposer);
  Msg prepare;
  prepare.kind = MsgKind::kPrepare;
  prepare.slot = proposer_->slot;
  prepare.ballot = proposer_->ballot;
  broadcast(prepare, send);
}

void ReplicaNode::retry_proposal(const SendFn& send) {
  if (!proposer_.has_value()) return;
  propose(std::move(proposer_->my_value), send);
}

void ReplicaNode::handle(const Msg& msg, NodeId from, const SendFn& send) {
  switch (msg.kind) {
    case MsgKind::kPrepare: {
      // A prepare for a slot this node already knows decided: short-
      // circuit with the decision (the laggard proposer learns and
      // moves on instead of fighting a settled slot).
      if (const auto* decided = tracker_.chosen(msg.slot)) {
        Msg chosen;
        chosen.kind = MsgKind::kChosen;
        chosen.slot = msg.slot;
        chosen.value = *decided;
        send(from, chosen);
        return;
      }
      if (msg.slot < tracker_.next_apply() && last_snapshot_.has_value()) {
        // Decided but compacted: the proposer is below the snapshot
        // floor; ship the snapshot instead.
        Msg snap;
        snap.kind = MsgKind::kCatchupSnapshot;
        snap.applied = last_snapshot_->first;
        snap.value = last_snapshot_->second;
        send(from, snap);
        ++stats_.catchup_served;
        return;
      }
      auto& slot = slots_[msg.slot];
      if (slot.promised < msg.ballot) {
        slot.promised = msg.ballot;
        log_.record_promise(msg.slot, slot.promised);
        ++stats_.promises_made;
        Msg promise;
        promise.kind = MsgKind::kPromise;
        promise.slot = msg.slot;
        promise.ballot = msg.ballot;
        promise.accepted = slot.accepted;
        promise.value = slot.value;
        send(from, promise);
      } else {
        ++stats_.nacks_sent;
        Msg nack;
        nack.kind = MsgKind::kNack;
        nack.slot = msg.slot;
        nack.ballot = slot.promised;
        send(from, nack);
      }
      return;
    }
    case MsgKind::kPromise: {
      if (!proposer_.has_value() || proposer_->slot != msg.slot ||
          !(proposer_->ballot == msg.ballot) ||
          proposer_->phase != ProposerInstance::Phase::kPrepare) {
        return;
      }
      const std::uint32_t bit = 1u << static_cast<std::uint32_t>(from);
      if ((proposer_->promise_mask & bit) != 0) return;
      proposer_->promise_mask |= bit;
      ++proposer_->promises;
      if (msg.accepted.valid() && proposer_->highest_accepted < msg.accepted) {
        proposer_->highest_accepted = msg.accepted;
        proposer_->value = msg.value;
        proposer_->adopted = true;
      }
      if (proposer_->promises < quorum()) return;
      proposer_->phase = ProposerInstance::Phase::kAccept;
      if (!proposer_->adopted) proposer_->value = proposer_->my_value;
      Msg accept;
      accept.kind = MsgKind::kAccept;
      accept.slot = proposer_->slot;
      accept.ballot = proposer_->ballot;
      accept.value = proposer_->value;
      broadcast(accept, send);
      return;
    }
    case MsgKind::kNack: {
      if (!proposer_.has_value() || proposer_->slot != msg.slot ||
          msg.ballot <= proposer_->ballot) {
        return;
      }
      // Outrun: jump past the rival ballot and re-run phase 1.
      next_ballot_counter_ =
          std::max(next_ballot_counter_, msg.ballot.counter);
      retry_proposal(send);
      return;
    }
    case MsgKind::kAccept: {
      auto& slot = slots_[msg.slot];
      if (slot.promised <= msg.ballot) {
        slot.promised = msg.ballot;
        slot.accepted = msg.ballot;
        slot.value = msg.value;
        log_.record_accept(msg.slot, msg.ballot, msg.value);
        ++stats_.accepts_made;
        Msg accepted;
        accepted.kind = MsgKind::kAccepted;
        accepted.slot = msg.slot;
        accepted.ballot = msg.ballot;
        send(from, accepted);
      } else {
        ++stats_.nacks_sent;
        Msg nack;
        nack.kind = MsgKind::kNack;
        nack.slot = msg.slot;
        nack.ballot = slot.promised;
        send(from, nack);
      }
      return;
    }
    case MsgKind::kAccepted: {
      if (!proposer_.has_value() || proposer_->slot != msg.slot ||
          !(proposer_->ballot == msg.ballot) ||
          proposer_->phase != ProposerInstance::Phase::kAccept) {
        return;
      }
      const std::uint32_t bit = 1u << static_cast<std::uint32_t>(from);
      if ((proposer_->accept_mask & bit) != 0) return;
      proposer_->accept_mask |= bit;
      ++proposer_->accepts;
      if (proposer_->accepts < quorum()) return;
      // Chosen. Learn locally, tell everyone else, release the proposer
      // (the group re-proposes my_value at the next slot if an adopted
      // value displaced it -- cid dedup keeps that safe).
      const std::string value = proposer_->value;
      const std::uint64_t slot = proposer_->slot;
      proposer_.reset();
      learn(slot, value);
      Msg chosen;
      chosen.kind = MsgKind::kChosen;
      chosen.slot = slot;
      chosen.value = value;
      for (std::size_t peer = 0; peer < cluster_; ++peer) {
        if (static_cast<NodeId>(peer) != id_) {
          send(static_cast<NodeId>(peer), chosen);
        }
      }
      return;
    }
    case MsgKind::kChosen:
    case MsgKind::kCatchupChosen: {
      learn(msg.slot, msg.value);
      if (proposer_.has_value() && proposer_->slot == msg.slot) {
        // The slot was decided under someone else's ballot; drop the
        // attempt. The group re-proposes the pending value if its cid
        // has still not been applied.
        proposer_.reset();
      }
      return;
    }
    case MsgKind::kCatchupRequest: {
      if (msg.applied < tracker_.floor() && last_snapshot_.has_value() &&
          last_snapshot_->first > msg.applied) {
        Msg snap;
        snap.kind = MsgKind::kCatchupSnapshot;
        snap.applied = last_snapshot_->first;
        snap.value = last_snapshot_->second;
        send(from, snap);
        ++stats_.catchup_served;
      }
      const std::uint64_t from_slot =
          std::max(msg.applied, last_snapshot_.has_value() &&
                                        last_snapshot_->first > msg.applied
                                    ? last_snapshot_->first
                                    : msg.applied);
      for (std::uint64_t slot = from_slot; slot <= tracker_.max_known();
           ++slot) {
        const auto* value = tracker_.chosen(slot);
        if (value == nullptr) continue;
        Msg reply;
        reply.kind = MsgKind::kCatchupChosen;
        reply.slot = slot;
        reply.value = *value;
        send(from, reply);
        ++stats_.catchup_served;
      }
      return;
    }
    case MsgKind::kCatchupSnapshot: {
      if (msg.applied <= tracker_.next_apply()) return;  // not ahead of us
      install_snapshot(msg.applied, msg.value, /*record=*/true);
      ++stats_.snapshots_installed;
      return;
    }
  }
}

void ReplicaNode::learn(std::uint64_t slot, const std::string& value) {
  if (!tracker_.record(slot, value)) return;
  log_.record_chosen(slot, value);
  ++stats_.chosen_learned;
}

std::size_t ReplicaNode::apply_ready() {
  std::size_t applied = 0;
  while (auto next = tracker_.next()) {
    apply_command(next->second);
    tracker_.advance();
    ++applied;
    ++applies_since_snapshot_;
    maybe_snapshot();
  }
  stats_.applied += applied;
  return applied;
}

void ReplicaNode::apply_command(const std::string& value) {
  const Command command = decode_command(value);
  if (applied_cids_.count(command.cid) > 0) {
    // Chosen twice (original proposal plus a failover re-proposal):
    // execute once, everywhere.
    ++stats_.skipped_duplicates;
    return;
  }
  applied_cids_.insert(command.cid);
  if (command.is_step) {
    if (world_->normal()) {
      ++stats_.skipped_normal_steps;
      return;
    }
    world_->apply_step();
    return;
  }
  world_->apply(service::decode_request(command.payload));
}

void ReplicaNode::maybe_snapshot() {
  if (snapshot_every_ == 0) return;
  if (applies_since_snapshot_ < snapshot_every_) return;
  if (!world_->normal()) return;  // export is only legal at NORMAL
  last_snapshot_ = {tracker_.next_apply(), make_snapshot()};
  log_.record_snapshot(last_snapshot_->first, last_snapshot_->second);
  tracker_.compact(last_snapshot_->first);
  applies_since_snapshot_ = 0;
  ++stats_.snapshots_taken;
}

std::string ReplicaNode::make_snapshot() const {
  // Node-level wrapper around the world export: the applied-cid set must
  // travel with the world, or a snapshot-installed follower would
  // re-execute a duplicate chosen above the snapshot point that every
  // other replica skips.
  const std::string world_blob = world_->export_state();
  std::string out;
  util::append_fields(out, "nsnap", "v1", applied_cids_.size(),
                      world_blob.size());
  out += '\n';
  for (const auto& cid : applied_cids_) {
    out += cid;
    out += '\n';
  }
  out += world_blob;
  return out;
}

void ReplicaNode::install_snapshot(std::uint64_t applied,
                                   const std::string& blob, bool record) {
  util::TextReader in(blob, "replica snapshot");
  auto head = in.header();
  head.expect("nsnap");
  head.expect("v1");
  const auto n_cids = head.integer<std::size_t>("cid count");
  const auto world_bytes = head.integer<std::size_t>("world bytes");
  head.done();
  std::set<std::string> cids;
  for (std::size_t i = 0; i < n_cids; ++i) cids.emplace(in.full_line("cid"));
  const auto world = in.take(world_bytes, "world");
  in.done();
  world_->import_state(world);
  applied_cids_ = std::move(cids);
  tracker_.reset_to(applied);
  tracker_.compact(applied);
  applies_since_snapshot_ = 0;
  last_snapshot_ = {applied, blob};
  if (record) log_.record_snapshot(applied, blob);
}

void ReplicaNode::request_catchup(const SendFn& send) {
  Msg request;
  request.kind = MsgKind::kCatchupRequest;
  request.applied = tracker_.next_apply();
  for (std::size_t peer = 0; peer < cluster_; ++peer) {
    if (static_cast<NodeId>(peer) != id_) {
      send(static_cast<NodeId>(peer), request);
    }
  }
}

}  // namespace selfheal::replication
