#include "selfheal/replication/consensus.hpp"

#include <algorithm>

#include "selfheal/storage/wal.hpp"
#include "selfheal/util/text_reader.hpp"

namespace selfheal::replication {

const char* to_string(MsgKind kind) {
  switch (kind) {
    case MsgKind::kPrepare: return "prepare";
    case MsgKind::kPromise: return "promise";
    case MsgKind::kNack: return "nack";
    case MsgKind::kAccept: return "accept";
    case MsgKind::kAccepted: return "accepted";
    case MsgKind::kChosen: return "chosen";
    case MsgKind::kCatchupRequest: return "catchup_request";
    case MsgKind::kCatchupChosen: return "catchup_chosen";
    case MsgKind::kCatchupSnapshot: return "catchup_snapshot";
  }
  return "?";
}

namespace {

MsgKind read_kind(const util::Tokens& line, std::string_view token) {
  for (const auto kind :
       {MsgKind::kPrepare, MsgKind::kPromise, MsgKind::kNack, MsgKind::kAccept,
        MsgKind::kAccepted, MsgKind::kChosen, MsgKind::kCatchupRequest,
        MsgKind::kCatchupChosen, MsgKind::kCatchupSnapshot}) {
    if (token == to_string(kind)) return kind;
  }
  line.bad("kind", token);
}

Ballot read_ballot(util::Tokens& line) {
  Ballot ballot;
  ballot.counter = line.integer<std::uint64_t>("ballot counter");
  ballot.node = line.integer<NodeId>("ballot node");
  return ballot;
}

}  // namespace

std::string encode_msg(const Msg& msg) {
  std::string out;
  util::append_envelope(out, msg.value, "rmsg", to_string(msg.kind), msg.slot,
                        msg.ballot.counter, msg.ballot.node,
                        msg.accepted.counter, msg.accepted.node, msg.applied);
  return out;
}

Msg decode_msg(std::string_view wire) {
  util::TextReader in(wire, "replication msg");
  auto head = in.header();
  head.expect("rmsg");
  Msg msg;
  msg.kind = read_kind(head, head.token("kind"));
  msg.slot = head.integer<std::uint64_t>("slot");
  msg.ballot = read_ballot(head);
  msg.accepted = read_ballot(head);
  msg.applied = head.integer<std::uint64_t>("applied");
  msg.value = head.body("value");
  in.done();
  return msg;
}

AcceptorLog::AcceptorLog() : wal_(storage::wal_header()) {}

void AcceptorLog::append(const std::string& payload) {
  storage::wal_append(wal_, storage::WalRecordType::kData, payload);
}

void AcceptorLog::record_promise(std::uint64_t slot, Ballot promised) {
  std::string out;
  util::append_fields(out, "promise", slot, promised.counter, promised.node);
  append(out);
}

void AcceptorLog::record_accept(std::uint64_t slot, Ballot ballot,
                                const std::string& value) {
  std::string out;
  util::append_envelope(out, value, "accept", slot, ballot.counter, ballot.node);
  append(out);
}

void AcceptorLog::record_chosen(std::uint64_t slot, const std::string& value) {
  std::string out;
  util::append_envelope(out, value, "chosen", slot);
  append(out);
}

void AcceptorLog::record_snapshot(std::uint64_t applied,
                                  const std::string& blob) {
  std::string out;
  util::append_envelope(out, blob, "snapshot", applied);
  append(out);
}

AcceptorLog::Recovered AcceptorLog::replay(const std::string& wal_bytes) {
  Recovered recovered;
  const auto scan = storage::scan_wal(wal_bytes);
  recovered.torn = !scan.error.ok();
  for (const auto& record : scan.records) {
    if (record.type != storage::WalRecordType::kData) continue;
    // A record is one line, or a counted-body envelope.
    util::TextReader in(record.payload, "acceptor log");
    auto head = in.tokens();
    const auto keyword = head.token("record keyword");
    const auto slot = head.integer<std::uint64_t>("slot");
    if (keyword == "promise") {
      const auto ballot = read_ballot(head);
      head.done();
      auto& entry = recovered.slots[slot];
      if (entry.promised < ballot) entry.promised = ballot;
    } else if (keyword == "accept") {
      const auto ballot = read_ballot(head);
      const auto value = head.body("value");
      auto& entry = recovered.slots[slot];
      if (entry.promised < ballot) entry.promised = ballot;
      if (entry.accepted < ballot || !entry.accepted.valid()) {
        entry.accepted = ballot;
        entry.value = value;
      }
    } else if (keyword == "chosen") {
      recovered.chosen[slot] = head.body("value");
    } else if (keyword == "snapshot") {
      recovered.snapshot = {slot, std::string(head.body("snapshot"))};
    } else {
      in.fail("unknown record keyword '" + std::string(keyword) + "'");
    }
    in.done();
  }
  return recovered;
}

bool CommitTracker::record(std::uint64_t slot, std::string value) {
  if (knows(slot)) return false;
  chosen_.emplace(slot, std::move(value));
  return true;
}

std::optional<std::pair<std::uint64_t, std::string>> CommitTracker::next() {
  const auto it = chosen_.find(next_apply_);
  if (it == chosen_.end()) return std::nullopt;
  return std::make_pair(it->first, it->second);
}

const std::string* CommitTracker::chosen(std::uint64_t slot) const {
  const auto it = chosen_.find(slot);
  return it == chosen_.end() ? nullptr : &it->second;
}

std::uint64_t CommitTracker::max_known() const {
  if (chosen_.empty()) return next_apply_ == 0 ? 0 : next_apply_ - 1;
  return std::max(chosen_.rbegin()->first,
                  next_apply_ == 0 ? 0 : next_apply_ - 1);
}

std::uint64_t CommitTracker::first_unknown() const {
  std::uint64_t slot = next_apply_;
  while (chosen_.count(slot) > 0) ++slot;
  return slot;
}

void CommitTracker::reset_to(std::uint64_t next_apply) {
  next_apply_ = next_apply;
  floor_ = std::max(floor_, next_apply);
  while (!chosen_.empty() && chosen_.begin()->first < next_apply_) {
    chosen_.erase(chosen_.begin());
  }
}

void CommitTracker::compact(std::uint64_t floor) {
  floor_ = std::max(floor_, floor);
  while (!chosen_.empty() && chosen_.begin()->first < floor_ &&
         chosen_.begin()->first < next_apply_) {
    chosen_.erase(chosen_.begin());
  }
}

}  // namespace selfheal::replication
