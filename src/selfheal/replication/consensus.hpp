// The deterministic single-decree-per-slot consensus core.
//
// Each slot of the replicated command log is decided by one independent
// instance of single-decree Paxos:
//
//   * AcceptorState (per slot)  -- promised ballot, accepted ballot and
//     value. Every promise/accept is appended to the node's acceptor
//     WAL (storage/wal.hpp framing: checksummed, torn-tail safe)
//     BEFORE the reply is sent, so a restarted node keeps every promise
//     it ever made;
//   * ProposerInstance          -- one in-flight proposal: phase 1
//     (prepare/promise) adopting the highest-ballot accepted value a
//     quorum reports, phase 2 (accept/accepted) until a quorum accepts;
//   * CommitTracker             -- chosen values arrive in any order
//     (chosen broadcasts, catch-up replies); the tracker holds them
//     until the prefix is contiguous and releases them strictly
//     in slot order, which is what lets every replica apply the same
//     command sequence.
//
// Ballots are (counter, node) pairs ordered lexicographically, so two
// proposers can never tie. Values are opaque byte strings (the
// replicated shard's encoded commands).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "selfheal/replication/transport.hpp"

namespace selfheal::replication {

struct Ballot {
  std::uint64_t counter = 0;
  NodeId node = -1;

  [[nodiscard]] bool valid() const noexcept { return counter > 0; }
  friend bool operator==(const Ballot& a, const Ballot& b) noexcept {
    return a.counter == b.counter && a.node == b.node;
  }
  friend bool operator<(const Ballot& a, const Ballot& b) noexcept {
    return a.counter != b.counter ? a.counter < b.counter : a.node < b.node;
  }
  friend bool operator<=(const Ballot& a, const Ballot& b) noexcept {
    return a < b || a == b;
  }
};

enum class MsgKind {
  kPrepare,    // phase 1a: ballot claims a slot
  kPromise,    // phase 1b: promised; reports prior accepted (ballot, value)
  kNack,       // promise/accept refused; carries the higher promised ballot
  kAccept,     // phase 2a: ballot proposes value
  kAccepted,   // phase 2b: value accepted at ballot
  kChosen,     // learner broadcast: slot decided
  kCatchupRequest,   // applied frontier; asks for chosen slots >= it
  kCatchupChosen,    // one chosen (slot, value) replayed to a laggard
  kCatchupSnapshot,  // full state snapshot for a laggard below the log floor
};

[[nodiscard]] const char* to_string(MsgKind kind);

struct Msg {
  MsgKind kind = MsgKind::kPrepare;
  std::uint64_t slot = 0;
  Ballot ballot;    // prepare/accept ballot; nack's promised ballot
  Ballot accepted;  // promise only: ballot of the reported accepted value
  /// Command payload (promise/accept/accepted/chosen/catchup-chosen) or
  /// the serialised world snapshot (catchup-snapshot).
  std::string value;
  /// CatchupRequest: requester's next unapplied slot.
  /// CatchupSnapshot: applied index the snapshot represents.
  std::uint64_t applied = 0;
};

/// Line header + counted payload; values round-trip arbitrary bytes.
[[nodiscard]] std::string encode_msg(const Msg& msg);
/// Throws std::invalid_argument on malformed input.
[[nodiscard]] Msg decode_msg(std::string_view wire);

/// One slot's acceptor state.
struct AcceptorSlot {
  Ballot promised;
  Ballot accepted;
  std::string value;
};

/// The acceptor's durable face: promises, accepts, and learned chosen
/// values ride one checksummed WAL (the same storage::wal format the
/// durable session layer uses), appended BEFORE the wire reply, and
/// replayed on restart.
class AcceptorLog {
 public:
  AcceptorLog();

  void record_promise(std::uint64_t slot, Ballot promised);
  void record_accept(std::uint64_t slot, Ballot ballot,
                     const std::string& value);
  void record_chosen(std::uint64_t slot, const std::string& value);
  /// A NORMAL-boundary world snapshot: restart resumes from it instead
  /// of replaying the whole chosen log.
  void record_snapshot(std::uint64_t applied, const std::string& blob);

  [[nodiscard]] const std::string& wal() const noexcept { return wal_; }

  struct Recovered {
    std::map<std::uint64_t, AcceptorSlot> slots;
    std::map<std::uint64_t, std::string> chosen;
    /// Newest snapshot record, if any: (applied index, world blob).
    std::optional<std::pair<std::uint64_t, std::string>> snapshot;
    /// Structurally damaged tail was truncated (never silent).
    bool torn = false;
  };
  /// Replays an acceptor WAL byte string (typically this->wal() after a
  /// simulated crash). Malformed payloads inside intact frames throw;
  /// structural damage is reported via Recovered::torn.
  [[nodiscard]] static Recovered replay(const std::string& wal_bytes);

 private:
  void append(const std::string& payload);
  std::string wal_;
};

class CommitTracker {
 public:
  /// Records a chosen value. False if the slot was already known
  /// (idempotent: duplicate chosen broadcasts and catch-up replies).
  bool record(std::uint64_t slot, std::string value);

  /// Next contiguous chosen value to apply, or nullopt if the slot at
  /// the apply frontier is not yet known.
  [[nodiscard]] std::optional<std::pair<std::uint64_t, std::string>> next();
  /// Consumes the frontier slot after a successful apply.
  void advance() { ++next_apply_; }

  [[nodiscard]] std::uint64_t next_apply() const noexcept {
    return next_apply_;
  }
  [[nodiscard]] bool knows(std::uint64_t slot) const {
    return slot < next_apply_ || chosen_.count(slot) > 0;
  }
  [[nodiscard]] const std::string* chosen(std::uint64_t slot) const;
  /// Highest chosen slot recorded (next_apply - 1 if none pending).
  [[nodiscard]] std::uint64_t max_known() const;
  /// First slot with no chosen value known (>= next_apply).
  [[nodiscard]] std::uint64_t first_unknown() const;

  /// Snapshot install: jump the apply frontier; chosen values at or
  /// below it are dropped.
  void reset_to(std::uint64_t next_apply);
  /// Drops retained chosen values below `floor` (log compaction after a
  /// snapshot; catch-up below the floor is served from the snapshot).
  void compact(std::uint64_t floor);
  [[nodiscard]] std::uint64_t floor() const noexcept { return floor_; }

 private:
  std::uint64_t next_apply_ = 0;
  std::uint64_t floor_ = 0;  // chosen values below this were compacted
  std::map<std::uint64_t, std::string> chosen_;
};

struct ProposerInstance {
  std::uint64_t slot = 0;
  Ballot ballot;
  /// The command this proposer WANTS chosen; phase 1 may force it to
  /// adopt a previously accepted value instead.
  std::string my_value;
  std::string value;  // what phase 2 actually proposes
  bool adopted = false;  // phase 1 reported an accepted value
  Ballot highest_accepted;
  std::uint32_t promises = 0;  // distinct nodes (bitmask below)
  std::uint32_t accepts = 0;
  std::uint32_t promise_mask = 0;
  std::uint32_t accept_mask = 0;
  enum class Phase { kPrepare, kAccept, kDone } phase = Phase::kPrepare;
};

}  // namespace selfheal::replication
