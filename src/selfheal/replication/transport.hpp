// In-memory lossy network for the replicated recovery controller.
//
// LossyTransport connects N simulated nodes with an adversarial but
// fully deterministic message fabric. Time is a round counter: send()
// schedules a packet for a future round, pump() advances one round and
// delivers everything due, in (round, sequence) order. Every packet's
// fate -- dropped, duplicated, delayed -- is a stateless hash of
// (seed, send sequence) through util/fault_schedule.hpp, the same
// discipline as storage::StorageFaultInjector: enabling one fault class
// never shifts another's decisions, and the whole schedule replays
// byte-identically from the seed.
//
// Partitions are declared as round windows with a node bitmask: while a
// window is active, packets crossing the cut are dropped (checked at
// both send and delivery round, so packets in flight when a partition
// forms are lost too -- the in-flight loss real networks exhibit).
// Killed nodes neither send nor receive; packets addressed to them are
// counted as dead drops.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace selfheal::replication {

using NodeId = std::int32_t;

/// Most extra rounds a delayed or duplicated packet is held for.
inline constexpr std::uint32_t kMaxDelayRounds = 4;

struct LossyTransportConfig {
  std::uint64_t seed = 1;
  double drop_rate = 0.0;       // packet silently lost
  double duplicate_rate = 0.0;  // packet delivered twice (second later)
  double delay_rate = 0.0;      // packet held extra rounds

  [[nodiscard]] bool enabled() const noexcept {
    return drop_rate > 0 || duplicate_rate > 0 || delay_rate > 0;
  }
};

/// One partition window: during rounds [begin, end) the nodes with
/// their bit set in `side_a` cannot exchange packets with the rest.
struct PartitionWindow {
  std::uint64_t begin_round = 0;
  std::uint64_t end_round = 0;  // exclusive
  std::uint32_t side_a = 0;     // bitmask of nodes on side A

  [[nodiscard]] bool active(std::uint64_t round) const noexcept {
    return round >= begin_round && round < end_round;
  }
  [[nodiscard]] bool cuts(NodeId a, NodeId b) const noexcept {
    return (((side_a >> a) ^ (side_a >> b)) & 1u) != 0;
  }
};

struct TransportStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;          // lossy-fabric drops
  std::uint64_t duplicated = 0;       // extra copies scheduled
  std::uint64_t delayed = 0;          // packets held extra rounds
  std::uint64_t partition_drops = 0;  // cut by an active partition window
  std::uint64_t dead_drops = 0;       // endpoint dead at send or delivery
};

struct Packet {
  NodeId from = -1;
  NodeId to = -1;
  std::string payload;
};

class LossyTransport {
 public:
  explicit LossyTransport(std::size_t nodes, LossyTransportConfig config = {});

  void set_partitions(std::vector<PartitionWindow> windows) {
    partitions_ = std::move(windows);
  }
  void set_alive(NodeId node, bool alive) {
    alive_[static_cast<std::size_t>(node)] = alive;
  }
  [[nodiscard]] bool alive(NodeId node) const {
    return alive_[static_cast<std::size_t>(node)];
  }
  [[nodiscard]] std::size_t nodes() const noexcept { return alive_.size(); }

  /// Schedules one packet. Self-sends (from == to, the local acceptor
  /// loopback) bypass the fault schedule: they are due next round,
  /// lossless -- local disk, not network.
  void send(NodeId from, NodeId to, std::string payload);

  /// Advances one round and hands every packet due to `deliver`, in
  /// deterministic (due round, sequence) order. Returns the number
  /// delivered.
  std::size_t pump(const std::function<void(const Packet&)>& deliver);

  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  [[nodiscard]] bool idle() const noexcept { return in_flight_.empty(); }
  [[nodiscard]] const TransportStats& stats() const noexcept { return stats_; }

 private:
  [[nodiscard]] bool cut(NodeId a, NodeId b, std::uint64_t round) const;
  void schedule(NodeId from, NodeId to, std::string payload,
                std::uint64_t due);

  LossyTransportConfig config_;
  std::vector<bool> alive_;
  std::vector<PartitionWindow> partitions_;
  /// Keyed by (due round, send sequence): deterministic delivery order.
  std::map<std::pair<std::uint64_t, std::uint64_t>, Packet> in_flight_;
  std::uint64_t round_ = 0;
  std::uint64_t seq_ = 0;
  TransportStats stats_;
};

}  // namespace selfheal::replication
