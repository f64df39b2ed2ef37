#include "selfheal/replication/transport.hpp"

#include <utility>

#include "selfheal/util/fault_schedule.hpp"

namespace selfheal::replication {

namespace {

// Salts separating the fate draw from the delay-length draws.
constexpr std::uint64_t kFateSalt = 0xfa7e0fa7e0ULL;
constexpr std::uint64_t kDelaySalt = 0xde1a9de1a9ULL;
constexpr std::uint64_t kDupSalt = 0xd0b1ed0b1eULL;

}  // namespace

LossyTransport::LossyTransport(std::size_t nodes, LossyTransportConfig config)
    : config_(config), alive_(nodes, true) {}

bool LossyTransport::cut(NodeId a, NodeId b, std::uint64_t round) const {
  for (const auto& window : partitions_) {
    if (window.active(round) && window.cuts(a, b)) return true;
  }
  return false;
}

void LossyTransport::schedule(NodeId from, NodeId to, std::string payload,
                              std::uint64_t due) {
  Packet packet{from, to, std::move(payload)};
  in_flight_.emplace(std::make_pair(due, seq_), std::move(packet));
}

void LossyTransport::send(NodeId from, NodeId to, std::string payload) {
  ++stats_.sent;
  const std::uint64_t op = seq_++;
  if (!alive_[static_cast<std::size_t>(from)] ||
      !alive_[static_cast<std::size_t>(to)]) {
    ++stats_.dead_drops;
    return;
  }
  if (from == to) {
    // Local loopback: lossless, due next round (keeps handler reentry
    // out of the protocol code; see header).
    in_flight_.emplace(std::make_pair(round_ + 1, op),
                       Packet{from, to, std::move(payload)});
    return;
  }
  if (cut(from, to, round_)) {
    ++stats_.partition_drops;
    return;
  }
  std::uint64_t due = round_ + 1;
  if (config_.enabled()) {
    util::ScheduleDraw draw(
        util::schedule_uniform(config_.seed ^ kFateSalt, op));
    if (draw.fires(config_.drop_rate)) {
      ++stats_.dropped;
      return;
    }
    if (draw.fires(config_.delay_rate)) {
      due += 1 + util::schedule_index(config_.seed ^ kDelaySalt, op,
                                      kMaxDelayRounds);
      ++stats_.delayed;
    }
    if (draw.fires(config_.duplicate_rate)) {
      const std::uint64_t extra =
          1 + util::schedule_index(config_.seed ^ kDupSalt, op,
                                   kMaxDelayRounds);
      in_flight_.emplace(std::make_pair(due + extra, op),
                         Packet{from, to, payload});
      ++stats_.duplicated;
    }
  }
  in_flight_.emplace(std::make_pair(due, op),
                     Packet{from, to, std::move(payload)});
}

std::size_t LossyTransport::pump(
    const std::function<void(const Packet&)>& deliver) {
  ++round_;
  // Collect this round's packets first: deliveries send new packets,
  // which must land in later rounds, not re-enter this sweep.
  std::vector<Packet> due;
  auto it = in_flight_.begin();
  while (it != in_flight_.end() && it->first.first <= round_) {
    due.push_back(std::move(it->second));
    it = in_flight_.erase(it);
  }
  std::size_t delivered = 0;
  for (auto& packet : due) {
    if (!alive_[static_cast<std::size_t>(packet.to)] ||
        !alive_[static_cast<std::size_t>(packet.from)]) {
      ++stats_.dead_drops;
      continue;
    }
    if (packet.from != packet.to && cut(packet.from, packet.to, round_)) {
      ++stats_.partition_drops;
      continue;
    }
    ++stats_.delivered;
    ++delivered;
    deliver(packet);
  }
  return delivered;
}

}  // namespace selfheal::replication
