// A map from ids (run, object or instance ids) to small values that
// empties in O(1): each slot carries the epoch it was written in, and
// starting a new epoch makes every slot read empty without touching the
// table. Open addressing with linear probing over a power-of-two table
// that doubles at half load. Recovery rounds keep their per-round sets
// and indexes in these and reuse them round after round, so a round
// costs O(what it touches), and allocates only when it touches more
// than every earlier round did.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace selfheal::util {

class EpochMap {
 public:
  /// Starts a new epoch: the map is empty.
  void reset() {
    size_ = 0;
    if (++epoch_ == 0) {  // wrap-around: forget every old slot once
      for (auto& slot : slots_) slot.epoch = 0;
      epoch_ = 1;
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// The value of `key`, or null when the current epoch has none.
  [[nodiscard]] const std::uint32_t* find(std::int32_t key) const noexcept {
    if (slots_.empty()) return nullptr;
    for (auto i = home(key);; i = (i + 1) & mask()) {
      const Slot& slot = slots_[i];
      if (slot.epoch != epoch_) return nullptr;
      if (slot.key == key) return &slot.value;
    }
  }

  /// The value of `key`, inserted as `initial` when absent. The
  /// reference is valid until the next insertion.
  std::uint32_t& get_or_insert(std::int32_t key, std::uint32_t initial) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    for (auto i = home(key);; i = (i + 1) & mask()) {
      Slot& slot = slots_[i];
      if (slot.epoch != epoch_) {
        slot = Slot{key, epoch_, initial};
        ++size_;
        return slot.value;
      }
      if (slot.key == key) return slot.value;
    }
  }

 private:
  struct Slot {
    std::int32_t key = 0;
    std::uint32_t epoch = 0;
    std::uint32_t value = 0;
  };

  [[nodiscard]] std::size_t mask() const noexcept { return slots_.size() - 1; }
  [[nodiscard]] std::size_t home(std::int32_t key) const noexcept {
    const auto h = static_cast<std::uint64_t>(static_cast<std::uint32_t>(key)) *
                   0x9E3779B97F4A7C15ULL;
    return static_cast<std::size_t>(h >> 32) & mask();
  }

  void grow() {
    std::vector<Slot> old(slots_.empty() ? 16 : 2 * slots_.size());
    old.swap(slots_);
    size_ = 0;
    for (const auto& slot : old) {
      if (slot.epoch == epoch_) get_or_insert(slot.key, slot.value);
    }
  }

  std::vector<Slot> slots_;
  std::uint32_t epoch_ = 1;
  std::size_t size_ = 0;
};

}  // namespace selfheal::util
