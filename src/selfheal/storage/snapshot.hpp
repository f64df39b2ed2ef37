// Atomic, checksummed, generation-numbered snapshots.
//
// A snapshot blob frames an opaque payload (here: a serialised session)
// with enough integrity metadata that ANY single-bit or truncation
// damage is detected, and with a monotonically increasing generation
// number so a reader can always identify the newest intact snapshot:
//
//   0..7    magic "SHSNAPv1"
//   8..11   u32 format version
//   12..19  u64 generation
//   20..27  u64 payload length
//   28..31  u32 CRC32C of bytes 0..27   (header integrity)
//   32..35  u32 CRC32C of the payload   (body integrity)
//   36..    payload
//
// SnapshotChain models the on-disk directory of generations as byte
// blobs (the chaos harness's corruptible "disk"); save_snapshot_file /
// load_snapshot_file bind one blob to a real file via temp+fsync+rename,
// so a crash at any byte boundary leaves either the complete old
// generation or the complete new one -- never a hybrid.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace selfheal::storage {

inline constexpr std::uint32_t kSnapshotVersion = 1;
inline constexpr std::size_t kSnapshotHeaderSize = 36;

enum class SnapshotErrorKind {
  kNone,
  kTruncatedHeader,
  kBadMagic,
  kBadVersion,
  kBadHeaderCrc,
  kLengthMismatch,  // blob shorter or longer than header + declared payload
  kBadPayloadCrc,
};

[[nodiscard]] const char* to_string(SnapshotErrorKind kind);

struct SnapshotDecode {
  SnapshotErrorKind error = SnapshotErrorKind::kNone;
  std::uint64_t generation = 0;
  std::string payload;

  [[nodiscard]] bool ok() const noexcept {
    return error == SnapshotErrorKind::kNone;
  }
};

[[nodiscard]] std::string encode_snapshot(std::uint64_t generation,
                                          std::string_view payload);
[[nodiscard]] SnapshotDecode decode_snapshot(std::string_view blob);

/// An ordered set of snapshot generations (oldest first). Blobs are
/// pushed as raw bytes -- possibly already damaged by a fault injector;
/// DurableSessionStore::recover() decodes them newest-first and skips
/// damaged ones.
class SnapshotChain {
 public:
  /// The generation number the next write should carry.
  [[nodiscard]] std::uint64_t next_generation() const noexcept {
    return next_generation_;
  }

  /// Consumes a generation number and stores `blob` under it. An empty
  /// blob models a write that never became visible (crash before
  /// rename): the generation number is spent but no file appears.
  void push(std::string blob);

  [[nodiscard]] std::size_t size() const noexcept { return blobs_.size(); }
  [[nodiscard]] const std::vector<std::string>& blobs() const noexcept {
    return blobs_;
  }
  [[nodiscard]] std::vector<std::string>& mutable_blobs() noexcept {
    return blobs_;
  }

 private:
  std::vector<std::string> blobs_;
  std::uint64_t next_generation_ = 1;
};

/// Encodes and atomically writes one snapshot file (temp+fsync+rename).
void save_snapshot_file(const std::string& path, std::uint64_t generation,
                        std::string_view payload);

/// Reads and decodes one snapshot file. Missing file throws
/// std::runtime_error; corrupt content is reported via SnapshotDecode.
[[nodiscard]] SnapshotDecode load_snapshot_file(const std::string& path);

}  // namespace selfheal::storage
