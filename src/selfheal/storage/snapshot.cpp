#include "selfheal/storage/snapshot.hpp"

#include <cstring>

#include "selfheal/obs/metrics.hpp"
#include "selfheal/storage/crc32c.hpp"
#include "selfheal/util/fsio.hpp"

namespace selfheal::storage {

namespace {

constexpr char kMagic[8] = {'S', 'H', 'S', 'N', 'A', 'P', 'v', '1'};

struct SnapshotMetrics {
  obs::Counter& writes = obs::metrics().counter("storage.snapshot.writes");
  obs::Counter& write_bytes =
      obs::metrics().counter("storage.snapshot.write_bytes");
};

SnapshotMetrics& snapshot_metrics() {
  static SnapshotMetrics m;
  return m;
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

std::uint32_t get_u32(std::string_view in, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(in[at + static_cast<std::size_t>(i)]);
  }
  return v;
}

std::uint64_t get_u64(std::string_view in, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(in[at + static_cast<std::size_t>(i)]);
  }
  return v;
}

}  // namespace

const char* to_string(SnapshotErrorKind kind) {
  switch (kind) {
    case SnapshotErrorKind::kNone: return "none";
    case SnapshotErrorKind::kTruncatedHeader: return "truncated header";
    case SnapshotErrorKind::kBadMagic: return "bad magic";
    case SnapshotErrorKind::kBadVersion: return "unknown format version";
    case SnapshotErrorKind::kBadHeaderCrc: return "header checksum mismatch";
    case SnapshotErrorKind::kLengthMismatch: return "length mismatch";
    case SnapshotErrorKind::kBadPayloadCrc: return "payload checksum mismatch";
  }
  return "?";
}

std::string encode_snapshot(std::uint64_t generation, std::string_view payload) {
  auto& m = snapshot_metrics();
  m.writes.inc();
  m.write_bytes.inc(kSnapshotHeaderSize + payload.size());

  std::string blob;
  blob.reserve(kSnapshotHeaderSize + payload.size());
  blob.append(kMagic, sizeof(kMagic));
  put_u32(blob, kSnapshotVersion);
  put_u64(blob, generation);
  put_u64(blob, payload.size());
  put_u32(blob, crc32c(blob));  // header crc over bytes 0..27
  put_u32(blob, crc32c(payload));
  blob.append(payload);
  return blob;
}

SnapshotDecode decode_snapshot(std::string_view blob) {
  SnapshotDecode out;
  if (blob.size() < kSnapshotHeaderSize) {
    out.error = SnapshotErrorKind::kTruncatedHeader;
    return out;
  }
  if (std::memcmp(blob.data(), kMagic, sizeof(kMagic)) != 0) {
    out.error = SnapshotErrorKind::kBadMagic;
    return out;
  }
  if (crc32c(blob.substr(0, 28)) != get_u32(blob, 28)) {
    out.error = SnapshotErrorKind::kBadHeaderCrc;
    return out;
  }
  if (get_u32(blob, 8) != kSnapshotVersion) {
    out.error = SnapshotErrorKind::kBadVersion;
    return out;
  }
  out.generation = get_u64(blob, 12);
  const std::uint64_t len = get_u64(blob, 20);
  if (blob.size() != kSnapshotHeaderSize + len) {
    out.error = SnapshotErrorKind::kLengthMismatch;
    return out;
  }
  const auto payload = blob.substr(kSnapshotHeaderSize);
  if (crc32c(payload) != get_u32(blob, 32)) {
    out.error = SnapshotErrorKind::kBadPayloadCrc;
    return out;
  }
  out.payload.assign(payload);
  return out;
}

void SnapshotChain::push(std::string blob) {
  ++next_generation_;
  if (!blob.empty()) blobs_.push_back(std::move(blob));
}

void save_snapshot_file(const std::string& path, std::uint64_t generation,
                        std::string_view payload) {
  util::write_file_atomic(path, encode_snapshot(generation, payload));
}

SnapshotDecode load_snapshot_file(const std::string& path) {
  return decode_snapshot(util::read_file(path));
}

}  // namespace selfheal::storage
