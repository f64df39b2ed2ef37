// Storage primitives: CRC32C, WAL framing + recovery-scan damage
// classification, snapshot blobs + generation chains, and the atomic
// file primitives everything durable is written through.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "selfheal/storage/crc32c.hpp"
#include "selfheal/storage/snapshot.hpp"
#include "selfheal/storage/wal.hpp"
#include "selfheal/util/fsio.hpp"
#include "selfheal/util/rng.hpp"

namespace {

using namespace selfheal;
using storage::WalErrorKind;
using storage::WalRecordType;

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

// --- CRC32C ---------------------------------------------------------

TEST(Crc32c, KnownVectors) {
  // RFC 3720 (iSCSI) test vectors.
  EXPECT_EQ(storage::crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(storage::crc32c(""), 0x00000000u);
  EXPECT_EQ(storage::crc32c(std::string(32, '\0')), 0x8A9136AAu);
  EXPECT_EQ(storage::crc32c(std::string(32, '\xff')), 0x62A8AB43u);
}

TEST(Crc32c, StreamingMatchesOneShot) {
  util::Rng rng(5);
  std::string data;
  for (int i = 0; i < 4096; ++i) {
    data.push_back(static_cast<char>(rng.below(256)));
  }
  for (const std::size_t split : {std::size_t{0}, std::size_t{1},
                                  std::size_t{7}, std::size_t{4095},
                                  data.size()}) {
    auto state = storage::crc32c_init();
    state = storage::crc32c_update(state, std::string_view(data).substr(0, split));
    state = storage::crc32c_update(state, std::string_view(data).substr(split));
    EXPECT_EQ(storage::crc32c_finish(state), storage::crc32c(data));
  }
}

TEST(Crc32c, DetectsEverySingleBitFlip) {
  const std::string data = "the quick brown fox";
  const auto clean = storage::crc32c(data);
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = data;
      damaged[byte] = static_cast<char>(damaged[byte] ^ (1 << bit));
      EXPECT_NE(storage::crc32c(damaged), clean)
          << "byte " << byte << " bit " << bit;
    }
  }
}

// --- WAL ------------------------------------------------------------

TEST(Wal, EmptyLogScansClean) {
  const auto scan = storage::scan_wal(storage::wal_header());
  EXPECT_TRUE(scan.error.ok());
  EXPECT_TRUE(scan.records.empty());
  EXPECT_FALSE(scan.sealed);
  EXPECT_EQ(scan.valid_bytes, storage::kWalHeaderSize);
}

TEST(Wal, AppendScanRoundTrip) {
  auto wal = storage::wal_header();
  storage::wal_append(wal, WalRecordType::kMeta, "base 1 0");
  storage::wal_append(wal, WalRecordType::kData, "first");
  storage::wal_append(wal, WalRecordType::kData, "");
  storage::wal_seal(wal);

  const auto scan = storage::scan_wal(wal);
  EXPECT_TRUE(scan.error.ok()) << scan.error.message();
  EXPECT_TRUE(scan.sealed);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[0].type, WalRecordType::kMeta);
  EXPECT_EQ(scan.records[0].payload, "base 1 0");
  EXPECT_EQ(scan.records[1].payload, "first");
  EXPECT_EQ(scan.records[2].payload, "");
  EXPECT_EQ(scan.valid_bytes, wal.size());
}

TEST(Wal, PropertyRoundTripsArbitraryBinaryPayloads) {
  // Payloads are opaque bytes: newlines, NULs, the framing bytes
  // themselves -- none of it may confuse the scan.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    auto wal = storage::wal_header();
    std::vector<std::string> payloads;
    const auto n = 1 + rng.below(12);
    for (std::uint64_t i = 0; i < n; ++i) {
      std::string payload;
      const auto len = rng.below(200);
      for (std::uint64_t b = 0; b < len; ++b) {
        payload.push_back(static_cast<char>(rng.below(256)));
      }
      storage::wal_append(wal, WalRecordType::kData, payload);
      payloads.push_back(std::move(payload));
    }
    const auto scan = storage::scan_wal(wal);
    ASSERT_TRUE(scan.error.ok()) << "seed " << seed << ": "
                                 << scan.error.message();
    ASSERT_EQ(scan.records.size(), payloads.size()) << "seed " << seed;
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      EXPECT_EQ(scan.records[i].payload, payloads[i]) << "seed " << seed;
    }
  }
}

TEST(Wal, TornTailIsRecoverable) {
  auto wal = storage::wal_header();
  storage::wal_append(wal, WalRecordType::kData, "kept");
  const auto clean_size = wal.size();
  storage::wal_append(wal, WalRecordType::kData, "torn away");

  // Every possible tear point of the final frame: incomplete frame
  // header, incomplete payload -- all classify as a torn tail whose
  // truncation at valid_bytes yields the intact prefix. (keep ==
  // clean_size would be a clean log with the append simply absent.)
  for (std::size_t keep = clean_size + 1; keep < wal.size(); ++keep) {
    const auto scan = storage::scan_wal(wal.substr(0, keep));
    EXPECT_EQ(scan.error.kind, WalErrorKind::kTornTail) << "keep " << keep;
    EXPECT_TRUE(scan.error.recoverable());
    ASSERT_EQ(scan.records.size(), 1u) << "keep " << keep;
    EXPECT_EQ(scan.records[0].payload, "kept");
    EXPECT_EQ(scan.valid_bytes, clean_size);
  }
}

TEST(Wal, MidLogCorruptionStopsBeforeDamage) {
  auto wal = storage::wal_header();
  storage::wal_append(wal, WalRecordType::kData, "alpha");
  const auto second_offset = wal.size();
  storage::wal_append(wal, WalRecordType::kData, "beta");
  storage::wal_append(wal, WalRecordType::kData, "gamma");

  // Flip one payload bit of the middle record: records after it are
  // structurally reachable, so this is NOT a torn tail.
  auto damaged = wal;
  damaged[second_offset + storage::kWalFrameOverhead] ^= 0x01;
  const auto scan = storage::scan_wal(damaged);
  EXPECT_EQ(scan.error.kind, WalErrorKind::kMidLogCorruption);
  EXPECT_FALSE(scan.error.recoverable());
  EXPECT_EQ(scan.error.record_index, 1u);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].payload, "alpha");
}

TEST(Wal, CorruptFinalFrameIsTornNotMidLog) {
  auto wal = storage::wal_header();
  storage::wal_append(wal, WalRecordType::kData, "alpha");
  const auto last_offset = wal.size();
  storage::wal_append(wal, WalRecordType::kData, "omega");
  wal[last_offset + storage::kWalFrameOverhead] ^= 0x01;

  const auto scan = storage::scan_wal(wal);
  EXPECT_EQ(scan.error.kind, WalErrorKind::kTornTail);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].payload, "alpha");
}

TEST(Wal, HeaderDamageIsFatal) {
  auto wal = storage::wal_header();
  storage::wal_append(wal, WalRecordType::kData, "data");

  auto bad_magic = wal;
  bad_magic[0] ^= 0x01;
  EXPECT_EQ(storage::scan_wal(bad_magic).error.kind, WalErrorKind::kBadMagic);

  auto bad_version = wal;
  bad_version[8] ^= 0x40;
  // Version is CRC-protected, so a flipped version byte surfaces as a
  // header CRC failure, not a bogus "unsupported version".
  EXPECT_EQ(storage::scan_wal(bad_version).error.kind,
            WalErrorKind::kBadHeaderCrc);

  auto bad_crc = wal;
  bad_crc[13] ^= 0x01;
  EXPECT_EQ(storage::scan_wal(bad_crc).error.kind, WalErrorKind::kBadHeaderCrc);

  EXPECT_EQ(storage::scan_wal(wal.substr(0, storage::kWalHeaderSize - 1))
                .error.kind,
            WalErrorKind::kTruncatedHeader);
  for (const auto& damaged : {bad_magic, bad_version, bad_crc}) {
    EXPECT_TRUE(storage::scan_wal(damaged).records.empty());
  }
}

TEST(Wal, ImplausibleLengthDoesNotChaseGarbage) {
  auto wal = storage::wal_header();
  storage::wal_append(wal, WalRecordType::kData, "ok");
  const auto frame_offset = wal.size();
  storage::wal_append(wal, WalRecordType::kData, "x");
  // Overwrite the length field with ~4 GiB; bytes beyond the frame
  // header exist, so this cannot be dismissed as a torn tail.
  wal[frame_offset + 0] = static_cast<char>(0xFF);
  wal[frame_offset + 1] = static_cast<char>(0xFF);
  wal[frame_offset + 2] = static_cast<char>(0xFF);
  wal[frame_offset + 3] = static_cast<char>(0xFF);

  const auto scan = storage::scan_wal(wal);
  EXPECT_EQ(scan.error.kind, WalErrorKind::kImplausibleLength);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].payload, "ok");
}

TEST(Wal, TrailingDataAfterSealIsFlagged) {
  auto wal = storage::wal_header();
  storage::wal_append(wal, WalRecordType::kData, "data");
  storage::wal_seal(wal);
  wal += "stray";

  const auto scan = storage::scan_wal(wal);
  EXPECT_EQ(scan.error.kind, WalErrorKind::kTrailingData);
  EXPECT_TRUE(scan.sealed);
  ASSERT_EQ(scan.records.size(), 1u);
}

TEST(Wal, UnknownRecordTypeIsFlagged) {
  auto wal = storage::wal_header();
  // Hand-build a frame whose CRC is valid but whose type byte is not a
  // known WalRecordType (a format from the future, or a stray write).
  auto frame = storage::encode_wal_record(WalRecordType::kData, "payload");
  // Recompute: type byte lives at offset 8; CRC covers type || payload.
  std::string body;
  body.push_back(static_cast<char>(0x7F));
  body += "payload";
  const auto crc = storage::crc32c(body);
  frame[4] = static_cast<char>(crc & 0xFF);
  frame[5] = static_cast<char>((crc >> 8) & 0xFF);
  frame[6] = static_cast<char>((crc >> 16) & 0xFF);
  frame[7] = static_cast<char>((crc >> 24) & 0xFF);
  frame[8] = static_cast<char>(0x7F);
  wal += frame;

  const auto scan = storage::scan_wal(wal);
  EXPECT_EQ(scan.error.kind, WalErrorKind::kUnknownRecordType);
  EXPECT_TRUE(scan.records.empty());
}

TEST(Wal, FileBackedRoundTrip) {
  const auto path = temp_path("wal_file_test.wal");
  {
    storage::WalFile wal(path);
    wal.append(WalRecordType::kMeta, "base 1 0");
    wal.append(WalRecordType::kData, std::string("bin\0\n\xff", 6));
    wal.sync();
    wal.seal();
  }
  const auto scan = storage::scan_wal_file(path);
  EXPECT_TRUE(scan.error.ok()) << scan.error.message();
  EXPECT_TRUE(scan.sealed);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[1].payload, std::string("bin\0\n\xff", 6));
  std::remove(path.c_str());

  EXPECT_THROW((void)storage::scan_wal_file(path), std::runtime_error);
}

// --- Snapshots ------------------------------------------------------

TEST(Snapshot, EncodeDecodeRoundTrip) {
  const std::string payload("session text\nwith\0binary\xff", 26);
  const auto blob = storage::encode_snapshot(42, payload);
  const auto decoded = storage::decode_snapshot(blob);
  ASSERT_TRUE(decoded.ok()) << storage::to_string(decoded.error);
  EXPECT_EQ(decoded.generation, 42u);
  EXPECT_EQ(decoded.payload, payload);
}

TEST(Snapshot, EveryByteFlipIsDetected) {
  const auto blob = storage::encode_snapshot(7, "snapshot payload");
  for (std::size_t byte = 0; byte < blob.size(); ++byte) {
    auto damaged = blob;
    damaged[byte] = static_cast<char>(damaged[byte] ^ 0x10);
    EXPECT_FALSE(storage::decode_snapshot(damaged).ok()) << "byte " << byte;
  }
}

TEST(Snapshot, EveryTruncationIsDetected) {
  const auto blob = storage::encode_snapshot(7, "snapshot payload");
  for (std::size_t keep = 0; keep < blob.size(); ++keep) {
    EXPECT_FALSE(storage::decode_snapshot(blob.substr(0, keep)).ok())
        << "keep " << keep;
  }
  // Appended garbage must be caught too (length mismatch).
  EXPECT_FALSE(storage::decode_snapshot(blob + "x").ok());
}

TEST(Snapshot, FileRoundTripAndAtomicReplace) {
  const auto path = temp_path("snapshot_test.snap");
  storage::save_snapshot_file(path, 1, "first generation");
  storage::save_snapshot_file(path, 2, "second generation");
  const auto decoded = storage::load_snapshot_file(path);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.generation, 2u);
  EXPECT_EQ(decoded.payload, "second generation");
  std::remove(path.c_str());
  EXPECT_THROW((void)storage::load_snapshot_file(path), std::runtime_error);
}

// --- Atomic file IO -------------------------------------------------

TEST(Fsio, WriteFileAtomicReplacesContent) {
  const auto path = temp_path("fsio_test.txt");
  util::write_file_atomic(path, "version one");
  EXPECT_EQ(util::read_file(path), "version one");
  util::write_file_atomic(path, "version two, longer than before");
  EXPECT_EQ(util::read_file(path), "version two, longer than before");
  util::write_file_atomic(path, "");
  EXPECT_EQ(util::read_file(path), "");
  std::remove(path.c_str());
}

TEST(Fsio, WriteFileAtomicFailsCleanly) {
  EXPECT_THROW(util::write_file_atomic("/nonexistent-dir/x/y.txt", "data"),
               std::runtime_error);
  EXPECT_THROW((void)util::read_file("/nonexistent-dir/x/y.txt"),
               std::runtime_error);
}

}  // namespace
