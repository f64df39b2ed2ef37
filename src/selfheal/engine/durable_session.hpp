// Crash-consistent durable session state: snapshot chain + WAL.
//
// A DurableSessionStore mirrors a live engine onto corruptible media:
//
//   * snapshot()  -- a full session snapshot (session_io v3 text,
//     framed by storage::encode_snapshot with a generation number) plus
//     a FRESH write-ahead log whose first record pins the snapshot it
//     extends ("base <generation> <log size>");
//   * on_run_started / on_commit / on_control_change (DurabilityObserver)
//     -- every run start, log commit and run-control change lands in the
//     WAL, in the line grammar session_io owns. A run start writes the
//     catalog objects and the spec DSL the media lacks, then "run <id>
//     <spec index>", so a submit is one WAL record;
//   * checkpoint()  -- the policy at the end of a step: a snapshot when
//     there is no base yet or the WAL has grown to the newest snapshot's
//     size, else the open batch closed as one record. History roughly
//     doubles between snapshots, so a submit's amortised durable cost
//     is O(1) and the generations held grow as O(log n).
//
// recover() rebuilds a session from whatever survived: newest intact
// snapshot (falling back over damaged generations), then an idempotent
// WAL replay -- duplicated records are detected and skipped, a torn
// tail is truncated, an id gap stops replay, and an object, spec or run
// line out of order is a parse failure. Every anomaly is reported
// in RecoveryReport; the chaos harness's contract is that recovery is
// either byte-identical to the pre-crash state or EXPLICITLY degraded
// -- a silent wrong answer is the one outcome that must never happen.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "selfheal/engine/engine.hpp"
#include "selfheal/engine/session_io.hpp"
#include "selfheal/storage/fault_injector.hpp"
#include "selfheal/storage/snapshot.hpp"
#include "selfheal/storage/wal.hpp"

namespace selfheal::engine {

/// What recover() found on the way back up. Default-constructed ==
/// pristine media, lossless recovery.
struct RecoveryReport {
  /// Snapshot the recovered session is based on (0 = none survived).
  std::uint64_t snapshot_generation = 0;
  /// Newer snapshot generations skipped as damaged.
  std::size_t snapshot_fallbacks = 0;
  std::size_t wal_records_replayed = 0;
  /// WAL records dropped as duplicates of already-imported entries
  /// (a retried append that landed twice; detected and masked).
  std::size_t wal_duplicates_skipped = 0;
  /// The WAL's base record disagrees with the recovered snapshot: the
  /// log extends a generation that did not survive.
  bool wal_base_mismatch = false;
  /// A structurally intact WAL record failed to parse.
  bool wal_parse_failure = false;
  /// Structural damage found by the WAL scan (kNone if clean).
  storage::WalError wal_error;
  /// Committed state is provably or possibly missing from the
  /// recovered session (the explicit-degradation flag).
  bool lost_updates = false;
  /// No snapshot generation survived at all; no session was recovered.
  bool unrecoverable = false;

  /// Recovery is lossless AND saw pristine media.
  [[nodiscard]] bool clean() const noexcept {
    return !unrecoverable && !lost_updates && !wal_base_mismatch &&
           !wal_parse_failure && wal_error.ok() && snapshot_fallbacks == 0 &&
           wal_duplicates_skipped == 0;
  }
  /// Recovery saw damage of some kind (even if fully masked).
  [[nodiscard]] bool detected_damage() const noexcept { return !clean(); }
  /// The recovered session provably matches the pre-crash state
  /// (damage, if any, was masked: e.g. duplicates skipped).
  [[nodiscard]] bool lossless() const noexcept {
    return !unrecoverable && !lost_updates;
  }
  [[nodiscard]] std::string summary() const;
};

/// The durable face of one engine. Attach with
/// engine.set_durability_observer(&store) after a snapshot (or
/// import_media); media (snapshot chain + WAL byte string) live in
/// memory so the chaos harness can corrupt them deterministically via a
/// storage::StorageFaultInjector.
class DurableSessionStore final : public DurabilityObserver {
 public:
  /// checkpoint() writes a snapshot once the WAL holds this many times
  /// the newest snapshot's bytes.
  static constexpr std::size_t kSnapshotWalRatio = 1;

  /// `faults` (borrowed, may be null) damages writes as they happen.
  explicit DurableSessionStore(storage::StorageFaultInjector* faults = nullptr)
      : faults_(faults) {}

  /// Installs (or clears) the fault injector after construction -- the
  /// chaos harness writes its initial snapshot pristine (the durable
  /// state that existed before the storm) and arms faults afterwards.
  void set_fault_injector(storage::StorageFaultInjector* faults) noexcept {
    faults_ = faults;
  }

  /// Writes a full snapshot of `engine` as the next generation and
  /// starts a fresh WAL based on it.
  void snapshot(const Engine& engine);

  /// The end-of-step durability policy: snapshot(engine) when there is
  /// no base yet or wal().size() >= kSnapshotWalRatio x the newest
  /// snapshot's bytes; otherwise the open batch closes as one record.
  /// The decision reads the media alone, so stores holding the same
  /// media decide alike whatever engine object they last saw.
  void checkpoint(const Engine& engine);

  /// Batch scope: commits observed between begin_batch() and
  /// end_batch() coalesce into ONE WAL record. The record is the
  /// recovery unit -- any damage rewinds to a record boundary -- so the
  /// caller brackets its own atomic unit of work (e.g. one controller
  /// step, which may commit several log entries) to guarantee recovery
  /// never resumes from a state mid-way through it.
  void begin_batch();
  void end_batch();
  /// Abandons the open batch WITHOUT emitting a record -- the exception
  /// path. The media keeps only whole committed steps, so a step that
  /// threw half-way leaves the WAL exactly as it was at the previous
  /// step boundary (recover() then resumes from there), and the catalog
  /// mark the batch advanced rolls back with it. No-op when no batch is
  /// open.
  void abort_batch() noexcept;

  // DurabilityObserver:
  void on_run_started(const Engine& engine, RunId run) override;
  void on_commit(const Engine& engine, const TaskInstance& entry) override;
  void on_control_change(const Engine& engine, RunId run) override;

  /// Rebuilds a session from the surviving media. On unrecoverable
  /// media the returned Session has a null engine and
  /// `report.unrecoverable` is set. Never throws on damaged media --
  /// damage is the expected input here.
  [[nodiscard]] Session recover(RecoveryReport& report) const;

  /// Serialises the complete media state -- snapshot chain, WAL bytes,
  /// the base/op counters that make future snapshots land with the same
  /// generation numbers, the newest snapshot's size the checkpoint
  /// policy reads, and the catalog mark -- for replica state transfer.
  /// Only meaningful at a step boundary (no open batch).
  [[nodiscard]] std::string export_media() const;
  /// Replaces this store's media with an export_media() blob, so the
  /// importing store's future byte stream is identical to the source's.
  /// Throws std::invalid_argument on malformed input.
  void import_media(std::string_view blob);

  [[nodiscard]] const storage::SnapshotChain& snapshots() const noexcept {
    return snapshots_;
  }
  [[nodiscard]] storage::SnapshotChain& mutable_snapshots() noexcept {
    return snapshots_;
  }
  [[nodiscard]] const std::string& wal() const noexcept { return wal_; }
  [[nodiscard]] std::string& mutable_wal() noexcept { return wal_; }
  /// Monotone count of media write operations (fault-plan op indices).
  [[nodiscard]] std::uint64_t ops() const noexcept { return op_index_; }

 private:
  void wal_record(storage::WalRecordType type, std::string_view payload);
  /// Routes a data payload through the open batch, or straight to a
  /// WAL record when no batch is open.
  void emit(std::string_view payload);
  /// The media index of `run`'s spec, numbering the engine's earlier
  /// runs first when the engine is not the one numbered last.
  SpecNumbering::Number number_spec(const Engine& engine, RunId run);

  storage::StorageFaultInjector* faults_ = nullptr;
  storage::SnapshotChain snapshots_;
  std::string wal_;
  bool batch_open_ = false;
  std::string batch_;
  /// Generation + log size the current WAL extends, and that
  /// snapshot's encoded size.
  std::uint64_t base_generation_ = 0;
  std::size_t base_log_size_ = 0;
  std::size_t base_snapshot_bytes_ = 0;
  std::uint64_t op_index_ = 0;
  /// Catalog objects the media holds. Not the engine's catalog size: a
  /// spec's objects are interned when it is parsed, before its run
  /// starts (and a spec that fails a later check never runs).
  std::size_t catalog_mark_ = 0;
  std::size_t batch_catalog_mark_ = 0;  // catalog_mark_ at begin_batch()
  /// Spec numbering of the media's runs; derived from the engine, so it
  /// is rebuilt whenever the engine (or its run count) is not the one
  /// numbered last.
  SpecNumbering numbering_;
  const Engine* numbered_engine_ = nullptr;
  std::size_t numbered_runs_ = 0;
};

}  // namespace selfheal::engine
