#include "selfheal/engine/durable_session.hpp"

#include <sstream>
#include <stdexcept>
#include <string_view>

#include "selfheal/obs/metrics.hpp"
#include "selfheal/wfspec/parser.hpp"

namespace selfheal::engine {

namespace {

struct DurableMetrics {
  obs::Counter& checkpoints = obs::metrics().counter("storage.checkpoints");
  obs::Counter& wal_records = obs::metrics().counter("storage.wal_records");
  obs::Counter& recoveries = obs::metrics().counter("storage.recover.attempts");
  obs::Counter& replayed =
      obs::metrics().counter("storage.recover.replayed_records");
  obs::Counter& lost_updates =
      obs::metrics().counter("storage.recover.lost_updates");
  obs::Counter& unrecoverable =
      obs::metrics().counter("storage.recover.unrecoverable");
};

DurableMetrics& durable_metrics() {
  static DurableMetrics m;
  return m;
}

/// What one WAL line did to the session being recovered.
enum class Replay {
  kApplied,
  kDuplicate,  // already in the session: a retried append landed twice
  kGap,        // extends a state past the session: a record vanished
  kBad,        // malformed, or contradicts the session
};

/// An object must be the next one, or name the same object again.
Replay replay_object(wfspec::ObjectCatalog& catalog, const ObjectLine& object) {
  const auto id = static_cast<std::size_t>(object.id);
  if (id == catalog.size()) {
    return catalog.intern(std::string(object.name)) == object.id ? Replay::kApplied
                                                                 : Replay::kBad;
  }
  if (id < catalog.size() && catalog.name(object.id) == object.name) {
    return Replay::kDuplicate;
  }
  return Replay::kBad;
}

/// A spec must be the next one, or repeat the same text.
Replay replay_spec(Session& session, util::TextReader& in, const SpecBlock& block) {
  const auto index = *block.index;
  if (index < session.specs.size()) {
    return wfspec::to_dsl(*session.specs[index]) == block.dsl ? Replay::kDuplicate
                                                              : Replay::kBad;
  }
  if (index != session.specs.size()) return Replay::kBad;
  // Checked on a copy first: a refused spec must intern nothing.
  wfspec::ObjectCatalog scratch = *session.catalog;
  (void)parse_spec(in, block, scratch);
  session.specs.push_back(parse_spec(in, block, *session.catalog));
  return Replay::kApplied;
}

/// A run must be the next one, or name the same run again.
Replay replay_run(Session& session, const RunStart& start) {
  if (start.spec >= session.specs.size()) return Replay::kBad;
  auto& engine = *session.engine;
  const auto id = static_cast<std::size_t>(start.run);
  if (id == engine.run_count()) {
    (void)engine.start_run(*session.specs[start.spec]);
    return Replay::kApplied;
  }
  if (id < engine.run_count() &&
      &engine.spec_of(start.run) == session.specs[start.spec].get()) {
    return Replay::kDuplicate;
  }
  return Replay::kBad;
}

/// Entries append in id order, each to a run the session holds.
Replay replay_entry(Engine& engine, TaskInstance entry) {
  const auto next_id = static_cast<InstanceId>(engine.log().size());
  if (entry.id < next_id) return Replay::kDuplicate;
  if (entry.id > next_id) return Replay::kGap;
  if (entry.kind != ActionKind::kRepair &&
      (entry.run < 0 || static_cast<std::size_t>(entry.run) >= engine.run_count())) {
    return Replay::kBad;
  }
  engine.import_entry(std::move(entry));
  return Replay::kApplied;
}

/// Replays the next line of a record (a spec line also reads its DSL
/// lines). Anything the line refuses or the session rejects is kBad.
Replay replay_line(Session& session, util::TextReader& in) {
  try {
    const auto text = in.line();
    util::Tokens line(in, text);
    const auto keyword = text.substr(0, text.find(' '));
    if (keyword == "entry") {
      return replay_entry(*session.engine, parse_log_entry(in, text));
    }
    if (keyword == "control") {
      const auto control = read_run_control(line);
      restore(*session.engine, control.run, control.state);
      return Replay::kApplied;
    }
    if (keyword == "obj") return replay_object(*session.catalog, read_object(line));
    if (keyword == "spec") {
      return replay_spec(session, in, read_spec(line, in, /*indexed=*/true));
    }
    if (keyword == "run") return replay_run(session, read_run_start(line));
  } catch (const std::exception&) {
  }
  return Replay::kBad;
}

/// True iff `record` is the "base <generation> <log size>" record of a
/// WAL that extends exactly that snapshot state.
bool extends(const storage::WalRecord& record, std::uint64_t generation,
             std::uint64_t log_size) {
  if (record.type != storage::WalRecordType::kMeta) return false;
  try {
    util::TextReader in(record.payload, "wal base");
    auto line = in.tokens();
    line.expect("base");
    const auto base_generation = line.integer<std::uint64_t>("generation");
    const auto base_log_size = line.integer<std::uint64_t>("log size");
    line.done();
    in.done();
    return base_generation == generation && base_log_size == log_size;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

}  // namespace

std::string RecoveryReport::summary() const {
  std::ostringstream out;
  if (unrecoverable) return "unrecoverable: no intact snapshot generation";
  out << "base generation " << snapshot_generation;
  if (snapshot_fallbacks > 0) out << " (+" << snapshot_fallbacks << " fallbacks)";
  out << ", " << wal_records_replayed << " records replayed";
  if (wal_duplicates_skipped > 0) {
    out << ", " << wal_duplicates_skipped << " duplicates skipped";
  }
  if (!wal_error.ok()) out << ", wal: " << wal_error.message();
  if (wal_base_mismatch) out << ", wal base mismatch";
  if (wal_parse_failure) out << ", wal parse failure";
  out << (lost_updates ? ", LOST UPDATES" : ", lossless");
  return out.str();
}

void DurableSessionStore::wal_record(storage::WalRecordType type,
                                     std::string_view payload) {
  durable_metrics().wal_records.inc();
  if (faults_ != nullptr) {
    faults_->on_wal_append(wal_, storage::encode_wal_record(type, payload),
                           op_index_++);
  } else {
    ++op_index_;
    storage::wal_append(wal_, type, payload);
  }
}

void DurableSessionStore::emit(std::string_view payload) {
  if (batch_open_) {
    if (!batch_.empty()) batch_ += '\n';
    batch_ += payload;
    return;
  }
  wal_record(storage::WalRecordType::kData, payload);
}

void DurableSessionStore::begin_batch() {
  batch_open_ = true;
  batch_catalog_mark_ = catalog_mark_;
}

void DurableSessionStore::end_batch() {
  batch_open_ = false;
  if (batch_.empty()) return;
  wal_record(storage::WalRecordType::kData, batch_);
  batch_.clear();
}

void DurableSessionStore::abort_batch() noexcept {
  if (!batch_open_) return;
  batch_open_ = false;
  batch_.clear();
  catalog_mark_ = batch_catalog_mark_;
  // The discarded batch may have numbered a spec the media never got;
  // renumber from the engine at the next run start.
  numbered_engine_ = nullptr;
}

void DurableSessionStore::checkpoint(const Engine& engine) {
  if (base_generation_ == 0 ||
      wal_.size() >= kSnapshotWalRatio * base_snapshot_bytes_) {
    snapshot(engine);
  } else {
    end_batch();
  }
}

void DurableSessionStore::snapshot(const Engine& engine) {
  durable_metrics().checkpoints.inc();
  std::ostringstream text;
  SpecNumbering numbering;
  save_session(engine, text, numbering);
  const auto generation = snapshots_.next_generation();
  auto blob = storage::encode_snapshot(generation, text.str());
  const auto blob_bytes = blob.size();
  auto fault = storage::StorageFaultKind::kNone;
  if (faults_ != nullptr) {
    fault = faults_->on_snapshot_write(blob, op_index_++);
  } else {
    ++op_index_;
  }
  snapshots_.push(std::move(blob));
  if (fault == storage::StorageFaultKind::kCrashBeforeRename) {
    // The rename never became durable, and a real writer would know
    // (crashed mid-snapshot): the previous snapshot + WAL stay
    // authoritative, so what the new generation would have subsumed
    // lands in the old log instead.
    end_batch();
    return;
  }
  // The snapshot subsumes anything still buffered: it read the live
  // engine, which already includes those commits.
  batch_.clear();
  batch_open_ = false;
  // Torn/flipped snapshot damage is NOT observable at write time (fsync
  // succeeded, the media lied), so the WAL is truncated and based on
  // the new generation regardless -- recovery detects the mismatch.
  base_generation_ = generation;
  base_log_size_ = engine.log().size();
  base_snapshot_bytes_ = blob_bytes;
  catalog_mark_ =
      engine.run_count() > 0 ? engine.spec_of(0).catalog().size() : 0;
  numbering_ = std::move(numbering);
  numbered_engine_ = &engine;
  numbered_runs_ = engine.run_count();
  wal_ = storage::wal_header();
  wal_record(storage::WalRecordType::kMeta,
             "base " + std::to_string(generation) + " " +
                 std::to_string(base_log_size_));
}

SpecNumbering::Number DurableSessionStore::number_spec(const Engine& engine,
                                                       RunId run) {
  const auto runs = static_cast<std::size_t>(run);
  if (&engine != numbered_engine_ || runs != numbered_runs_) {
    numbering_ = SpecNumbering{};
    for (std::size_t r = 0; r < runs; ++r) {
      (void)numbering_.number(engine.spec_of(static_cast<RunId>(r)));
    }
    numbered_engine_ = &engine;
  }
  numbered_runs_ = runs + 1;
  return numbering_.number(engine.spec_of(run));
}

void DurableSessionStore::on_run_started(const Engine& engine, RunId run) {
  // The catalog objects and spec text the media lacks, then the run:
  // replay creates each in this order.
  const auto& catalog = engine.spec_of(run).catalog();
  std::string lines;
  for (; catalog_mark_ < catalog.size(); ++catalog_mark_) {
    lines += format_object(catalog, static_cast<wfspec::ObjectId>(catalog_mark_));
    lines += '\n';
  }
  const auto spec = number_spec(engine, run);
  if (spec.added) lines += format_spec(spec.index, numbering_.texts()[spec.index]);
  lines += format_run_start(run, spec.index);
  emit(lines);
}

void DurableSessionStore::on_commit(const Engine& engine,
                                    const TaskInstance& entry) {
  if (entry.kind == ActionKind::kNormal ||
      entry.kind == ActionKind::kMalicious) {
    // Original executions move the run's pc/visits with the commit. The
    // entry and its control state must land ATOMICALLY -- as one record
    // -- or damage between the two would recover a log that disagrees
    // with its run control (the entry exists but the pc never advanced,
    // so replaying the engine re-executes it). Every WAL record is a
    // consistent state boundary; replay applies each payload line.
    emit(format_log_entry(entry) + "\n" + format_run_control(engine, entry.run));
  } else {
    emit(format_log_entry(entry));
  }
}

void DurableSessionStore::on_control_change(const Engine& engine, RunId run) {
  emit(format_run_control(engine, run));
}

Session DurableSessionStore::recover(RecoveryReport& report) const {
  auto& m = durable_metrics();
  m.recoveries.inc();
  report = RecoveryReport{};

  // 1. Newest snapshot generation that is both intact (checksums) and
  // parseable (session checksum + grammar).
  Session session;
  bool have_session = false;
  const auto& blobs = snapshots_.blobs();
  for (auto it = blobs.rbegin(); it != blobs.rend(); ++it) {
    auto decoded = storage::decode_snapshot(*it);
    if (decoded.ok()) {
      try {
        session = load_session(decoded.payload);
        report.snapshot_generation = decoded.generation;
        have_session = true;
        break;
      } catch (const std::exception&) {
        // CRC-valid yet unparseable: count as a damaged generation.
      }
    }
    ++report.snapshot_fallbacks;
  }
  if (!have_session) {
    report.unrecoverable = true;
    report.lost_updates = true;
    m.unrecoverable.inc();
    m.lost_updates.inc();
    return Session{};
  }

  // 2. WAL scan: structural damage is data here, never an exception.
  const auto scan = storage::scan_wal(wal_);
  report.wal_error = scan.error;
  if (!scan.error.ok()) {
    // Any structural damage means at least one appended record did not
    // survive to the scan (tear, flip, truncation): conservatively a
    // lost update even when the tail happens to be reconstructible.
    report.lost_updates = true;
  }

  // 3. The WAL must extend exactly the snapshot we recovered.
  if (scan.records.empty() ||
      !extends(scan.records.front(), report.snapshot_generation,
               session.engine->log().size())) {
    report.wal_base_mismatch = true;
    // The WAL extends a state that did not survive (typically a damaged
    // newer snapshot generation). Whatever happened between the
    // recovered snapshot and the WAL's base -- commits, control changes
    // -- left no trace in this log, so losslessness cannot be claimed
    // even when the WAL itself is empty.
    report.lost_updates = true;
    m.lost_updates.inc();
    return session;
  }

  // 4. Idempotent replay: objects, specs, runs and entries each append
  // in id order; a line naming one the session already holds is a
  // duplicate (a retried append that landed twice) and is skipped; an
  // entry id gap means a record vanished between survivors -- stop,
  // flag lost updates; any other disagreement is a parse failure.
  for (std::size_t i = 1; i < scan.records.size(); ++i) {
    const auto& record = scan.records[i];
    if (record.type == storage::WalRecordType::kSeal) break;
    if (record.type == storage::WalRecordType::kMeta) {
      // Only the base record (frame 0) is meaningful; a later meta is a
      // duplicated base append -- detected, masked.
      ++report.wal_duplicates_skipped;
      continue;
    }
    // A record may carry several newline-separated lines (an original
    // entry travels with its control state, a submit with its objects,
    // spec and run); the record is the atomic unit, its lines apply
    // together.
    bool record_ok = true;
    bool duplicate = false;
    util::TextReader lines(record.payload, "wal record");
    while (!lines.at_end()) {
      const auto result = replay_line(session, lines);
      if (result == Replay::kDuplicate) {
        // A retried append that landed twice; its control lines
        // re-apply idempotently.
        duplicate = true;
        continue;
      }
      if (result == Replay::kGap) {
        // A record vanished between survivors: unreachable suffix.
        report.lost_updates = true;
      }
      if (result != Replay::kApplied) {
        record_ok = false;
        break;
      }
    }
    if (!record_ok) {
      if (!report.lost_updates) report.wal_parse_failure = true;
      report.lost_updates = true;
      break;
    }
    if (duplicate) {
      ++report.wal_duplicates_skipped;
    } else {
      ++report.wal_records_replayed;
      m.replayed.inc();
    }
  }
  if (report.lost_updates) m.lost_updates.inc();
  return session;
}

std::string DurableSessionStore::export_media() const {
  std::string out;
  util::append_fields(out, "media", "v2", snapshots_.blobs().size(), wal_.size(),
                      base_generation_, base_log_size_, op_index_,
                      base_snapshot_bytes_, catalog_mark_);
  out += '\n';
  for (const auto& blob : snapshots_.blobs()) {
    util::append_envelope(out, blob, "blob");
  }
  out += wal_;
  return out;
}

void DurableSessionStore::import_media(std::string_view blob) {
  util::TextReader in(blob, "media import");
  auto head = in.header();
  head.expect("media");
  head.expect("v2");
  const auto n_blobs = head.integer<std::size_t>("blob count");
  const auto wal_bytes = head.integer<std::size_t>("wal bytes");
  const auto base_generation = head.integer<std::uint64_t>("base generation");
  const auto base_log_size = head.integer<std::size_t>("base log size");
  const auto op_index = head.integer<std::uint64_t>("op index");
  const auto base_snapshot_bytes = head.integer<std::size_t>("snapshot bytes");
  const auto catalog_mark = head.integer<std::size_t>("catalog mark");
  head.done();
  storage::SnapshotChain snapshots;
  for (std::size_t i = 0; i < n_blobs; ++i) {
    auto blob_head = in.header();
    blob_head.expect("blob");
    snapshots.push(std::string(blob_head.body("blob")));
  }
  const auto wal = in.take(wal_bytes, "wal");
  in.done();
  snapshots_ = std::move(snapshots);
  wal_ = wal;
  base_generation_ = base_generation;
  base_log_size_ = base_log_size;
  base_snapshot_bytes_ = base_snapshot_bytes;
  op_index_ = op_index;
  catalog_mark_ = catalog_mark;
  numbered_engine_ = nullptr;  // renumbered from the next engine seen
  batch_open_ = false;
  batch_.clear();
}

}  // namespace selfheal::engine
