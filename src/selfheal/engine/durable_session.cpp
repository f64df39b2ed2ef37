#include "selfheal/engine/durable_session.hpp"

#include <charconv>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

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

/// Strict local integer parse (the WAL payload is adversarial input:
/// a bit flip can survive into a CRC-colliding record in principle, and
/// tests feed hand-damaged records).
template <typename T>
bool parse_int(std::string_view token, T& out) {
  const auto result =
      std::from_chars(token.data(), token.data() + token.size(), out);
  return !token.empty() && result.ec == std::errc() &&
         result.ptr == token.data() + token.size();
}

bool next_token(std::istringstream& in, std::string& token) {
  return static_cast<bool>(in >> token);
}

/// "control <run> <active> <aborted> <pc> visits t:c... pending t:i..."
std::string format_run_control(const Engine& engine, RunId run) {
  const auto snapshot = engine.run_snapshot(run);
  std::ostringstream out;
  out << "control " << run << " " << (snapshot.active ? 1 : 0) << " "
      << (snapshot.aborted ? 1 : 0) << " " << snapshot.pc << " visits";
  for (const auto& [task, count] : snapshot.visits) {
    out << " " << task << ":" << count;
  }
  out << " pending";
  for (const auto& [task, inc] : snapshot.pending_malicious) {
    out << " " << task << ":" << inc;
  }
  return out.str();
}

bool parse_pair(const std::string& token, std::int64_t& first,
                std::int64_t& second) {
  const auto colon = token.find(':');
  if (colon == std::string::npos) return false;
  return parse_int(std::string_view(token).substr(0, colon), first) &&
         parse_int(std::string_view(token).substr(colon + 1), second);
}

/// Applies a control record to the engine; false on malformed payload.
bool apply_run_control(Engine& engine, const std::string& payload) {
  std::istringstream in(payload);
  std::string token;
  if (!next_token(in, token) || token != "control") return false;
  RunId run = 0;
  int active = 0;
  int aborted = 0;
  wfspec::TaskId pc = wfspec::kInvalidTask;
  if (!next_token(in, token) || !parse_int(token, run)) return false;
  if (!next_token(in, token) || !parse_int(token, active)) return false;
  if (!next_token(in, token) || !parse_int(token, aborted)) return false;
  if (!next_token(in, token) || !parse_int(token, pc)) return false;
  if (run < 0 || static_cast<std::size_t>(run) >= engine.run_count()) {
    return false;
  }
  if (!next_token(in, token) || token != "visits") return false;
  std::map<wfspec::TaskId, int> visits;
  bool saw_pending = false;
  while (next_token(in, token)) {
    if (token == "pending") {
      saw_pending = true;
      break;
    }
    std::int64_t task = 0;
    std::int64_t count = 0;
    if (!parse_pair(token, task, count)) return false;
    visits[static_cast<wfspec::TaskId>(task)] = static_cast<int>(count);
  }
  if (!saw_pending) return false;
  std::vector<std::pair<wfspec::TaskId, int>> pending;
  while (next_token(in, token)) {
    std::int64_t task = 0;
    std::int64_t inc = 0;
    if (!parse_pair(token, task, inc)) return false;
    pending.emplace_back(static_cast<wfspec::TaskId>(task),
                         static_cast<int>(inc));
  }
  try {
    engine.resume_run(run, active != 0 ? pc : wfspec::kInvalidTask, visits);
    if (aborted != 0 && !engine.run_aborted(run)) engine.abort_run(run);
    for (const auto& [task, inc] : pending) {
      engine.inject_malicious(run, task, inc);
    }
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

/// What one WAL line did to the session being recovered.
enum class Replay {
  kApplied,
  kDuplicate,  // already in the session: a retried append landed twice
  kGap,        // extends a state past the session: a record vanished
  kBad,        // malformed, or contradicts the session
};

std::vector<std::string> tokens_of(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  for (std::string token; in >> token;) tokens.push_back(std::move(token));
  return tokens;
}

/// "obj <id> <name>": the id must be the next object, or name the same
/// object again.
Replay replay_object(wfspec::ObjectCatalog& catalog, const std::string& line) {
  const auto t = tokens_of(line);
  std::size_t id = 0;
  if (t.size() != 3 || !parse_int(t[1], id)) return Replay::kBad;
  if (id == catalog.size()) {
    return static_cast<std::size_t>(catalog.intern(t[2])) == id ? Replay::kApplied
                                                                : Replay::kBad;
  }
  if (id < catalog.size() &&
      catalog.name(static_cast<wfspec::ObjectId>(id)) == t[2]) {
    return Replay::kDuplicate;
  }
  return Replay::kBad;
}

/// "spec <index>", then the spec's DSL lines up to "spec-end".
Replay replay_spec(Session& session, const std::string& line,
                   std::istream& lines) {
  const auto t = tokens_of(line);
  std::size_t index = 0;
  if (t.size() != 2 || !parse_int(t[1], index)) return Replay::kBad;
  std::string dsl;
  std::string dsl_line;
  while (std::getline(lines, dsl_line) && dsl_line != "spec-end") {
    dsl += dsl_line + "\n";
  }
  if (dsl_line != "spec-end") return Replay::kBad;
  if (index < session.specs.size()) {
    return wfspec::to_dsl(*session.specs[index]) == dsl ? Replay::kDuplicate
                                                        : Replay::kBad;
  }
  if (index != session.specs.size()) return Replay::kBad;
  try {
    // The spec may name only objects the media already added: one
    // interned here would get an id the live catalog never gave it.
    wfspec::ObjectCatalog scratch = *session.catalog;
    (void)wfspec::parse_workflow(dsl, scratch);
    if (scratch.size() != session.catalog->size()) return Replay::kBad;
    session.specs.push_back(std::make_unique<wfspec::WorkflowSpec>(
        wfspec::parse_workflow(dsl, *session.catalog)));
  } catch (const std::exception&) {
    return Replay::kBad;
  }
  return Replay::kApplied;
}

/// "run <id> <spec index>": the id must be the next run, or name the
/// same run again.
Replay replay_run(Session& session, const std::string& line) {
  const auto t = tokens_of(line);
  std::size_t id = 0;
  std::size_t spec = 0;
  if (t.size() != 3 || !parse_int(t[1], id) || !parse_int(t[2], spec) ||
      spec >= session.specs.size()) {
    return Replay::kBad;
  }
  auto& engine = *session.engine;
  if (id == engine.run_count()) {
    try {
      (void)engine.start_run(*session.specs[spec]);
    } catch (const std::exception&) {
      return Replay::kBad;
    }
    return Replay::kApplied;
  }
  if (id < engine.run_count() &&
      &engine.spec_of(static_cast<RunId>(id)) == session.specs[spec].get()) {
    return Replay::kDuplicate;
  }
  return Replay::kBad;
}

/// "entry ...": entries append in id order, each to a run the session
/// holds.
Replay replay_entry(Engine& engine, const std::string& line) {
  TaskInstance entry;
  try {
    entry = parse_log_entry(line);
  } catch (const std::exception&) {
    return Replay::kBad;
  }
  const auto next_id = static_cast<InstanceId>(engine.log().size());
  if (entry.id < next_id) return Replay::kDuplicate;
  if (entry.id > next_id) return Replay::kGap;
  if (entry.kind != ActionKind::kRepair &&
      (entry.run < 0 || static_cast<std::size_t>(entry.run) >= engine.run_count())) {
    return Replay::kBad;
  }
  try {
    engine.import_entry(std::move(entry));
  } catch (const std::exception&) {
    return Replay::kBad;
  }
  return Replay::kApplied;
}

/// Replays one line of a record (a spec line also reads its DSL lines).
Replay replay_line(Session& session, const std::string& line,
                   std::istream& lines) {
  const auto keyword = line.substr(0, line.find(' '));
  if (keyword == "entry") return replay_entry(*session.engine, line);
  if (keyword == "control") {
    return apply_run_control(*session.engine, line) ? Replay::kApplied
                                                    : Replay::kBad;
  }
  if (keyword == "obj") return replay_object(*session.catalog, line);
  if (keyword == "spec") return replay_spec(session, line, lines);
  if (keyword == "run") return replay_run(session, line);
  return Replay::kBad;
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
  if (spec.added) {
    lines += "spec " + std::to_string(spec.index) + "\n";
    lines += numbering_.texts()[spec.index];
    lines += "spec-end\n";
  }
  lines += "run " + std::to_string(run) + " " + std::to_string(spec.index);
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
      std::istringstream in(decoded.payload);
      try {
        session = load_session(in);
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
  std::uint64_t base_generation = 0;
  std::uint64_t base_log_size = 0;
  bool have_base = false;
  if (!scan.records.empty() &&
      scan.records.front().type == storage::WalRecordType::kMeta) {
    std::istringstream in(scan.records.front().payload);
    std::string keyword;
    std::string generation_token;
    std::string size_token;
    if ((in >> keyword >> generation_token >> size_token) &&
        keyword == "base" && parse_int(generation_token, base_generation) &&
        parse_int(size_token, base_log_size)) {
      have_base = true;
    }
  }
  if (!have_base || base_generation != report.snapshot_generation ||
      base_log_size != session.engine->log().size()) {
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
    std::istringstream lines(record.payload);
    std::string line;
    while (std::getline(lines, line)) {
      const auto result = replay_line(session, line, lines);
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
  std::ostringstream out;
  out << "media v2 " << snapshots_.blobs().size() << " " << wal_.size() << " "
      << base_generation_ << " " << base_log_size_ << " " << op_index_ << " "
      << base_snapshot_bytes_ << " " << catalog_mark_ << "\n";
  for (const auto& blob : snapshots_.blobs()) {
    out << "blob " << blob.size() << "\n" << blob;
  }
  out << wal_;
  return out.str();
}

void DurableSessionStore::import_media(const std::string& blob) {
  const auto bad = [](const std::string& what) {
    throw std::invalid_argument("media import: " + what);
  };
  std::size_t pos = blob.find('\n');
  if (pos == std::string::npos) bad("missing header line");
  std::istringstream head(blob.substr(0, pos));
  std::string magic;
  std::string version;
  std::size_t n_blobs = 0;
  std::size_t wal_bytes = 0;
  std::uint64_t base_generation = 0;
  std::size_t base_log_size = 0;
  std::uint64_t op_index = 0;
  std::size_t base_snapshot_bytes = 0;
  std::size_t catalog_mark = 0;
  if (!(head >> magic >> version >> n_blobs >> wal_bytes >> base_generation >>
        base_log_size >> op_index >> base_snapshot_bytes >> catalog_mark) ||
      magic != "media" || version != "v2") {
    bad("bad header");
  }
  ++pos;
  storage::SnapshotChain snapshots;
  for (std::size_t i = 0; i < n_blobs; ++i) {
    const auto newline = blob.find('\n', pos);
    if (newline == std::string::npos) bad("truncated blob header");
    std::istringstream line(blob.substr(pos, newline - pos));
    std::string keyword;
    std::size_t bytes = 0;
    if (!(line >> keyword >> bytes) || keyword != "blob") bad("bad blob header");
    pos = newline + 1;
    if (blob.size() - pos < bytes) bad("truncated blob body");
    snapshots.push(blob.substr(pos, bytes));
    pos += bytes;
  }
  if (blob.size() - pos != wal_bytes) bad("wal length mismatch");
  snapshots_ = std::move(snapshots);
  wal_ = blob.substr(pos);
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
