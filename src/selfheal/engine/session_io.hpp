// Session persistence.
//
// The paper's recovery operates on durable artifacts: the workflow
// specifications and the system log ("the system log ... exists in all
// workflow management systems", Section IV.B). This module makes that
// concrete: a Session (catalog + specs + engine) can be saved as a
// line-oriented text file and reloaded into an equivalent engine --
// including after a crash mid-workflow -- and recovery runs on the
// reloaded engine exactly as on the original. The versioned store is
// not serialised: it is reconstructed by re-applying the log's writes.
//
// Format version 3 appends a trailing "checksum <crc32c-hex>" line
// covering every preceding byte, so storage-level damage to a session
// file is detected instead of silently parsed. Version-2 files (no
// checksum) still load. Files are written atomically
// (temp + fsync + rename): a crash mid-save never leaves a torn file.
//
// load_session is hardened against hostile input: any malformed byte
// stream raises std::invalid_argument with a line-numbered message --
// never a crash, hang, or unbounded allocation.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "selfheal/engine/engine.hpp"
#include "selfheal/util/text_reader.hpp"
#include "selfheal/wfspec/workflow_spec.hpp"

namespace selfheal::engine {

/// An engine together with the objects it depends on (the engine holds
/// pointers into catalog/specs, so the three live and move together).
struct Session {
  std::unique_ptr<wfspec::ObjectCatalog> catalog;
  std::vector<std::unique_ptr<wfspec::WorkflowSpec>> specs;
  std::unique_ptr<Engine> engine;
};

/// The session format's spec numbering: a spec's index is its distinct
/// to_dsl text, numbered in order of first use by a run. Numbering by
/// text, not by object, keeps the bytes independent of whether runs
/// share one spec object or each parsed their own. save_session and the
/// durable store's WAL records both number through this class, so a
/// snapshot and the records that extend it agree.
class SpecNumbering {
 public:
  struct Number {
    std::size_t index = 0;
    bool added = false;  // the spec's text was numbered by this call
  };

  /// The index of `spec`'s text, numbering it next when it is new.
  Number number(const wfspec::WorkflowSpec& spec);

  /// DSL text per index.
  [[nodiscard]] const std::vector<std::string>& texts() const noexcept {
    return texts_;
  }

 private:
  std::vector<std::string> texts_;
  std::unordered_map<std::string, std::size_t> by_text_;
  /// Spares a to_dsl call per run when runs share spec objects.
  std::unordered_map<const wfspec::WorkflowSpec*, std::size_t> by_spec_;
};

/// Serialises the engine state: config, catalog, workflow DSL, runs
/// (with control state), pending malicious injections, and the log.
/// The stream form carries the same trailing checksum as the file form.
void save_session(const Engine& engine, std::ostream& out);
/// As above, numbering specs through `numbering`, which must be empty
/// and is left holding the numbering the session used.
void save_session(const Engine& engine, std::ostream& out,
                  SpecNumbering& numbering);
/// Atomic file save (temp + fsync + rename).
void save_session_file(const Engine& engine, const std::string& path);

/// Reconstructs a session from the text save_session wrote (format
/// version 2 or 3). Throws std::invalid_argument with a line-numbered
/// message ("session line N: ...") on malformed input.
[[nodiscard]] Session load_session(std::string_view text);
[[nodiscard]] Session load_session_file(const std::string& path);

// --- The durable line grammar ---------------------------------------
//
// Session files and the durable store's WAL records carry the same kinds
// of line, and this module is their only writer and reader: each kind
// has one encoder and one strict decoder below. A decoder reads from a
// util::TextReader, whose context and line number label its refusals.

/// "obj <id> <name>": one catalog object.
[[nodiscard]] std::string format_object(const wfspec::ObjectCatalog& catalog,
                                        wfspec::ObjectId id);
struct ObjectLine {
  wfspec::ObjectId id = 0;
  std::string_view name;  // a view into the line read
};
[[nodiscard]] ObjectLine read_object(util::Tokens& line);

/// A spec block: a header line, the spec's DSL lines, then "spec-end". A
/// session heads its blocks "spec-begin" and numbers them by position; a
/// WAL record heads its block "spec <index>".
struct SpecBlock {
  std::optional<std::size_t> index;
  std::string dsl;
  std::size_t first_line = 0;  // the DSL's first line, which its errors name
};
[[nodiscard]] std::string format_spec(std::optional<std::size_t> index,
                                      std::string_view dsl);
/// Reads a block from its `header` line, "spec <index>" when `indexed`,
/// else "spec-begin".
[[nodiscard]] SpecBlock read_spec(util::Tokens& header, util::TextReader& in,
                                  bool indexed);
/// Parses a block's DSL over `catalog`. Refuses a DSL error, and a spec
/// that names an object `catalog` lacks: interned here, it would get an
/// id its writer's catalog never gave it.
[[nodiscard]] std::unique_ptr<wfspec::WorkflowSpec> parse_spec(
    util::TextReader& in, const SpecBlock& block, wfspec::ObjectCatalog& catalog);

/// "run <id> <spec index>": a run start in a WAL record. (A session's run
/// line carries its spec index with the run's control state.)
struct RunStart {
  RunId run = 0;
  std::size_t spec = 0;
};
[[nodiscard]] std::string format_run_start(RunId run, std::size_t spec);
[[nodiscard]] RunStart read_run_start(util::Tokens& line);

/// Run control: a run's active and aborted flags, pc, visit counts and
/// pending injections. A WAL record carries it as one line, "control <run>
/// <active> <aborted> <pc> visits <task>:<count>... pending
/// <task>:<incarnation>...", which the two functions below write and read.
/// A session spells the same fields as its run line, "run <spec index>
/// <active> <aborted> <pc> visits <task>:<count>...", and an "inject <run>
/// <task> <incarnation>" line per pending injection. Task ids must not be
/// negative, and counts and incarnations must fit an int.
struct RunControl {
  RunId run = 0;
  Engine::RunSnapshot state;
};
[[nodiscard]] std::string format_run_control(const Engine& engine, RunId run);
[[nodiscard]] RunControl read_run_control(util::Tokens& line);
/// Applies a run's control state: resumes the run at its pc with its
/// visits, aborts it, and injects its pending marks. Throws when the run
/// is unknown or the engine refuses a step.
void restore(Engine& engine, RunId run, const Engine::RunSnapshot& state);

/// One log entry as its line (leading "entry", no newline).
[[nodiscard]] std::string format_log_entry(const TaskInstance& entry);
/// Parses a line produced by format_log_entry.
[[nodiscard]] TaskInstance parse_log_entry(util::TextReader& reader,
                                           std::string_view line);

}  // namespace selfheal::engine
