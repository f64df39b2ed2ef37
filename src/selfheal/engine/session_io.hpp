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

/// One catalog object as its session line ("obj <id> <name>", no newline).
/// This is also the WAL line that adds the object to a durable session.
[[nodiscard]] std::string format_object(const wfspec::ObjectCatalog& catalog,
                                        wfspec::ObjectId id);

/// One log entry as its session line (leading "entry", no newline).
/// This is also the WAL record payload format of the durable session
/// layer, so a WAL replay and a session load parse identically.
[[nodiscard]] std::string format_log_entry(const TaskInstance& entry);

/// Parses a line produced by format_log_entry, refusing malformed input
/// through `reader`, whose context and line number label the error.
[[nodiscard]] TaskInstance parse_log_entry(util::TextReader& reader,
                                           std::string_view line);

}  // namespace selfheal::engine
