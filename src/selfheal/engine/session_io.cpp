#include "selfheal/engine/session_io.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "selfheal/storage/crc32c.hpp"
#include "selfheal/util/fsio.hpp"
#include "selfheal/wfspec/parser.hpp"

namespace selfheal::engine {

namespace {

constexpr const char* kMagic = "selfheal-session";
// Version 2 added the per-run aborted flag (graceful degradation).
// Version 3 added the trailing whole-file checksum line.
constexpr int kVersion = 3;
constexpr int kMinVersion = 2;

// Hostile-input bounds: a session is rejected, not believed, when it
// declares absurd sizes. Lines are capped so a single line cannot be
// used to balloon parser state.
constexpr std::size_t kMaxLineLen = std::size_t{1} << 20;       // 1 MiB
constexpr std::uint64_t kMaxDeclaredCount = std::uint64_t{1} << 24;

int kind_code(ActionKind kind) { return static_cast<int>(kind); }

/// A declared element count, refused beyond the plausibility cap before
/// anything is allocated for it.
std::size_t read_count(util::Tokens& line, const char* what) {
  const auto count = line.integer<std::uint64_t>(what);
  if (count > kMaxDeclaredCount) {
    line.fail(std::string("implausible ") + what + " " + std::to_string(count));
  }
  return static_cast<std::size_t>(count);
}

/// "<keyword> <count>": a section header.
std::size_t read_section(util::TextReader& in, std::string_view keyword,
                         const char* what) {
  auto line = in.tokens();
  line.expect(keyword);
  const auto count = read_count(line, what);
  line.done();
  return count;
}

/// An "object:value" pair token.
std::pair<wfspec::ObjectId, Value> read_pair(const util::Tokens& line,
                                             std::string_view token,
                                             const char* what) {
  const auto colon = token.find(':');
  if (colon == std::string_view::npos || colon == 0 || colon + 1 == token.size()) {
    line.fail(std::string("bad ") + what + " pair '" + std::string(token) + "'");
  }
  const auto object = util::parse_int<wfspec::ObjectId>(token.substr(0, colon));
  if (!object) line.bad(what, token);
  if (*object < 0) line.fail(std::string("negative object id in ") + what);
  const auto value = util::parse_int<Value>(token.substr(colon + 1));
  if (!value) line.bad(what, token);
  return {*object, *value};
}

/// Reads the pairs up to `end`, which must come.
template <typename Objects, typename Values>
void read_pairs(util::Tokens& line, std::string_view end, const char* what,
                Objects& objects, Values& values) {
  for (auto token = line.next(); token != end; token = line.next()) {
    if (token.empty()) line.fail("expected " + std::string(end) + " section");
    const auto [object, value] = read_pair(line, token, what);
    objects.push_back(object);
    values.push_back(value);
  }
}

}  // namespace

SpecNumbering::Number SpecNumbering::number(const wfspec::WorkflowSpec& spec) {
  if (const auto it = by_spec_.find(&spec); it != by_spec_.end()) {
    return {it->second, false};
  }
  auto dsl = wfspec::to_dsl(spec);
  const auto [it, added] = by_text_.emplace(dsl, texts_.size());
  if (added) texts_.push_back(std::move(dsl));
  by_spec_.emplace(&spec, it->second);
  return {it->second, added};
}

std::string format_object(const wfspec::ObjectCatalog& catalog,
                          wfspec::ObjectId id) {
  return "obj " + std::to_string(id) + " " + catalog.name(id);
}

std::string format_log_entry(const TaskInstance& e) {
  std::ostringstream out;
  out << "entry " << e.id << " " << e.run << " " << e.task << " "
      << e.incarnation << " " << kind_code(e.kind) << " " << e.seq << " "
      << e.logical_slot << " " << e.target << " R";
  for (std::size_t i = 0; i < e.read_objects.size(); ++i) {
    out << " " << e.read_objects[i] << ":" << e.read_values[i];
  }
  out << " W";
  for (std::size_t i = 0; i < e.written_objects.size(); ++i) {
    out << " " << e.written_objects[i] << ":" << e.written_values[i];
  }
  out << " C "
      << (e.chosen_successor ? *e.chosen_successor : wfspec::kInvalidTask);
  return out.str();
}

TaskInstance parse_log_entry(util::TextReader& in, std::string_view text) {
  if (text.size() > kMaxLineLen) in.fail("entry line too long");
  util::Tokens line(in, text);
  line.expect("entry");
  TaskInstance e;
  e.id = line.integer<InstanceId>("entry id");
  e.run = line.integer<RunId>("entry run");
  e.task = line.integer<wfspec::TaskId>("entry task");
  e.incarnation = line.integer<int>("entry incarnation");
  const auto kind = line.integer<int>("entry kind");
  if (kind < kind_code(ActionKind::kNormal) || kind > kind_code(ActionKind::kRepair)) {
    in.fail("unknown action kind " + std::to_string(kind));
  }
  e.kind = static_cast<ActionKind>(kind);
  e.seq = line.integer<SeqNo>("entry seq");
  e.logical_slot = line.integer<SeqNo>("entry slot");
  e.target = line.integer<InstanceId>("entry target");
  if (e.id < 0) in.fail("negative entry id");
  // Repair entries are run-less and task-less (-1); everything else
  // must name a real task.
  if (e.task < 0 && e.kind != ActionKind::kRepair) {
    in.fail("negative entry task");
  }
  line.expect("R");
  read_pairs(line, "W", "read", e.read_objects, e.read_values);
  read_pairs(line, "C", "write", e.written_objects, e.written_values);
  const auto chosen = line.integer<wfspec::TaskId>("chosen successor");
  if (chosen != wfspec::kInvalidTask) {
    if (chosen < 0) in.fail("negative chosen successor");
    e.chosen_successor = chosen;
  }
  line.done();
  return e;
}

void save_session(const Engine& engine, std::ostream& out) {
  SpecNumbering numbering;
  save_session(engine, out, numbering);
}

void save_session(const Engine& engine, std::ostream& out,
                  SpecNumbering& numbering) {
  std::ostringstream body;
  body << kMagic << " " << kVersion << "\n";
  const auto& config = engine.config();
  body << "config " << static_cast<int>(config.interleave) << " " << config.seed
       << " " << config.max_incarnations << "\n";

  // Catalog (in id order, so reload reproduces the ids). Every spec
  // shares one catalog; reach it through any run's spec, or skip if the
  // engine has no runs (nothing to serialise then anyway).
  const auto specs_by_run = engine.specs_by_run();
  const wfspec::ObjectCatalog* catalog =
      specs_by_run.empty() ? nullptr : &specs_by_run.front()->catalog();
  body << "catalog " << (catalog ? catalog->size() : 0) << "\n";
  if (catalog != nullptr) {
    for (std::size_t o = 0; o < catalog->size(); ++o) {
      body << format_object(*catalog, static_cast<wfspec::ObjectId>(o)) << "\n";
    }
  }

  std::vector<std::size_t> run_spec;
  run_spec.reserve(specs_by_run.size());
  for (const auto* spec : specs_by_run) {
    run_spec.push_back(numbering.number(*spec).index);
  }
  body << "specs " << numbering.texts().size() << "\n";
  for (const auto& dsl : numbering.texts()) {
    body << "spec-begin\n" << dsl << "spec-end\n";
  }

  // Runs with control state.
  body << "runs " << engine.run_count() << "\n";
  for (std::size_t r = 0; r < engine.run_count(); ++r) {
    const auto run = static_cast<RunId>(r);
    const auto snapshot = engine.run_snapshot(run);
    body << "run " << run_spec[r] << " "
         << (snapshot.active ? 1 : 0) << " " << (snapshot.aborted ? 1 : 0)
         << " " << snapshot.pc << " visits";
    for (const auto& [task, count] : snapshot.visits) {
      body << " " << task << ":" << count;
    }
    body << "\n";
    for (const auto& [task, inc] : snapshot.pending_malicious) {
      body << "inject " << r << " " << task << " " << inc << "\n";
    }
  }

  // The system log.
  body << "log " << engine.log().size() << "\n";
  for (const auto& e : engine.log().entries()) {
    body << format_log_entry(e) << "\n";
  }
  body << "end\n";

  // Whole-file integrity: CRC32C over every byte above, so a reader can
  // tell storage damage from a parser bug.
  const std::string text = body.str();
  char checksum[16];
  std::snprintf(checksum, sizeof(checksum), "%08x",
                storage::crc32c(text));
  out << text << "checksum " << checksum << "\n";
}

void save_session_file(const Engine& engine, const std::string& path) {
  std::ostringstream out;
  save_session(engine, out);
  util::write_file_atomic(path, out.str());
}

namespace {

/// "inject <run> <task> <incarnation>": a pending injection of a run
/// already read.
void read_inject(util::Tokens& line,
                 std::vector<Engine::RunSnapshot>& runs) {
  const auto run = line.integer<RunId>("inject run");
  const auto task = line.integer<wfspec::TaskId>("inject task");
  const auto inc = line.integer<int>("inject incarnation");
  line.done();
  if (run < 0 || static_cast<std::size_t>(run) >= runs.size()) {
    line.fail("inject references unknown run");
  }
  runs[static_cast<std::size_t>(run)].pending_malicious.emplace_back(task, inc);
}

Session load_session_impl(std::string_view text) {
  util::TextReader in(text, "session", /*numbered=*/true, kMaxLineLen);
  Session session;
  session.catalog = std::make_unique<wfspec::ObjectCatalog>();

  int version = 0;
  {
    auto line = in.tokens();
    const auto magic = line.token("magic");
    version = line.integer<int>("version");
    if (magic != kMagic) in.fail("bad magic");
    if (version < kMinVersion || version > kVersion) {
      in.fail("unsupported session version " + std::to_string(version));
    }
    line.done();
  }

  EngineConfig config;
  {
    auto line = in.tokens();
    line.expect("config");
    const int interleave = line.integer<int>("interleave");
    if (interleave < 0 || interleave > static_cast<int>(Interleave::kRandom)) {
      in.fail("bad interleave " + std::to_string(interleave));
    }
    config.interleave = static_cast<Interleave>(interleave);
    config.seed = line.integer<std::uint64_t>("seed");
    config.max_incarnations = line.integer<int>("max incarnations");
    line.done();
  }

  const auto objects = read_section(in, "catalog", "catalog size");
  for (std::size_t i = 0; i < objects; ++i) {
    auto obj = in.tokens();
    obj.expect("obj");
    const auto id = obj.integer<wfspec::ObjectId>("object id");
    const auto name = obj.token("object name");
    obj.done();
    if (session.catalog->intern(std::string(name)) != id) {
      in.fail("catalog ids out of order");
    }
  }

  const auto specs = read_section(in, "specs", "spec count");
  for (std::size_t s = 0; s < specs; ++s) {
    in.tokens().expect("spec-begin");
    const std::size_t spec_first_line = in.line_no() + 1;
    std::string dsl;
    for (auto dsl_line = in.line(); dsl_line != "spec-end"; dsl_line = in.line()) {
      dsl += dsl_line;
      dsl += '\n';
    }
    try {
      session.specs.push_back(std::make_unique<wfspec::WorkflowSpec>(
          wfspec::parse_workflow(dsl, *session.catalog)));
    } catch (const std::exception& e) {
      // Spec-DSL errors get the same line-numbered context as every
      // other rejection.
      in.fail_at(spec_first_line, std::string("bad workflow spec: ") + e.what());
    }
  }

  session.engine = std::make_unique<Engine>(config);
  std::vector<Engine::RunSnapshot> runs;
  std::vector<std::size_t> run_lines;
  const auto run_count = read_section(in, "runs", "run count");
  while (runs.size() < run_count) {
    auto run = in.tokens();
    const auto keyword = run.token("run keyword");
    if (keyword == "inject") {
      read_inject(run, runs);
      continue;
    }
    if (keyword != "run") in.fail("expected run");
    const auto spec_idx = read_count(run, "spec index");
    Engine::RunSnapshot snapshot;
    snapshot.active = run.integer<int>("active flag") != 0;
    snapshot.aborted = run.integer<int>("aborted flag") != 0;
    snapshot.pc = run.integer<wfspec::TaskId>("run pc");
    run.expect("visits");
    for (auto pair = run.next(); !pair.empty(); pair = run.next()) {
      const auto [task, count] = read_pair(run, pair, "visits");
      visit_count(snapshot.visits, task) = static_cast<int>(count);
    }
    if (spec_idx >= session.specs.size()) {
      in.fail("run references unknown spec " + std::to_string(spec_idx));
    }
    session.engine->start_run(*session.specs[spec_idx]);
    runs.push_back(std::move(snapshot));
    run_lines.push_back(in.line_no());
  }

  {
    // Injects of the final run may appear between "runs" and "log".
    auto line = in.tokens();
    auto keyword = line.token("log keyword");
    for (; keyword == "inject"; keyword = line.token("log keyword")) {
      read_inject(line, runs);
      line = in.tokens();
    }
    if (keyword != "log") in.fail("expected log");
    const auto count = read_count(line, "log size");
    line.done();
    for (std::size_t i = 0; i < count; ++i) {
      auto e = parse_log_entry(in, in.line());
      if (e.run < 0 || static_cast<std::size_t>(e.run) >= runs.size()) {
        if (e.kind != ActionKind::kRepair) {
          in.fail("entry references unknown run");
        }
      }
      try {
        session.engine->import_entry(std::move(e));
      } catch (const std::exception& ex) {
        in.fail(std::string("inconsistent log entry: ") + ex.what());
      }
    }
  }

  {
    auto line = in.tokens();
    line.expect("end");
    line.done();
  }

  if (version >= 3) {
    // The checksum covers every byte up to and including "end\n".
    const std::uint32_t computed = storage::crc32c(text.substr(0, in.offset()));
    auto line = in.tokens();
    line.expect("checksum");
    const auto token = line.token("checksum value");
    line.done();
    const auto stored = util::parse_int<std::uint32_t>(token, 16);
    if (!stored) line.bad("checksum value", token);
    if (*stored != computed) {
      char expect[16];
      std::snprintf(expect, sizeof(expect), "%08x", computed);
      in.fail("checksum mismatch: stored " + std::string(token) +
              ", computed " + expect);
    }
  }

  // Nothing may follow the session: appended bytes are damage (or an
  // injection attempt), not padding.
  if (!in.at_end()) in.fail_at(in.line_no() + 1, "trailing data after session");

  // Finally restore run control state and pending injections.
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const auto run = static_cast<RunId>(r);
    const auto& snapshot = runs[r];
    try {
      session.engine->resume_run(
          run, snapshot.active ? snapshot.pc : wfspec::kInvalidTask,
          snapshot.visits);
      if (snapshot.aborted) session.engine->abort_run(run);
      for (const auto& [task, inc] : snapshot.pending_malicious) {
        session.engine->inject_malicious(run, task, inc);
      }
    } catch (const std::exception& ex) {
      in.fail_at(run_lines[r],
                 std::string("inconsistent run control state: ") + ex.what());
    }
  }
  return session;
}

}  // namespace

Session load_session(std::string_view text) {
  try {
    return load_session_impl(text);
  } catch (const std::invalid_argument&) {
    throw;
  } catch (const std::exception& e) {
    // Safety net: no hostile byte stream may escalate past
    // invalid_argument (e.g. std::bad_alloc, container out_of_range).
    throw std::invalid_argument(std::string("session: ") + e.what());
  }
}

Session load_session_file(const std::string& path) {
  return load_session(util::read_file(path));
}

}  // namespace selfheal::engine
