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

/// Reads "<id>:<n>" pairs up to the token `end` (the line's end when
/// `end` is empty) and hands each to `add`. An id must not be negative.
template <typename Id, typename N, typename Add>
void read_pairs(util::Tokens& line, std::string_view end, const char* what,
                Add add) {
  for (auto token = line.next(); token != end; token = line.next()) {
    if (token.empty()) line.fail("expected " + std::string(end) + " section");
    const auto colon = token.find(':');
    if (colon == std::string_view::npos) line.bad(what, token);
    const auto id = util::parse_int<Id>(token.substr(0, colon));
    const auto n = util::parse_int<N>(token.substr(colon + 1));
    if (!id || !n) line.bad(what, token);
    if (*id < 0) line.fail(std::string("negative id in ") + what);
    add(*id, *n);
  }
}

/// "<active> <aborted> <pc> visits <task>:<count>...": the run control
/// fields both formats spell alike.
void write_run_state(std::ostream& out, const Engine::RunSnapshot& state) {
  out << (state.active ? 1 : 0) << " " << (state.aborted ? 1 : 0) << " "
      << state.pc << " visits";
  for (const auto& [task, count] : state.visits) out << " " << task << ":" << count;
}

/// Reads what write_run_state wrote; the visits run up to the token `end`.
Engine::RunSnapshot read_run_state(util::Tokens& line, std::string_view end) {
  Engine::RunSnapshot state;
  state.active = line.integer<int>("active flag") != 0;
  state.aborted = line.integer<int>("aborted flag") != 0;
  state.pc = line.integer<wfspec::TaskId>("run pc");
  line.expect("visits");
  read_pairs<wfspec::TaskId, int>(
      line, end, "visits",
      [&](wfspec::TaskId task, int count) { visit_count(state.visits, task) = count; });
  return state;
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

ObjectLine read_object(util::Tokens& line) {
  line.expect("obj");
  ObjectLine object;
  object.id = line.integer<wfspec::ObjectId>("object id");
  object.name = line.token("object name");
  line.done();
  if (object.id < 0) line.fail("negative object id");
  return object;
}

std::string format_spec(std::optional<std::size_t> index, std::string_view dsl) {
  std::string block = index ? "spec " + std::to_string(*index) + "\n" : "spec-begin\n";
  block += dsl;
  block += "spec-end\n";
  return block;
}

SpecBlock read_spec(util::Tokens& header, util::TextReader& in, bool indexed) {
  SpecBlock block;
  if (indexed) {
    header.expect("spec");
    block.index = header.integer<std::size_t>("spec index");
  } else {
    header.expect("spec-begin");
  }
  header.done();
  block.first_line = in.line_no() + 1;
  for (auto line = in.line(); line != "spec-end"; line = in.line()) {
    block.dsl += line;
    block.dsl += '\n';
  }
  return block;
}

std::unique_ptr<wfspec::WorkflowSpec> parse_spec(util::TextReader& in,
                                                 const SpecBlock& block,
                                                 wfspec::ObjectCatalog& catalog) {
  const auto known = catalog.size();
  try {
    auto spec = std::make_unique<wfspec::WorkflowSpec>(
        wfspec::parse_workflow(block.dsl, catalog));
    if (catalog.size() != known) {
      throw std::invalid_argument("names an object the catalog lacks");
    }
    return spec;
  } catch (const std::exception& e) {
    // DSL errors get the same line-numbered context as every other
    // refusal.
    in.fail_at(block.first_line, std::string("bad workflow spec: ") + e.what());
  }
}

std::string format_run_start(RunId run, std::size_t spec) {
  return "run " + std::to_string(run) + " " + std::to_string(spec);
}

RunStart read_run_start(util::Tokens& line) {
  line.expect("run");
  RunStart start;
  start.run = line.integer<RunId>("run id");
  start.spec = line.integer<std::size_t>("spec index");
  line.done();
  if (start.run < 0) line.fail("negative run id");
  return start;
}

std::string format_run_control(const Engine& engine, RunId run) {
  const auto state = engine.run_snapshot(run);
  std::ostringstream out;
  out << "control " << run << " ";
  write_run_state(out, state);
  out << " pending";
  for (const auto& [task, inc] : state.pending_malicious) {
    out << " " << task << ":" << inc;
  }
  return out.str();
}

RunControl read_run_control(util::Tokens& line) {
  line.expect("control");
  RunControl control;
  control.run = line.integer<RunId>("run");
  control.state = read_run_state(line, "pending");
  auto& pending = control.state.pending_malicious;
  read_pairs<wfspec::TaskId, int>(
      line, "", "pending",
      [&](wfspec::TaskId task, int inc) { pending.emplace_back(task, inc); });
  return control;
}

void restore(Engine& engine, RunId run, const Engine::RunSnapshot& state) {
  if (run < 0 || static_cast<std::size_t>(run) >= engine.run_count()) {
    throw std::invalid_argument("control of an unknown run");
  }
  engine.resume_run(run, state.active ? state.pc : wfspec::kInvalidTask,
                    state.visits);
  if (state.aborted && !engine.run_aborted(run)) engine.abort_run(run);
  for (const auto& [task, inc] : state.pending_malicious) {
    engine.inject_malicious(run, task, inc);
  }
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
  read_pairs<wfspec::ObjectId, Value>(line, "W", "read",
                                      [&](wfspec::ObjectId object, Value value) {
                                        e.read_objects.push_back(object);
                                        e.read_values.push_back(value);
                                      });
  read_pairs<wfspec::ObjectId, Value>(line, "C", "write",
                                      [&](wfspec::ObjectId object, Value value) {
                                        e.written_objects.push_back(object);
                                        e.written_values.push_back(value);
                                      });
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
  for (const auto& dsl : numbering.texts()) body << format_spec(std::nullopt, dsl);

  // Runs with control state.
  body << "runs " << engine.run_count() << "\n";
  for (std::size_t r = 0; r < engine.run_count(); ++r) {
    const auto state = engine.run_snapshot(static_cast<RunId>(r));
    body << "run " << run_spec[r] << " ";
    write_run_state(body, state);
    body << "\n";
    for (const auto& [task, inc] : state.pending_malicious) {
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
    auto line = in.tokens();
    const auto object = read_object(line);
    if (session.catalog->intern(std::string(object.name)) != object.id) {
      in.fail("catalog ids out of order");
    }
  }

  const auto specs = read_section(in, "specs", "spec count");
  for (std::size_t s = 0; s < specs; ++s) {
    auto header = in.tokens();
    const auto block = read_spec(header, in, /*indexed=*/false);
    session.specs.push_back(parse_spec(in, block, *session.catalog));
  }

  // Run lines and inject lines (a pending injection of a run already
  // read), then the log. Run control is restored last, once every line
  // read clean.
  session.engine = std::make_unique<Engine>(config);
  std::vector<Engine::RunSnapshot> runs;
  std::vector<std::size_t> run_lines;
  const auto run_count = read_section(in, "runs", "run count");
  std::size_t log_size = 0;
  for (;;) {
    auto line = in.tokens();
    const auto keyword = line.token("keyword");
    if (keyword == "inject") {
      const auto run = line.integer<RunId>("inject run");
      const auto task = line.integer<wfspec::TaskId>("inject task");
      const auto inc = line.integer<int>("inject incarnation");
      line.done();
      if (run < 0 || static_cast<std::size_t>(run) >= runs.size()) {
        line.fail("inject references unknown run");
      }
      if (task < 0) line.fail("negative id in inject");
      runs[static_cast<std::size_t>(run)].pending_malicious.emplace_back(task, inc);
    } else if (runs.size() < run_count) {
      if (keyword != "run") in.fail("expected run");
      const auto spec = read_count(line, "spec index");
      runs.push_back(read_run_state(line, ""));
      run_lines.push_back(in.line_no());
      if (spec >= session.specs.size()) {
        in.fail("run references unknown spec " + std::to_string(spec));
      }
      session.engine->start_run(*session.specs[spec]);
    } else {
      if (keyword != "log") in.fail("expected log");
      log_size = read_count(line, "log size");
      line.done();
      break;
    }
  }
  for (std::size_t i = 0; i < log_size; ++i) {
    auto e = parse_log_entry(in, in.line());
    if (e.run < 0 || static_cast<std::size_t>(e.run) >= runs.size()) {
      if (e.kind != ActionKind::kRepair) in.fail("entry references unknown run");
    }
    try {
      session.engine->import_entry(std::move(e));
    } catch (const std::exception& ex) {
      in.fail(std::string("inconsistent log entry: ") + ex.what());
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

  for (std::size_t r = 0; r < runs.size(); ++r) {
    try {
      restore(*session.engine, static_cast<RunId>(r), runs[r]);
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
