#include "selfheal/engine/session_io.hpp"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <map>
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

[[noreturn]] void fail(std::size_t line_no, const std::string& message) {
  throw std::invalid_argument("session line " + std::to_string(line_no) + ": " +
                              message);
}

ActionKind kind_from(int code, std::size_t line_no) {
  switch (code) {
    case 0: return ActionKind::kNormal;
    case 1: return ActionKind::kMalicious;
    case 2: return ActionKind::kUndo;
    case 3: return ActionKind::kRedo;
    case 4: return ActionKind::kFresh;
    case 5: return ActionKind::kRepair;
  }
  fail(line_no, "unknown action kind " + std::to_string(code));
}

/// Strict integer parse: the whole token must be one in-range integer.
/// std::from_chars never throws on garbage and never allocates, so a
/// hostile token costs O(len) and produces a line-numbered error.
template <typename T>
T parse_int(std::string_view token, std::size_t line_no, const char* what) {
  T value{};
  const char* first = token.data();
  const char* last = token.data() + token.size();
  const auto result = std::from_chars(first, last, value);
  if (token.empty() || result.ec != std::errc() || result.ptr != last) {
    fail(line_no, std::string("bad ") + what + " '" + std::string(token) + "'");
  }
  return value;
}

std::string need_token(std::istringstream& ln, std::size_t line_no,
                       const char* what) {
  std::string token;
  if (!(ln >> token)) fail(line_no, std::string("missing ") + what);
  return token;
}

template <typename T>
T need_int(std::istringstream& ln, std::size_t line_no, const char* what) {
  return parse_int<T>(need_token(ln, line_no, what), line_no, what);
}

std::size_t need_count(std::istringstream& ln, std::size_t line_no,
                       const char* what) {
  const auto count = need_int<std::uint64_t>(ln, line_no, what);
  if (count > kMaxDeclaredCount) {
    fail(line_no, std::string("implausible ") + what + " " +
                      std::to_string(count));
  }
  return static_cast<std::size_t>(count);
}

/// Splits an "object:value" pair token.
std::pair<wfspec::ObjectId, Value> parse_pair(const std::string& token,
                                              std::size_t line_no,
                                              const char* what) {
  const auto colon = token.find(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == token.size()) {
    fail(line_no, std::string("bad ") + what + " pair '" + token + "'");
  }
  const auto object = parse_int<wfspec::ObjectId>(
      std::string_view(token).substr(0, colon), line_no, what);
  if (object < 0) fail(line_no, std::string("negative object id in ") + what);
  const auto value = parse_int<Value>(std::string_view(token).substr(colon + 1),
                                      line_no, what);
  return {object, value};
}

void expect_done(std::istringstream& ln, std::size_t line_no) {
  std::string extra;
  if (ln >> extra) fail(line_no, "trailing token '" + extra + "'");
}

}  // namespace

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

TaskInstance parse_log_entry(const std::string& line, std::size_t line_no) {
  if (line.size() > kMaxLineLen) fail(line_no, "entry line too long");
  std::istringstream ln(line);
  TaskInstance e;
  if (need_token(ln, line_no, "entry keyword") != "entry") {
    fail(line_no, "expected entry");
  }
  e.id = need_int<InstanceId>(ln, line_no, "entry id");
  e.run = need_int<RunId>(ln, line_no, "entry run");
  e.task = need_int<wfspec::TaskId>(ln, line_no, "entry task");
  e.incarnation = need_int<int>(ln, line_no, "entry incarnation");
  e.kind = kind_from(need_int<int>(ln, line_no, "entry kind"), line_no);
  e.seq = need_int<SeqNo>(ln, line_no, "entry seq");
  e.logical_slot = need_int<SeqNo>(ln, line_no, "entry slot");
  e.target = need_int<InstanceId>(ln, line_no, "entry target");
  if (e.id < 0) fail(line_no, "negative entry id");
  // Repair entries are run-less and task-less (-1); everything else
  // must name a real task.
  if (e.task < 0 && e.kind != ActionKind::kRepair) {
    fail(line_no, "negative entry task");
  }
  if (need_token(ln, line_no, "R section") != "R") {
    fail(line_no, "expected R section");
  }
  std::string token;
  bool saw_w = false;
  while (ln >> token) {
    if (token == "W") {
      saw_w = true;
      break;
    }
    const auto [object, value] = parse_pair(token, line_no, "read");
    e.read_objects.push_back(object);
    e.read_values.push_back(value);
  }
  if (!saw_w) fail(line_no, "expected W section");
  bool saw_c = false;
  while (ln >> token) {
    if (token == "C") {
      saw_c = true;
      break;
    }
    const auto [object, value] = parse_pair(token, line_no, "write");
    e.written_objects.push_back(object);
    e.written_values.push_back(value);
  }
  if (!saw_c) fail(line_no, "expected C section");
  const auto chosen = need_int<wfspec::TaskId>(ln, line_no, "chosen successor");
  if (chosen != wfspec::kInvalidTask) {
    if (chosen < 0) fail(line_no, "negative chosen successor");
    e.chosen_successor = chosen;
  }
  expect_done(ln, line_no);
  return e;
}

void save_session(const Engine& engine, std::ostream& out) {
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
      body << "obj " << o << " "
           << catalog->name(static_cast<wfspec::ObjectId>(o)) << "\n";
    }
  }

  // Unique specs by DSL text, in order of first use by a run: the bytes
  // do not depend on whether runs share one spec object or each parsed
  // their own.
  std::vector<std::string> unique_dsl;
  std::map<std::string, std::size_t> dsl_index;
  std::map<const wfspec::WorkflowSpec*, std::size_t> spec_index;
  for (const auto* spec : specs_by_run) {
    if (spec_index.count(spec) > 0) continue;
    auto dsl = wfspec::to_dsl(*spec);
    const auto [it, inserted] = dsl_index.emplace(dsl, unique_dsl.size());
    if (inserted) unique_dsl.push_back(std::move(dsl));
    spec_index.emplace(spec, it->second);
  }
  body << "specs " << unique_dsl.size() << "\n";
  for (const auto& dsl : unique_dsl) {
    body << "spec-begin\n" << dsl << "spec-end\n";
  }

  // Runs with control state.
  body << "runs " << engine.run_count() << "\n";
  for (std::size_t r = 0; r < engine.run_count(); ++r) {
    const auto run = static_cast<RunId>(r);
    const auto snapshot = engine.run_snapshot(run);
    body << "run " << spec_index.at(specs_by_run[r]) << " "
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

Session load_session_impl(std::istream& in) {
  Session session;
  session.catalog = std::make_unique<wfspec::ObjectCatalog>();

  std::string line;
  std::size_t line_no = 0;
  // Running checksum over every consumed line (newline-normalised),
  // verified against the trailing checksum line of v3 sessions.
  std::uint32_t crc = storage::crc32c_init();
  auto next_line = [&]() -> std::istringstream {
    if (!std::getline(in, line)) fail(line_no, "unexpected end of session");
    ++line_no;
    if (line.size() > kMaxLineLen) fail(line_no, "line too long");
    crc = storage::crc32c_update(crc, line);
    crc = storage::crc32c_update(crc, std::string_view("\n", 1));
    return std::istringstream(line);
  };

  int version = 0;
  {
    auto header = next_line();
    const auto magic = need_token(header, line_no, "magic");
    version = need_int<int>(header, line_no, "version");
    if (magic != kMagic) fail(line_no, "bad magic");
    if (version < kMinVersion || version > kVersion) {
      fail(line_no, "unsupported session version " + std::to_string(version));
    }
    expect_done(header, line_no);
  }

  EngineConfig config;
  {
    auto ln = next_line();
    if (need_token(ln, line_no, "config keyword") != "config") {
      fail(line_no, "expected config");
    }
    const int interleave = need_int<int>(ln, line_no, "interleave");
    if (interleave < 0 || interleave > static_cast<int>(Interleave::kExplicit)) {
      fail(line_no, "bad interleave " + std::to_string(interleave));
    }
    config.interleave = static_cast<Interleave>(interleave);
    config.seed = need_int<std::uint64_t>(ln, line_no, "seed");
    config.max_incarnations = need_int<int>(ln, line_no, "max incarnations");
    expect_done(ln, line_no);
  }

  {
    auto ln = next_line();
    if (need_token(ln, line_no, "catalog keyword") != "catalog") {
      fail(line_no, "expected catalog");
    }
    const auto count = need_count(ln, line_no, "catalog size");
    expect_done(ln, line_no);
    for (std::size_t i = 0; i < count; ++i) {
      auto obj_line = next_line();
      if (need_token(obj_line, line_no, "obj keyword") != "obj") {
        fail(line_no, "bad obj line");
      }
      const auto id = need_int<wfspec::ObjectId>(obj_line, line_no, "object id");
      const auto name = need_token(obj_line, line_no, "object name");
      expect_done(obj_line, line_no);
      if (session.catalog->intern(name) != id) {
        fail(line_no, "catalog ids out of order");
      }
    }
  }

  {
    auto ln = next_line();
    if (need_token(ln, line_no, "specs keyword") != "specs") {
      fail(line_no, "expected specs");
    }
    const auto count = need_count(ln, line_no, "spec count");
    expect_done(ln, line_no);
    for (std::size_t s = 0; s < count; ++s) {
      auto begin = next_line();
      if (need_token(begin, line_no, "spec-begin") != "spec-begin") {
        fail(line_no, "expected spec-begin");
      }
      const std::size_t spec_first_line = line_no + 1;
      std::ostringstream dsl;
      while (true) {
        (void)next_line();  // refreshes `line`
        if (line == "spec-end") break;
        dsl << line << "\n";
      }
      try {
        session.specs.push_back(std::make_unique<wfspec::WorkflowSpec>(
            wfspec::parse_workflow(dsl.str(), *session.catalog)));
      } catch (const std::exception& e) {
        // Spec-DSL errors get the same line-numbered context as every
        // other rejection.
        fail(spec_first_line, std::string("bad workflow spec: ") + e.what());
      }
    }
  }

  session.engine = std::make_unique<Engine>(config);
  struct PendingRun {
    Engine::RunSnapshot snapshot;
    std::size_t line_no = 0;
  };
  std::vector<PendingRun> pending;
  std::size_t run_count_declared = 0;
  {
    auto ln = next_line();
    if (need_token(ln, line_no, "runs keyword") != "runs") {
      fail(line_no, "expected runs");
    }
    run_count_declared = need_count(ln, line_no, "run count");
    expect_done(ln, line_no);
    for (std::size_t r = 0; r < run_count_declared;) {
      auto run_line = next_line();
      const auto keyword = need_token(run_line, line_no, "run keyword");
      if (keyword == "inject") {
        const auto run = need_int<RunId>(run_line, line_no, "inject run");
        const auto task = need_int<wfspec::TaskId>(run_line, line_no,
                                                   "inject task");
        const auto inc = need_int<int>(run_line, line_no, "inject incarnation");
        expect_done(run_line, line_no);
        if (run < 0 || static_cast<std::size_t>(run) >= pending.size()) {
          fail(line_no, "inject references unknown run");
        }
        pending[static_cast<std::size_t>(run)]
            .snapshot.pending_malicious.emplace_back(task, inc);
        continue;
      }
      if (keyword != "run") fail(line_no, "expected run");
      const auto spec_idx = need_count(run_line, line_no, "spec index");
      const int active = need_int<int>(run_line, line_no, "active flag");
      const int aborted = need_int<int>(run_line, line_no, "aborted flag");
      PendingRun p;
      p.line_no = line_no;
      p.snapshot.pc = need_int<wfspec::TaskId>(run_line, line_no, "run pc");
      p.snapshot.active = active != 0;
      p.snapshot.aborted = aborted != 0;
      if (need_token(run_line, line_no, "visits keyword") != "visits") {
        fail(line_no, "expected visits");
      }
      std::string pair;
      while (run_line >> pair) {
        const auto [task, count] = parse_pair(pair, line_no, "visits");
        p.snapshot.visits[task] = static_cast<int>(count);
      }
      if (spec_idx >= session.specs.size()) {
        fail(line_no, "run references unknown spec " + std::to_string(spec_idx));
      }
      session.engine->start_run(*session.specs[spec_idx]);
      pending.push_back(std::move(p));
      ++r;
    }
  }

  {
    auto ln = next_line();
    std::string keyword = need_token(ln, line_no, "log keyword");
    // Injects of the final run may appear between "runs" and "log".
    while (keyword == "inject") {
      const auto run = need_int<RunId>(ln, line_no, "inject run");
      const auto task = need_int<wfspec::TaskId>(ln, line_no, "inject task");
      const auto inc = need_int<int>(ln, line_no, "inject incarnation");
      expect_done(ln, line_no);
      if (run < 0 || static_cast<std::size_t>(run) >= pending.size()) {
        fail(line_no, "inject references unknown run");
      }
      pending[static_cast<std::size_t>(run)]
          .snapshot.pending_malicious.emplace_back(task, inc);
      ln = next_line();
      keyword = need_token(ln, line_no, "log keyword");
    }
    if (keyword != "log") fail(line_no, "expected log");
    const auto count = need_count(ln, line_no, "log size");
    expect_done(ln, line_no);
    for (std::size_t i = 0; i < count; ++i) {
      (void)next_line();
      auto e = parse_log_entry(line, line_no);
      if (e.run < 0 || static_cast<std::size_t>(e.run) >= pending.size()) {
        if (e.kind != ActionKind::kRepair) {
          fail(line_no, "entry references unknown run");
        }
      }
      try {
        session.engine->import_entry(std::move(e));
      } catch (const std::exception& ex) {
        fail(line_no, std::string("inconsistent log entry: ") + ex.what());
      }
    }
  }

  {
    auto ln = next_line();
    if (need_token(ln, line_no, "end keyword") != "end") {
      fail(line_no, "expected end");
    }
    expect_done(ln, line_no);
  }

  if (version >= 3) {
    // The checksum covers everything up to and including "end\n".
    const std::uint32_t computed = storage::crc32c_finish(crc);
    auto ln = next_line();
    if (need_token(ln, line_no, "checksum keyword") != "checksum") {
      fail(line_no, "expected checksum");
    }
    const auto token = need_token(ln, line_no, "checksum value");
    expect_done(ln, line_no);
    std::uint32_t stored = 0;
    const auto result =
        std::from_chars(token.data(), token.data() + token.size(), stored, 16);
    if (result.ec != std::errc() || result.ptr != token.data() + token.size()) {
      fail(line_no, "bad checksum value '" + token + "'");
    }
    if (stored != computed) {
      char expect[16];
      std::snprintf(expect, sizeof(expect), "%08x", computed);
      fail(line_no, "checksum mismatch: stored " + token + ", computed " +
                        std::string(expect));
    }
  }

  // Nothing may follow the session: appended bytes are damage (or an
  // injection attempt), not padding.
  if (std::string extra; std::getline(in, extra)) {
    fail(line_no + 1, "trailing data after session");
  }

  // Finally restore run control state and pending injections.
  for (std::size_t r = 0; r < pending.size(); ++r) {
    const auto run = static_cast<RunId>(r);
    const auto& snapshot = pending[r].snapshot;
    try {
      session.engine->resume_run(
          run, snapshot.active ? snapshot.pc : wfspec::kInvalidTask,
          snapshot.visits);
      if (snapshot.aborted) session.engine->abort_run(run);
      for (const auto& [task, inc] : snapshot.pending_malicious) {
        session.engine->inject_malicious(run, task, inc);
      }
    } catch (const std::exception& ex) {
      fail(pending[r].line_no,
           std::string("inconsistent run control state: ") + ex.what());
    }
  }
  return session;
}

}  // namespace

Session load_session(std::istream& in) {
  try {
    return load_session_impl(in);
  } catch (const std::invalid_argument&) {
    throw;
  } catch (const std::exception& e) {
    // Safety net: no hostile byte stream may escalate past
    // invalid_argument (e.g. std::bad_alloc, container out_of_range).
    throw std::invalid_argument(std::string("session: ") + e.what());
  }
}

Session load_session_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_session_file: cannot open " + path);
  return load_session(in);
}

}  // namespace selfheal::engine
