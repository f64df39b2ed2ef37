// Hostile-input corpus for the session loader: every malformed stream
// must be rejected with a line-numbered std::invalid_argument -- never a
// crash, a hang, an unbounded allocation, or a silently wrong session.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>

#include "selfheal/engine/session_io.hpp"
#include "selfheal/storage/crc32c.hpp"
#include "selfheal/wfspec/parser.hpp"
#include "session_corpus.hpp"

namespace {

using namespace selfheal;

/// Asserts the stream is rejected with a line-numbered error.
void expect_rejected(const std::string& text, const char* what) {
  try {
    (void)engine::load_session(text);
    FAIL() << what << ": hostile input was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("session"), std::string::npos)
        << what << ": error lacks context: " << e.what();
  } catch (const std::exception& e) {
    FAIL() << what << ": escaped as " << typeid(e).name() << ": " << e.what();
  }
}

TEST(SessionFuzz, MalformedCorpusIsRejectedWithLineNumbers) {
  // Sanity: the unmutated corpus loads.
  {
    EXPECT_NO_THROW(
        (void)engine::load_session(selfheal::testing::valid_session_text()));
  }
  for (const auto& hostile : selfheal::testing::malformed_sessions()) {
    expect_rejected(hostile.text, hostile.name.c_str());
  }
}

TEST(SessionFuzz, ChecksumCatchesValueTampering) {
  // Grammar-preserving damage (a flipped digit inside an entry's values)
  // parses fine line by line -- the v3 whole-file checksum is what
  // refuses it.
  const auto good = selfheal::testing::valid_session_text();
  const auto c_pos = good.find(" C ");
  ASSERT_NE(c_pos, std::string::npos);
  const auto digit = good.find_first_of("0123456789", c_pos + 3);
  ASSERT_NE(digit, std::string::npos);
  auto tampered = good;
  tampered[digit] = tampered[digit] == '9' ? '8' : static_cast<char>(tampered[digit] + 1);

  try {
    (void)engine::load_session(tampered);
    // Some tamperings are caught earlier by log-consistency checks;
    // reaching here means nothing caught it, which must not happen.
    FAIL() << "tampered session accepted";
  } catch (const std::invalid_argument& e) {
    SUCCEED() << e.what();
  }
}

TEST(SessionFuzz, V2SessionsWithoutChecksumStillLoad) {
  // Read compatibility: a v2 header means no trailing checksum line.
  auto v2 = selfheal::testing::valid_session_text();
  v2 = v2.substr(0, v2.find("checksum"));
  const auto pos = v2.find("selfheal-session 3");
  ASSERT_NE(pos, std::string::npos);
  v2.replace(pos, 18, "selfheal-session 2");
  const auto session = engine::load_session(v2);
  ASSERT_NE(session.engine, nullptr);
  EXPECT_GT(session.engine->log().size(), 0u);
}

TEST(SessionFuzz, AbsurdDeclaredCountsDoNotAllocate) {
  // Declared counts beyond the plausibility cap must be rejected up
  // front -- long before any per-element allocation loop runs.
  expect_rejected(
      "selfheal-session 3\nconfig 0 1 64\ncatalog 18446744073709551615\n",
      "catalog count near UINT64_MAX");
  expect_rejected(
      "selfheal-session 3\nconfig 0 1 64\ncatalog 0\nspecs 18446744073709551615\n",
      "spec count near UINT64_MAX");
}

/// `text` with its first `from` replaced by `to` and its checksum
/// recomputed, so the edit is the only damage, and the number of the
/// line the edit starts on.
std::pair<std::string, std::size_t> edited(std::string text, const std::string& from,
                                           const std::string& to) {
  const auto at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  text.replace(at, from.size(), to);
  text.erase(text.find("checksum "));
  char checksum[16];
  std::snprintf(checksum, sizeof(checksum), "%08x", storage::crc32c(text));
  text += "checksum " + std::string(checksum) + "\n";
  const auto line = std::count(text.begin(), text.begin() + at, '\n') + 1;
  return {text, static_cast<std::size_t>(line)};
}

/// Asserts that load_session refuses an edited() text, naming the line
/// of the edit.
void expect_refused_on_line(const std::pair<std::string, std::size_t>& input) {
  const auto& [text, line] = input;
  try {
    (void)engine::load_session(text);
    FAIL() << "accepted; line " << line << " should have been refused";
  } catch (const std::invalid_argument& e) {
    const std::string expected = "session line " + std::to_string(line) + ": ";
    EXPECT_EQ(std::string(e.what()).rfind(expected, 0), 0u) << e.what();
  }
}

TEST(SessionFuzz, VisitCountBeyondIntIsRefusedOnItsLine) {
  // 4294967297 does not fit a visit count; narrowed, it would load as 1.
  expect_refused_on_line(edited(selfheal::testing::valid_session_text(),
                                " visits 0:1 ", " visits 0:4294967297 "));
}

TEST(SessionFuzz, TheWalDecodersRulesHoldForSessions) {
  // A spec header with a trailing token, and a spec that names an object
  // its catalog lacks (refused on the DSL's first line).
  const auto good = selfheal::testing::valid_session_text();
  expect_refused_on_line(edited(good, "spec-begin\n", "spec-begin 0\n"));
  expect_refused_on_line(
      edited(good,
             "workflow wf0\n"
             "task wf0_t0 reads shared_1 writes wf0_o0_0 selector shared_1\n",
             "workflow wf0\n"
             "task wf0_t0 reads shared_99 writes wf0_o0_0 selector shared_99\n"));

  // A pending injection of a negative task id.
  wfspec::ObjectCatalog catalog;
  const auto spec = wfspec::parse_workflow(
      "workflow w\ntask a writes x\ntask b reads x\nedge a b\n", catalog);
  engine::Engine eng;
  eng.inject_malicious(eng.start_run(spec), spec.task_by_name("b"));
  std::ostringstream pending;
  engine::save_session(eng, pending);
  expect_refused_on_line(edited(pending.str(), "inject 0 1 1\n", "inject 0 -1 1\n"));
}

}  // namespace
