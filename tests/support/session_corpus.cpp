#include "session_corpus.hpp"

#include <sstream>
#include <stdexcept>

#include "selfheal/engine/session_io.hpp"
#include "selfheal/sim/workload.hpp"

namespace selfheal::testing {

std::string valid_session_text() {
  const auto scenario = sim::make_attack_scenario(2, 2, 1);
  std::ostringstream out;
  engine::save_session(*scenario.engine, out);
  return out.str();
}

std::vector<SessionCase> malformed_sessions() {
  const auto good = valid_session_text();
  std::vector<SessionCase> corpus;
  const auto add = [&](const char* name, std::string text) {
    corpus.push_back({name, std::move(text)});
  };
  // Replaces the first occurrence of `from` in the valid session.
  const auto mutated = [&](const char* name, const std::string& from,
                           const std::string& to) {
    auto copy = good;
    const auto pos = copy.find(from);
    if (pos == std::string::npos) {
      throw std::logic_error(std::string(name) + ": corpus lacks '" + from + "'");
    }
    copy.replace(pos, from.size(), to);
    add(name, std::move(copy));
  };

  // --- header ---
  add("empty input", "");
  add("blank lines", "\n\n\n");
  mutated("bad magic", "selfheal-session", "not-a-session");
  mutated("version too old", "selfheal-session 3", "selfheal-session 1");
  mutated("version from the future", "selfheal-session 3", "selfheal-session 99");
  mutated("non-numeric version", "selfheal-session 3", "selfheal-session x");
  mutated("trailing token on header", "selfheal-session 3",
          "selfheal-session 3 extra");
  add("header only", "selfheal-session 3\n");

  // --- config ---
  mutated("misspelled config", "config ", "konfig ");
  mutated("bad interleave", "config 0", "config 99");
  mutated("negative interleave", "config 0", "config -1");
  mutated("seed overflow", "config 0 ", "config 0 99999999999999999999999");

  // --- catalog ---
  mutated("absurd catalog size", "catalog ", "catalog 99999999999999 x\n");
  mutated("catalog ids out of order", "obj 0 ", "obj 5 ");
  mutated("non-numeric object id", "obj 0 ", "obj zero ");
  mutated("bad obj keyword", "obj 1 ", "oops 1 ");

  // --- specs ---
  mutated("absurd spec count", "specs ", "specs 16777217\nx ");
  mutated("broken spec dsl", "spec-begin", "spec-begin\ntask bogus (");

  // --- runs / injections ---
  mutated("absurd run count", "runs ", "runs 16777217\nx ");
  mutated("run references unknown spec", "run 0 ", "run 99 ");
  mutated("visits pair without colon", "visits", "visits 5");
  mutated("non-numeric visits pair", "visits", "visits x:y");

  // --- log ---
  mutated("absurd log size", "log ", "log 16777217\nx ");
  mutated("negative entry id", "entry 0 ", "entry -7 ");
  mutated("log entries out of order", "entry 0 ", "entry 5 ");
  mutated("bad entry keyword", "entry 1 ", "wrong 1 ");
  mutated("bad read pair", " R ", " R 5 ");
  mutated("negative object id", " W ", " W -1:0 ");
  mutated("missing R section", " R ", " ");
  mutated("missing W section", " W ", " ");
  mutated("missing C section", " C ", " ");
  mutated("garbage between log and end", "\nend", "\nentry trailing\nend");

  // --- framing / integrity ---
  add("truncated mid-file", good.substr(0, good.size() / 2));
  add("missing end", good.substr(0, good.find("\nend") + 1));
  add("v3 without checksum line", good.substr(0, good.find("checksum")));
  mutated("non-hex checksum", "checksum ", "checksum zz");
  mutated("checksum mismatch", "checksum ", "checksum 00000000 \n");
  add("bytes after checksum", good + "trailing garbage\n");
  mutated("line over the length cap", "end", std::string(2u << 20, 'a'));
  mutated("embedded NUL", "entry 0", std::string("entry\0", 6));

  // --- declared counts that must not allocate ---
  add("catalog count near UINT64_MAX",
      "selfheal-session 3\nconfig 0 1 64\ncatalog 18446744073709551615\n");
  add("spec count near UINT64_MAX",
      "selfheal-session 3\nconfig 0 1 64\ncatalog 0\nspecs "
      "18446744073709551615\n");
  return corpus;
}

}  // namespace selfheal::testing
