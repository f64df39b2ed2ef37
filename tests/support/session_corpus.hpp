// The hostile-input corpus for the session loader, shared by the fuzz
// test (every case must be rejected with a line-numbered error) and the
// read-path golden verdicts (every case's verdict is pinned).
#pragma once

#include <string>
#include <vector>

namespace selfheal::testing {

struct SessionCase {
  std::string name;
  std::string text;
};

/// A small attacked session as save_session writes it.
[[nodiscard]] std::string valid_session_text();

/// Malformed variants of valid_session_text() and hand-written streams;
/// load_session must reject every one.
[[nodiscard]] std::vector<SessionCase> malformed_sessions();

}  // namespace selfheal::testing
