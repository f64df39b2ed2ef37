// Tiny command-line flag parser for the example/bench binaries.
// Supports --name=value, --name value, and bare --name booleans.
//
// Values are read strictly: a count is a whole non-negative integer, a
// number is a whole finite double, a boolean is true/false/1/0/yes/no.
// A bad value throws std::invalid_argument naming the flag, and done()
// refuses a flag that nothing has read, so a typo or a flag the program
// does not have stops the run instead of running the default.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace selfheal::util {

class Flags {
 public:
  Flags(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] std::size_t get_count(const std::string& name,
                                      std::size_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Refuses the first given flag that no call above has read. Call it
  /// once every flag the program takes has been read, before the run.
  void done() const;

  /// Non-flag positional arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  /// The flag's value, marked read, or nullptr when it was not given.
  [[nodiscard]] const std::string* find(const std::string& name) const;

  struct Value {
    std::string text;
    mutable bool read = false;
  };
  std::map<std::string, Value> values_;
  std::vector<std::string> positional_;
};

/// The body of a bench or example main. A std::exception escaping
/// `body` -- a bad flag value, a flag nothing reads, an unreadable input
/// -- is reported as "<program>: <message>" on stderr, and the process
/// exits 2; otherwise `body`'s result is the exit status.
int run_main(int argc, const char* const* argv,
             const std::function<int(const Flags&)>& body);

}  // namespace selfheal::util
