// Strict reading of the text the system reads back from its own media or
// from a peer: session files, WAL records, and the counted-body
// envelopes (durable media, tenant worlds, replica snapshots, replicated
// commands, replication messages, acceptor records). The hostile-input
// discipline is written once, here:
//
//   * lines split on '\n' as std::getline splits them (the last line may
//     lack its newline), numbered from 1, optionally capped in length;
//   * tokens are maximal runs of non-blanks, the blanks being the ones
//     `istream >> string` skips in the "C" locale (space \t \n \v \f \r);
//   * an integer is a whole token read by std::from_chars: no '+', no
//     sign at all on an unsigned field, in range of the field's type;
//   * Tokens::done() refuses a trailing token, TextReader::done()
//     trailing bytes.
//
// Every refusal throws std::invalid_argument "<context>: <message>", or
// "<context> line N: <message>" from a numbered reader.
//
// The counted-body envelope is a header line "<magic> <fields...> <N>\n"
// followed by exactly N raw body bytes, which may hold newlines and NULs.
// append_envelope writes one; Tokens::body reads its body.
#pragma once

#include <charconv>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

namespace selfheal::util {

/// The whole of `token` as a T, or nullopt.
template <typename T>
[[nodiscard]] std::optional<T> parse_int(std::string_view token,
                                         int base = 10) noexcept {
  static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
  T value{};
  const char* last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), last, value, base);
  if (token.empty() || ec != std::errc() || ptr != last) return std::nullopt;
  return value;
}

class TextReader;

/// The tokens of one line, left to right. Refusals name the reader's
/// current line.
class Tokens {
 public:
  Tokens(TextReader& reader, std::string_view line) noexcept
      : reader_(&reader), rest_(line) {}

  /// The next token, or an empty view when the line has no more.
  [[nodiscard]] std::string_view next() noexcept;
  /// The next token; refuses "missing <what>" when there is none.
  std::string_view token(std::string_view what);
  /// Refuses "expected <keyword>" unless the next token is `keyword`.
  void expect(std::string_view keyword);
  /// The next token as a strict integer; refuses "bad <what> '<token>'".
  template <typename T>
  T integer(std::string_view what) {
    const auto text = token(what);
    if (const auto value = parse_int<T>(text)) return *value;
    bad(what, text);
  }
  /// Refuses "trailing token '<token>'" unless the line is used up.
  void done();
  /// Ends a counted-body envelope header, whose last field is the body's
  /// byte count N, and returns the reader's next N bytes.
  std::string_view body(std::string_view what);

  [[noreturn]] void fail(std::string_view message) const;
  [[noreturn]] void bad(std::string_view what, std::string_view token) const;

 private:
  TextReader* reader_;
  std::string_view rest_;
};

class TextReader {
 public:
  /// `context` opens every error message and must outlive the reader;
  /// `numbered` adds " line N" to it. A line longer than `max_line`
  /// bytes is refused.
  explicit TextReader(std::string_view text, std::string_view context,
                      bool numbered = false,
                      std::size_t max_line = std::string_view::npos)
      : text_(text), context_(context), numbered_(numbered),
        max_line_(max_line) {}

  [[nodiscard]] bool at_end() const noexcept { return pos_ == text_.size(); }
  /// The number of the last line read (0 before the first).
  [[nodiscard]] std::size_t line_no() const noexcept { return line_no_; }
  /// Bytes consumed so far.
  [[nodiscard]] std::size_t offset() const noexcept { return pos_; }

  /// The next line, without its '\n'; refuses "unexpected end of input".
  std::string_view line();
  /// The next line, which must end in '\n'; refuses "missing <what>".
  std::string_view full_line(std::string_view what);
  Tokens tokens() { return Tokens(*this, line()); }
  /// An envelope header line, which must end in '\n'.
  Tokens header() { return Tokens(*this, full_line("header line")); }
  /// The next `n` raw bytes; refuses "truncated <what>".
  std::string_view take(std::size_t n, std::string_view what);
  /// Refuses "trailing bytes" unless everything was read.
  void done() const;

  [[noreturn]] void fail(std::string_view message) const {
    fail_at(line_no_, message);
  }
  [[noreturn]] void fail_at(std::size_t line_no, std::string_view message) const;

 private:
  std::string_view text_;
  std::string_view context_;
  bool numbered_;
  std::size_t max_line_;
  std::size_t pos_ = 0;
  std::size_t line_no_ = 0;
};

/// Appends `fields` separated by single spaces; an integer is written in
/// decimal, exactly as operator<< writes it.
template <typename... Fields>
void append_fields(std::string& out, const Fields&... fields) {
  auto append = [&out, first = true](const auto& field) mutable {
    if (!std::exchange(first, false)) out += ' ';
    if constexpr (std::is_integral_v<std::decay_t<decltype(field)>>) {
      char digits[24];
      out.append(digits, std::to_chars(digits, digits + sizeof(digits), field).ptr);
    } else {
      out += field;
    }
  };
  (append(fields), ...);
}

/// Appends a counted-body envelope: "<fields...> <body.size()>\n<body>".
template <typename... Fields>
void append_envelope(std::string& out, std::string_view body,
                     const Fields&... fields) {
  append_fields(out, fields..., body.size());
  out += '\n';
  out += body;
}

}  // namespace selfheal::util
