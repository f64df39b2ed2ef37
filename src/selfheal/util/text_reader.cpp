#include "selfheal/util/text_reader.hpp"

#include <algorithm>
#include <stdexcept>

namespace selfheal::util {

constexpr std::string_view kBlanks = " \t\n\v\f\r";

std::string_view Tokens::next() noexcept {
  const auto begin = std::min(rest_.find_first_not_of(kBlanks), rest_.size());
  const auto end = std::min(rest_.find_first_of(kBlanks, begin), rest_.size());
  const auto token = rest_.substr(begin, end - begin);
  rest_.remove_prefix(end);
  return token;
}

std::string_view Tokens::token(std::string_view what) {
  const auto text = next();
  if (text.empty()) fail("missing " + std::string(what));
  return text;
}

void Tokens::expect(std::string_view keyword) {
  if (next() != keyword) fail("expected " + std::string(keyword));
}

void Tokens::done() {
  if (const auto extra = next(); !extra.empty()) {
    fail("trailing token '" + std::string(extra) + "'");
  }
}

std::string_view Tokens::body(std::string_view what) {
  const auto bytes = integer<std::size_t>(what);
  done();
  return reader_->take(bytes, what);
}

void Tokens::fail(std::string_view message) const { reader_->fail(message); }

void Tokens::bad(std::string_view what, std::string_view token) const {
  fail("bad " + std::string(what) + " '" + std::string(token) + "'");
}

std::string_view TextReader::line() {
  if (at_end()) fail("unexpected end of input");
  const auto end = std::min(text_.find('\n', pos_), text_.size());
  const auto line = text_.substr(pos_, end - pos_);
  pos_ = std::min(end + 1, text_.size());
  ++line_no_;
  if (line.size() > max_line_) fail("line too long");
  return line;
}

std::string_view TextReader::full_line(std::string_view what) {
  if (text_.find('\n', pos_) == std::string_view::npos) {
    fail("missing " + std::string(what));
  }
  return line();
}

std::string_view TextReader::take(std::size_t n, std::string_view what) {
  if (text_.size() - pos_ < n) fail("truncated " + std::string(what));
  const auto bytes = text_.substr(pos_, n);
  pos_ += n;
  return bytes;
}

void TextReader::done() const {
  if (!at_end()) fail("trailing bytes");
}

void TextReader::fail_at(std::size_t line_no, std::string_view message) const {
  throw std::invalid_argument(
      std::string(context_) + (numbered_ ? " line " + std::to_string(line_no) : "") +
      ": " + std::string(message));
}

}  // namespace selfheal::util
