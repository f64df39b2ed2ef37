#include "selfheal/service/request.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "selfheal/storage/crc32c.hpp"

namespace selfheal::service {

namespace {

constexpr std::string_view kFrameMagic = "shf1";
/// A frame larger than this is rejected before any allocation: the
/// header is adversarial input (same guard discipline as the WAL).
constexpr std::size_t kMaxPayloadBytes = 16u << 20;
constexpr std::size_t kMaxSpecLines = 4096;
constexpr std::size_t kMaxAttacks = 1024;

[[noreturn]] void bad(std::size_t line_no, const std::string& what) {
  throw std::invalid_argument("request line " + std::to_string(line_no) + ": " +
                              what);
}

template <typename T>
bool parse_int(const std::string& token, T& out) {
  const auto* first = token.data();
  const auto* last = token.data() + token.size();
  const auto result = std::from_chars(first, last, out);
  return !token.empty() && result.ec == std::errc() && result.ptr == last;
}

bool plain_token(const std::string& token) {
  if (token.empty()) return false;
  for (const char c : token) {
    if (c == '\n' || c == '\r' || c == ' ' || c == '\t') return false;
  }
  return true;
}

/// Decimal digits of `value`.
template <typename Int>
std::size_t decimal_width(Int value) {
  char digits[24];
  return static_cast<std::size_t>(
      std::to_chars(digits, digits + sizeof(digits), value).ptr - digits);
}

/// Sizing pass of put_payload: counts the bytes it would write.
struct ByteCount {
  std::size_t bytes = 0;
  void put(std::string_view text) { bytes += text.size(); }
  template <typename Int>
  void put_int(Int value) { bytes += decimal_width(value); }
};

/// Writing pass of put_payload, into a buffer ByteCount sized.
struct ByteWriter {
  char* at;
  char* end;
  void put(std::string_view text) {
    text.copy(at, text.size());
    at += text.size();
  }
  template <typename Int>
  void put_int(Int value) { at = std::to_chars(at, end, value).ptr; }
};

/// Lines of the spec block: a final line without its newline counts, and
/// put_payload supplies the newline.
std::size_t spec_line_count(const std::string& dsl) {
  const auto newlines = std::count(dsl.begin(), dsl.end(), '\n');
  return static_cast<std::size_t>(newlines) +
         (!dsl.empty() && dsl.back() != '\n' ? 1 : 0);
}

/// The payload grammar, spelled once: the encoders run it through a
/// ByteCount to size their buffer, then through a ByteWriter to fill it.
template <typename Out>
void put_payload(const Request& request, std::size_t spec_lines, Out& out) {
  switch (request.kind) {
    case RequestKind::kSubmitRun:
      out.put("submit ");
      out.put(request.run_name.empty() ? std::string_view("run")
                                       : std::string_view(request.run_name));
      out.put("\n");
      for (const auto& attack : request.attacks) {
        out.put("attack ");
        out.put(attack.task);
        out.put(" ");
        out.put_int(attack.incarnation);
        out.put("\n");
      }
      out.put("spec ");
      out.put_int(spec_lines);
      out.put("\n");
      out.put(request.spec_dsl);
      if (!request.spec_dsl.empty() && request.spec_dsl.back() != '\n') {
        out.put("\n");
      }
      break;
    case RequestKind::kAlert:
      out.put("alert ");
      out.put_int(request.alert_run);
      out.put("\n");
      break;
    case RequestKind::kQuery:
      out.put("query\n");
      break;
    case RequestKind::kDrain:
      out.put("drain\n");
      break;
  }
}

/// Bytes of the header `shf1 <payload-bytes> <8 hex digits>\n`.
std::size_t header_bytes(std::size_t payload_bytes) {
  // Two spaces, eight hex digits and the newline.
  return kFrameMagic.size() + decimal_width(payload_bytes) + 11;
}

/// Writes the header_bytes(payload_bytes) header bytes at `out`.
void write_header(char* out, std::size_t payload_bytes, std::uint32_t crc) {
  static constexpr char kHex[] = "0123456789abcdef";
  ByteWriter header{out, out + header_bytes(payload_bytes)};
  header.put(kFrameMagic);
  header.put(" ");
  header.put_int(payload_bytes);
  header.put(" ");
  for (int shift = 28; shift >= 0; shift -= 4) {
    *header.at++ = kHex[(crc >> shift) & 0xf];
  }
  header.put("\n");
  assert(header.at == header.end);
}

}  // namespace

const char* to_string(RequestKind kind) {
  switch (kind) {
    case RequestKind::kSubmitRun: return "submit";
    case RequestKind::kAlert: return "alert";
    case RequestKind::kQuery: return "query";
    case RequestKind::kDrain: return "drain";
  }
  return "?";
}

const char* to_token(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone: return "accepted";
    case RejectReason::kQueueFull: return "queue_full";
    case RejectReason::kByteBudget: return "byte_budget";
    case RejectReason::kQuarantined: return "quarantined";
    case RejectReason::kDraining: return "draining";
    case RejectReason::kUnknownTenant: return "unknown_tenant";
    case RejectReason::kBadFrame: return "bad_frame";
    case RejectReason::kStopped: return "stopped";
    case RejectReason::kRedirected: return "redirected";
  }
  return "?";
}

std::string encode_request(const Request& request) {
  const std::size_t lines = spec_line_count(request.spec_dsl);
  ByteCount count;
  put_payload(request, lines, count);
  std::string payload(count.bytes, '\0');
  ByteWriter out{payload.data(), payload.data() + payload.size()};
  put_payload(request, lines, out);
  assert(out.at == out.end);
  return payload;
}

Request decode_request(const std::string& payload) {
  std::istringstream in(payload);
  std::string line;
  std::size_t line_no = 0;
  if (!std::getline(in, line)) bad(1, "empty request payload");
  ++line_no;

  std::istringstream head(line);
  std::string verb;
  head >> verb;
  Request request;
  if (verb == "query") {
    request.kind = RequestKind::kQuery;
    return request;
  }
  if (verb == "drain") {
    request.kind = RequestKind::kDrain;
    return request;
  }
  if (verb == "alert") {
    request.kind = RequestKind::kAlert;
    std::string run_token;
    if (!(head >> run_token) || !parse_int(run_token, request.alert_run)) {
      bad(line_no, "alert needs a run index");
    }
    return request;
  }
  if (verb != "submit") bad(line_no, "unknown request verb '" + verb + "'");

  request.kind = RequestKind::kSubmitRun;
  if (!(head >> request.run_name) || !plain_token(request.run_name)) {
    bad(line_no, "submit needs a run name");
  }
  bool saw_spec = false;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "attack") {
      if (request.attacks.size() >= kMaxAttacks) bad(line_no, "too many attacks");
      AttackMark mark;
      std::string inc_token;
      if (!(fields >> mark.task >> inc_token) ||
          !parse_int(inc_token, mark.incarnation) || mark.incarnation < 1) {
        bad(line_no, "attack needs <task> <incarnation>=1..");
      }
      request.attacks.push_back(std::move(mark));
      continue;
    }
    if (key != "spec") bad(line_no, "expected 'attack' or 'spec', got '" + key + "'");
    std::string count_token;
    std::size_t spec_lines = 0;
    if (!(fields >> count_token) || !parse_int(count_token, spec_lines) ||
        spec_lines > kMaxSpecLines) {
      bad(line_no, "spec needs a plausible line count");
    }
    for (std::size_t i = 0; i < spec_lines; ++i) {
      if (!std::getline(in, line)) bad(line_no + i + 1, "spec block truncated");
      request.spec_dsl += line;
      request.spec_dsl += '\n';
    }
    line_no += spec_lines;
    saw_spec = true;
    break;
  }
  if (!saw_spec) bad(line_no, "submit without a spec block");
  // Scan ALL remaining lines, not just the first: a blank line must not
  // smuggle arbitrary trailing data past the framing contract.
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty()) bad(line_no, "trailing data after spec block");
  }
  return request;
}

std::string encode_frame(const Request& request) {
  const std::size_t lines = spec_line_count(request.spec_dsl);
  ByteCount count;
  put_payload(request, lines, count);
  const std::size_t header = header_bytes(count.bytes);
  std::string frame(header + count.bytes, '\0');
  char* const payload = frame.data() + header;
  ByteWriter out{payload, frame.data() + frame.size()};
  put_payload(request, lines, out);
  assert(out.at == out.end);
  const auto written = static_cast<std::size_t>(out.at - payload);
  write_header(frame.data(), written, storage::crc32c({payload, written}));
  return frame;
}

Request decode_frame(const std::string& frame) {
  const auto newline = frame.find('\n');
  if (newline == std::string::npos) {
    throw std::invalid_argument("frame: missing header line");
  }
  std::istringstream head(frame.substr(0, newline));
  std::string magic;
  std::size_t length = 0;
  std::string crc_hex;
  if (!(head >> magic >> length >> crc_hex) || magic != kFrameMagic ||
      crc_hex.size() != 8) {
    throw std::invalid_argument("frame: bad header");
  }
  if (length > kMaxPayloadBytes) {
    throw std::invalid_argument("frame: implausible payload length");
  }
  if (frame.size() - newline - 1 != length) {
    throw std::invalid_argument("frame: payload length mismatch");
  }
  std::uint32_t want_crc = 0;
  {
    const auto* first = crc_hex.data();
    const auto* last = crc_hex.data() + crc_hex.size();
    const auto result = std::from_chars(first, last, want_crc, 16);
    if (result.ec != std::errc() || result.ptr != last) {
      throw std::invalid_argument("frame: bad checksum field");
    }
  }
  // Only the spelling encode_frame writes: no sign, leading zero, blank,
  // tab, upper-case digit or trailing field.
  char expected[40];
  write_header(expected, length, want_crc);
  if (std::string_view(frame).substr(0, newline + 1) !=
      std::string_view(expected, header_bytes(length))) {
    throw std::invalid_argument("frame: bad header");
  }
  const std::string payload = frame.substr(newline + 1);
  if (storage::crc32c(payload) != want_crc) {
    throw std::invalid_argument("frame: checksum mismatch");
  }
  return decode_request(payload);
}

}  // namespace selfheal::service
