// The service wire protocol: framed request messages and their
// responses.
//
// Every request to the daemon travels as one FRAME -- a one-line header
// `shf1 <payload-bytes> <crc32c-hex>` followed by the payload -- so a
// truncated or bit-flipped message is rejected at the door
// (RejectReason::kBadFrame) instead of being half-applied. The payload
// is line-oriented text, like every other durable format in this
// repository, so frames are greppable in flight recordings.
//
// Request kinds (the daemon's entire surface):
//   * kSubmitRun -- a workflow submission: the spec as DSL text, a run
//     label, and optional attack marks (task, incarnation) the harness
//     injects before execution (the chaos/bench stand-in for a real
//     intruder);
//   * kAlert     -- an IDS report for one previously submitted run: the
//     tenant resolves it to the run's malicious instances and feeds the
//     self-healing controller;
//   * kQuery     -- a read-only status probe (log size, state, progress
//     watermark);
//   * kDrain     -- finish everything queued, then seal the tenant
//     against new work (admission rejects with "draining").
//
// Admission answers immediately with an Ack; request COMPLETION is
// reported asynchronously through a CompletionFn. Rejections carry a
// machine-readable reason token (stable strings, asserted by tests) so
// clients can distinguish backpressure ("queue_full", "byte_budget")
// from permanent conditions ("quarantined", "draining").
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace selfheal::service {

/// Daemon-assigned tenant handle (index into the tenant table).
using TenantId = std::int32_t;
inline constexpr TenantId kInvalidTenant = -1;

enum class RequestKind { kSubmitRun, kAlert, kQuery, kDrain };

[[nodiscard]] const char* to_string(RequestKind kind);

/// One attack injection riding on a submission: mark (task, incarnation)
/// of the submitted run malicious before it executes.
struct AttackMark {
  std::string task;  // task name within the submitted spec
  int incarnation = 1;
};

struct Request {
  RequestKind kind = RequestKind::kQuery;

  // kSubmitRun:
  std::string run_name;  // client label (no whitespace)
  std::string spec_dsl;  // wfspec DSL text (parser.hpp format)
  std::vector<AttackMark> attacks;

  // kAlert: tenant-local run index (n-th accepted submission, 0-based).
  std::uint32_t alert_run = 0;
};

/// Why admission said no. Stable tokens (to_token) are part of the wire
/// contract; tests assert them verbatim.
enum class RejectReason {
  kNone,           // accepted
  kQueueFull,      // "queue_full": the tenant's bounded queue is at capacity
  kByteBudget,     // "byte_budget": global queued-frame byte budget exceeded
  kQuarantined,    // "quarantined": the tenant faulted and was isolated
  kDraining,       // "draining": the tenant accepted a drain; no new work
  kUnknownTenant,  // "unknown_tenant": no such tenant id
  kBadFrame,       // "bad_frame": frame header/checksum/payload malformed
  kStopped,        // "stopped": the daemon is shutting down
  kRedirected,     // "redirected": this replica is a follower; retry at
                   // the leader named in Ack::leader_hint
};

[[nodiscard]] const char* to_token(RejectReason reason);

/// Immediate admission verdict (synchronous with submit()).
struct Ack {
  bool accepted = false;
  RejectReason reason = RejectReason::kNone;
  std::size_t queue_depth = 0;        // tenant queue depth after the verdict
  std::uint64_t queued_bytes = 0;     // global queued bytes after the verdict
  /// On kRedirected: the node the client should retry at (the replica
  /// this follower believes is the leader). -1 otherwise.
  std::int32_t leader_hint = -1;
  [[nodiscard]] const char* reason_token() const { return to_token(reason); }
};

/// Asynchronous completion report. For kSubmitRun it fires when the run
/// finished executing (or was rejected at parse time); for kAlert when
/// the controller returned to NORMAL after healing that alert's damage;
/// for kQuery/kDrain when the request was processed. A quarantined
/// tenant fails every in-flight completion with ok == false.
struct Response {
  bool ok = false;
  RequestKind kind = RequestKind::kQuery;
  std::string error;  // non-empty when !ok (parse failure, quarantine)

  // kSubmitRun:
  std::int32_t run = -1;           // engine RunId within the tenant
  std::size_t tasks_executed = 0;  // log entries this submission committed

  // kAlert:
  std::size_t malicious_reported = 0;

  // kQuery / kDrain status payload:
  std::uint64_t log_entries = 0;
  std::uint64_t watermark = 0;  // requests completed (starvation probe)
  std::uint64_t scans = 0;
  std::uint64_t recoveries = 0;
  std::string state;  // "NORMAL" / "SCAN" / "RECOVERY" / "QUARANTINED"
  bool quarantined = false;
  bool draining = false;
};

using CompletionFn = std::function<void(const Response&)>;

// --- Framing ---

/// Serialises a request payload (no frame header) into one exact-size
/// string. Line-oriented; the spec DSL travels as a counted block so
/// arbitrary DSL text round-trips.
[[nodiscard]] std::string encode_request(const Request& request);

/// Parses an encode_request payload. Throws std::invalid_argument with
/// a line-numbered message on malformed input.
[[nodiscard]] Request decode_request(const std::string& payload);

/// The payload behind its checksummed frame header, in one exact-size
/// string: one allocation per frame.
[[nodiscard]] std::string encode_frame(const Request& request);

/// Validates the frame header (magic, length, CRC32C, each spelled as
/// encode_frame spells it) and decodes the payload. Throws
/// std::invalid_argument on any damage.
[[nodiscard]] Request decode_frame(const std::string& frame);

}  // namespace selfheal::service
