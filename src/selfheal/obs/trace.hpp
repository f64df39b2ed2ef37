// Span-based tracing with Chrome trace_event export.
//
// RAII `Span` objects record wall-clock start/duration plus the DES
// logical-event-time window in which they ran (the simulator publishes
// its virtual clock through `Tracer::set_logical_time`). Spans nest:
// each thread keeps a current-span stack, so a Span opened while
// another is live becomes its child, and the exported trace renders the
// controller -> analyzer/scheduler -> per-task hierarchy directly in
// chrome://tracing / Perfetto ("X" complete events on one track nest by
// time containment; parent ids are also recorded explicitly in args).
//
// Tracing is OFF by default: a disabled Span costs one relaxed atomic
// load and no allocation, so instrumentation can stay in hot paths.
// While it is on, the tracer keeps the newest kTraceCapacity spans in a
// ring, so a traced soak holds bounded memory; each span the ring
// overwrites counts in the `obs.trace.dropped` counter.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace selfheal::obs {

/// One finished span, as exported to the trace file.
struct SpanRecord {
  std::string name;
  std::string category;
  std::string detail;          // optional free-form annotation (args.detail)
  std::uint64_t id = 0;        // 1-based; 0 means "no span"
  std::uint64_t parent = 0;    // id of the enclosing span, 0 for roots
  std::uint64_t start_ns = 0;  // wall clock, relative to the tracer epoch
  std::uint64_t dur_ns = 0;
  double logical_start = 0.0;  // DES virtual time when the span opened/closed
  double logical_end = 0.0;
  std::uint32_t tid = 0;       // small per-thread ordinal, not the OS tid
};

/// Spans a tracer holds at most: the newest ones are kept.
inline constexpr std::size_t kTraceCapacity = std::size_t{1} << 16;

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The process-wide tracer all Spans report to.
  static Tracer& global();

  void enable(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Publishes the simulator's virtual clock; spans opened/closed after
  /// this call carry it as their logical start/end time.
  void set_logical_time(double t) noexcept {
    logical_time_.store(t, std::memory_order_relaxed);
  }
  [[nodiscard]] double logical_time() const noexcept {
    return logical_time_.load(std::memory_order_relaxed);
  }

  /// Copies out the held spans, oldest commit first (start-time order
  /// not guaranteed).
  [[nodiscard]] std::vector<SpanRecord> records() const;
  /// Spans held: at most kTraceCapacity.
  [[nodiscard]] std::size_t span_count() const;

  /// Drops held spans and restarts the epoch; enable state persists.
  void clear();

  /// Chrome trace_event JSON ({"traceEvents":[...]}): load the file in
  /// chrome://tracing or https://ui.perfetto.dev.
  [[nodiscard]] std::string to_chrome_trace() const;

  // --- Span internals (public for the Span type only). ---
  void commit(SpanRecord record);
  [[nodiscard]] std::uint64_t next_id() noexcept {
    return id_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  [[nodiscard]] std::uint64_t epoch_ns() const noexcept { return epoch_ns_; }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<double> logical_time_{0.0};
  std::atomic<std::uint64_t> id_counter_{0};
  std::uint64_t epoch_ns_ = 0;
  mutable std::mutex mu_;
  /// A ring once full: records_[oldest_] is the oldest held span.
  std::vector<SpanRecord> records_;
  std::size_t oldest_ = 0;
};

/// Shorthand for Tracer::global().
[[nodiscard]] Tracer& tracer();

/// RAII span against the global tracer. Construction opens it (if
/// tracing is enabled), destruction commits it.
class Span {
 public:
  explicit Span(const char* name, const char* category = "");
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a free-form annotation, exported as args.detail. No-op on
  /// an inactive span, so callers may build the string conditionally:
  /// `if (span.active()) span.set_detail(...)`.
  void set_detail(std::string detail);
  /// Commits the span now instead of at scope exit (phase boundaries
  /// inside one function). Idempotent; the destructor then no-ops.
  void end();
  [[nodiscard]] bool active() const noexcept { return active_; }
  [[nodiscard]] std::uint64_t id() const noexcept { return record_.id; }

 private:
  bool active_ = false;
  SpanRecord record_;
};

}  // namespace selfheal::obs
