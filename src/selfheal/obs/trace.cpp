#include "selfheal/obs/trace.hpp"

#include <cstdio>
#include <sstream>

#include "selfheal/obs/metrics.hpp"

namespace selfheal::obs {

namespace {

/// Per-thread span stack (ids only) and a small stable thread ordinal
/// for the exported tid field.
struct ThreadTraceState {
  std::vector<std::uint64_t> stack;
  std::uint32_t tid = 0;
};

std::atomic<std::uint32_t> g_tid_counter{0};

ThreadTraceState& thread_state() {
  thread_local ThreadTraceState state{
      {}, g_tid_counter.fetch_add(1, std::memory_order_relaxed) + 1};
  return state;
}

void escape_json(const std::string& in, std::ostringstream& out) {
  for (const char c : in) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      case '\r': out << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
}

}  // namespace

Tracer::Tracer() : epoch_ns_(monotonic_ns()) {}

Tracer& Tracer::global() {
  static Tracer instance;
  return instance;
}

Tracer& tracer() { return Tracer::global(); }

std::vector<SpanRecord> Tracer::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out;
  out.reserve(records_.size());
  const auto oldest = records_.begin() + static_cast<std::ptrdiff_t>(oldest_);
  out.insert(out.end(), oldest, records_.end());
  out.insert(out.end(), records_.begin(), oldest);
  return out;
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
  oldest_ = 0;
  epoch_ns_ = monotonic_ns();
}

void Tracer::commit(SpanRecord record) {
  static Counter& dropped = metrics().counter("obs.trace.dropped");
  std::lock_guard<std::mutex> lock(mu_);
  if (records_.size() < kTraceCapacity) {
    records_.push_back(std::move(record));
    return;
  }
  records_[oldest_] = std::move(record);
  oldest_ = (oldest_ + 1) % kTraceCapacity;
  dropped.inc();
}

std::string Tracer::to_chrome_trace() const {
  const auto spans = records();
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& s : spans) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"";
    escape_json(s.name, out);
    out << "\",\"cat\":\"";
    escape_json(s.category.empty() ? std::string("selfheal") : s.category, out);
    // ts/dur are microseconds (the trace_event contract).
    out << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
        << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.dur_ns) / 1e3
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"t_logical\":" << s.logical_start
        << ",\"t_logical_end\":" << s.logical_end;
    if (!s.detail.empty()) {
      out << ",\"detail\":\"";
      escape_json(s.detail, out);
      out << "\"";
    }
    out << "}}";
  }
  out << "],\"displayTimeUnit\":\"ms\"}";
  return out.str();
}

Span::Span(const char* name, const char* category) {
  auto& t = Tracer::global();
  if (!t.enabled()) return;
  active_ = true;
  auto& state = thread_state();
  record_.name = name;
  record_.category = category;
  record_.id = t.next_id();
  record_.parent = state.stack.empty() ? 0 : state.stack.back();
  record_.start_ns = monotonic_ns() - t.epoch_ns();
  record_.logical_start = t.logical_time();
  record_.tid = state.tid;
  state.stack.push_back(record_.id);
}

Span::~Span() { end(); }

void Span::end() {
  if (!active_) return;
  active_ = false;
  auto& t = Tracer::global();
  record_.dur_ns = monotonic_ns() - t.epoch_ns() - record_.start_ns;
  record_.logical_end = t.logical_time();
  auto& stack = thread_state().stack;
  // Spans are strictly scoped, so this span is the top of its thread's
  // stack; guard anyway against misuse across clear().
  if (!stack.empty() && stack.back() == record_.id) stack.pop_back();
  t.commit(std::move(record_));
}

void Span::set_detail(std::string detail) {
  if (!active_) return;
  record_.detail = std::move(detail);
}

}  // namespace selfheal::obs
