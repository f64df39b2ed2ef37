#include "selfheal/obs/artifacts.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "selfheal/util/fsio.hpp"

namespace selfheal::obs {

namespace {

const char* kind_name(MetricSample::Kind kind) {
  switch (kind) {
    case MetricSample::Kind::kCounter: return "counter";
    case MetricSample::Kind::kGauge: return "gauge";
    case MetricSample::Kind::kHistogram: return "histogram";
    case MetricSample::Kind::kStats: return "stats";
  }
  return "?";
}

/// Metric names are library-chosen identifiers, but escape the two
/// characters that could break the line format anyway.
std::string escape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (const char c : in) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void write_file(const std::string& path, const std::string& content) {
  // Metrics/trace artifacts are read by CI and dashboards: a crash
  // mid-flush must leave the previous complete artifact, not a torn one.
  util::write_file_atomic(path, content);
}

}  // namespace

std::string to_jsonl(const std::vector<MetricSample>& snapshot) {
  std::ostringstream out;
  for (const auto& s : snapshot) {
    out << "{\"type\":\"" << kind_name(s.kind) << "\",\"name\":\""
        << escape(s.name) << "\"";
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        out << ",\"value\":" << s.count;
        break;
      case MetricSample::Kind::kGauge:
        out << ",\"value\":" << s.value;
        break;
      case MetricSample::Kind::kHistogram: {
        out << ",\"count\":" << s.count << ",\"lo\":" << s.lo
            << ",\"hi\":" << s.hi << ",\"underflow\":" << s.underflow
            << ",\"overflow\":" << s.overflow << ",\"p50\":" << s.value
            << ",\"buckets\":[";
        for (std::size_t i = 0; i < s.buckets.size(); ++i) {
          if (i) out << ",";
          out << s.buckets[i];
        }
        out << "]";
        break;
      }
      case MetricSample::Kind::kStats:
        out << ",\"count\":" << s.count << ",\"mean\":" << s.value
            << ",\"min\":" << s.min << ",\"max\":" << s.max
            << ",\"sum\":" << s.sum << ",\"stddev\":" << s.stddev;
        break;
    }
    out << "}\n";
  }
  return out.str();
}

void write_metrics_jsonl(const Registry& registry, const std::string& path) {
  write_file(path, to_jsonl(registry.snapshot()));
}

void write_chrome_trace(const Tracer& tracer, const std::string& path) {
  write_file(path, tracer.to_chrome_trace());
}

util::Table summary_table(const Registry& registry) {
  util::Table table({"metric", "type", "count", "value"});
  table.set_precision(4);
  for (const auto& s : registry.snapshot()) {
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        table.add(s.name, "counter", s.count, static_cast<double>(s.count));
        break;
      case MetricSample::Kind::kGauge:
        table.add(s.name, "gauge", std::size_t{1}, s.value);
        break;
      case MetricSample::Kind::kHistogram:
        table.add(s.name, "histogram", s.count, s.value);  // value = p50
        break;
      case MetricSample::Kind::kStats:
        table.add(s.name, "stats", s.count, s.value);  // value = mean
        break;
    }
  }
  return table;
}

void init_from_flags(const util::Flags& flags) {
  if (flags.has("trace-out")) tracer().enable(true);
  // Read the other obs flags now too: Flags::done() runs before the run,
  // and flush_from_flags() reads them only after it.
  (void)flags.has("metrics-out");
  (void)flags.get_bool("metrics-summary", false);
}

void flush_from_flags(const util::Flags& flags) {
  // Each artifact gets its own try: a failed metrics write must not
  // suppress the trace write (and vice versa).
  if (flags.has("metrics-out")) {
    try {
      write_metrics_jsonl(metrics(), flags.get("metrics-out", "metrics.jsonl"));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "obs: %s\n", e.what());
    }
  }
  if (flags.has("trace-out")) {
    try {
      write_chrome_trace(tracer(), flags.get("trace-out", "trace.json"));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "obs: %s\n", e.what());
    }
  }
  if (flags.get_bool("metrics-summary", false)) {
    std::printf("%s", summary_table(metrics()).render().c_str());
  }
}

}  // namespace selfheal::obs
