// Machine-readable run artifacts: JSONL metric snapshots, Chrome trace
// files, and a human summary table -- the uniform "--metrics-out /
// --trace-out" story every bench and example shares.
//
// JSONL format: one JSON object per line, one line per metric.
//   {"type":"counter","name":"recovery.undo_tasks","value":12}
//   {"type":"gauge","name":"scheduler.blocked_time","value":3.25}
//   {"type":"stats","name":"analyzer.analyze_ms","count":4,"mean":0.81,...}
//   {"type":"histogram","name":"...","count":9,"lo":0,"hi":64,
//    "underflow":0,"overflow":1,"buckets":[...],"p50":12.0}
#pragma once

#include <string>
#include <vector>

#include "selfheal/obs/metrics.hpp"
#include "selfheal/obs/trace.hpp"
#include "selfheal/util/flags.hpp"
#include "selfheal/util/table.hpp"

namespace selfheal::obs {

/// Renders a snapshot as JSONL (one metric per line, name-sorted).
[[nodiscard]] std::string to_jsonl(const std::vector<MetricSample>& snapshot);

/// Writes the registry's current snapshot to `path`; throws
/// std::runtime_error if the file cannot be written.
void write_metrics_jsonl(const Registry& registry, const std::string& path);

/// Writes the tracer's spans as Chrome trace_event JSON to `path`.
void write_chrome_trace(const Tracer& tracer, const std::string& path);

/// Summary rows (name / type / count / value) via util::Table.
[[nodiscard]] util::Table summary_table(const Registry& registry);

/// CLI wiring for benches and examples:
///   init_from_flags  -- call first; enables tracing iff --trace-out is
///                       present (metrics are always on), and reads every
///                       obs flag, so Flags::done() accepts them.
///   flush_from_flags -- call last; writes --metrics-out (JSONL) and
///                       --trace-out (Chrome trace) if given, and prints
///                       the summary table when --metrics-summary is
///                       set. Errors are reported on stderr, not thrown.
void init_from_flags(const util::Flags& flags);
void flush_from_flags(const util::Flags& flags);

}  // namespace selfheal::obs
