// Storage recovery scalability: wall-clock cost of the durability layer
// as the fleet grows -- checkpointing a full session snapshot, streaming
// recovery commits into the WAL, scanning the WAL back, and rebuilding
// the session from snapshot + replay. The durability layer must never
// become the reason self-healing is slow: recovery from media should
// track the cost of re-reading the state it protects, not blow past it.
//
// Three tables:
//   * recovery_sweep -- per fleet size: snapshot / WAL append / WAL
//     scan / full recover() wall-clock, plus WAL record+byte volume and
//     the losslessness verdict (pristine media must always recover
//     byte-identically; a "no" here is a correctness bug, not noise).
//   * submit_sweep -- the durable write path: a clean trace of 256, 1024
//     and 4096 submissions through a durable service::TenantWorld (one
//     WAL record per submit, snapshots by the checkpoint policy). Per
//     submit cost (fastest of 5 repetitions) and media bytes per
//     submission must stay flat as history grows; so must the restart
//     cost per log entry, timed on the same worlds: recover() from the
//     final media, and load_session of the world's save_session text
//     (fastest of 5 each). perf_compare.py gates all four at 4096
//     against 256.
//   * history_sweep -- the tenant request path as history grows: a storm
//     trace and a clean one through one TenantWorld, volatile and
//     durable, at 500, 2000 and 8000 submissions, driven like the
//     drive-once oracle (heal to NORMAL, then apply the next request).
//     Requests (apply) and recovery steps (apply_step) are timed apart,
//     as us per submission (fastest of 5 samples of 8000 submissions
//     each), with the slowest single request. perf_compare.py gates
//     recovery-step cost at 8000 against 500 on both storms and reports
//     the request ratio.
//   * crc_throughput -- raw CRC32C bandwidth over growing buffers; the
//     checksum is on every WAL append and snapshot write, so this bounds
//     the framing overhead.
//
// Supports --json-out FILE (writes the BENCH_storage.json trajectory
// artifact; schema documented in README "Perf baselines"), --big (adds
// the 1024-workflow point), --metrics-out/--trace-out/--metrics-summary.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "selfheal/engine/durable_session.hpp"
#include "selfheal/engine/session_io.hpp"
#include "selfheal/obs/artifacts.hpp"
#include "selfheal/recovery/analyzer.hpp"
#include "selfheal/recovery/scheduler.hpp"
#include "selfheal/service/loadgen.hpp"
#include "selfheal/service/world.hpp"
#include "selfheal/sim/workload.hpp"
#include "selfheal/storage/crc32c.hpp"
#include "selfheal/storage/wal.hpp"
#include "selfheal/util/fsio.hpp"
#include "selfheal/util/table.hpp"

using namespace selfheal;

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   start)
      .count();
}

struct RecoveryRow {
  std::size_t workflows = 0;
  std::size_t log_entries = 0;
  std::size_t wal_records = 0;
  std::size_t wal_bytes = 0;
  double checkpoint_ms = 0;
  double append_ms = 0;
  double scan_ms = 0;
  double recover_ms = 0;
  bool lossless = false;
};

struct SubmitRow {
  std::size_t submissions = 0;
  double us_per_submit = 0;  // fastest of kSubmitReps
  double media_bytes_per_submission = 0;
  std::size_t generations = 0;
  std::size_t log_entries = 0;
  double recover_us_per_entry = 0;       // fastest of kSubmitReps
  double load_session_us_per_entry = 0;  // fastest of kSubmitReps
};

struct HistoryRow {
  const char* trace = "storm";  // "storm" or "clean"
  bool durable = false;
  std::size_t submissions = 0;
  std::size_t log_entries = 0;
  std::size_t scans = 0;
  double request_us_per_submission = 0;  // fastest of kSubmitReps
  double step_us_per_submission = 0;     // fastest of kSubmitReps
  double max_request_us = 0;  // slowest single request, fastest of kSubmitReps
};

struct CrcRow {
  std::size_t bytes = 0;
  std::size_t reps = 0;
  double ms = 0;
  double mb_per_s = 0;
};

const char* json_bool(bool b) { return b ? "true" : "false"; }

constexpr int kSubmitReps = 5;

/// A clean storm trace of `submissions` through a durable TenantWorld.
SubmitRow measure_submits(std::size_t submissions) {
  service::StormConfig storm;
  storm.submissions = submissions;
  storm.attack_p_quiet = 0.0;
  storm.attack_p_burst = 0.0;
  const auto trace = service::make_tenant_trace(storm, 0);
  SubmitRow row;
  row.submissions = submissions;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double best_ms = kInf;
  double best_recover_ms = kInf;
  double best_load_ms = kInf;
  for (int rep = 0; rep < kSubmitReps; ++rep) {
    service::TenantWorld world{service::TenantConfig{}};
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& timed : trace) world.apply(timed.request);
    best_ms = std::min(best_ms, ms_since(t0));
    const auto& store = *world.durable();
    std::size_t media = store.wal().size();
    for (const auto& blob : store.snapshots().blobs()) media += blob.size();
    row.media_bytes_per_submission =
        static_cast<double>(media) / static_cast<double>(submissions);
    row.generations = store.snapshots().size();
    row.log_entries = world.engine().log().size();

    // Restart: the media back into a session, and the session text alone.
    engine::RecoveryReport report;
    const auto t1 = std::chrono::steady_clock::now();
    (void)store.recover(report);
    best_recover_ms = std::min(best_recover_ms, ms_since(t1));
    if (!report.clean()) std::printf("!! pristine media: %s\n", report.summary().c_str());
    std::ostringstream text;
    engine::save_session(world.engine(), text);
    const auto session = text.str();
    const auto t2 = std::chrono::steady_clock::now();
    (void)engine::load_session(session);
    best_load_ms = std::min(best_load_ms, ms_since(t2));
  }
  const auto entries = static_cast<double>(row.log_entries);
  row.us_per_submit = best_ms * 1000.0 / static_cast<double>(submissions);
  row.recover_us_per_entry = best_recover_ms * 1000.0 / entries;
  row.load_session_us_per_entry = best_load_ms * 1000.0 / entries;
  return row;
}

/// One tenant's history at each of `sizes`: a storm or a clean trace
/// through one TenantWorld, requests and recovery steps timed apart.
/// Each repetition runs every size, so a slow phase of the machine
/// weighs on all sizes alike, and every sample covers as many
/// submissions as the largest size (16 worlds of 500, 4 of 2000, one of
/// 8000), so a short sample is not a luckier draw than a long one.
std::vector<HistoryRow> measure_history(bool storm, bool durable,
                                        const std::vector<std::size_t>& sizes) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<service::TimedRequest>> traces;
  std::vector<HistoryRow> rows(sizes.size());
  std::vector<double> best_request_ms(sizes.size(), kInf);
  std::vector<double> best_step_ms(sizes.size(), kInf);
  std::vector<double> best_slowest_ms(sizes.size(), kInf);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    service::StormConfig config;
    config.submissions = sizes[i];
    if (!storm) {
      config.attack_p_quiet = 0.0;
      config.attack_p_burst = 0.0;
    }
    traces.push_back(service::make_tenant_trace(config, 0));
    rows[i].trace = storm ? "storm" : "clean";
    rows[i].durable = durable;
    rows[i].submissions = sizes[i];
  }
  const std::size_t largest = *std::max_element(sizes.begin(), sizes.end());
  for (int rep = 0; rep < kSubmitReps; ++rep) {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      double request_ms = 0;
      double step_ms = 0;
      double slowest_ms = 0;
      for (std::size_t w = 0; w < largest / sizes[i]; ++w) {
        service::TenantConfig tenant;
        tenant.durable = durable;
        service::TenantWorld world{tenant};
        const auto heal = [&] {
          while (!world.normal()) {
            const auto t0 = std::chrono::steady_clock::now();
            world.apply_step();
            step_ms += ms_since(t0);
          }
        };
        for (const auto& timed : traces[i]) {
          heal();
          const auto t0 = std::chrono::steady_clock::now();
          world.apply(timed.request);
          const double ms = ms_since(t0);
          request_ms += ms;
          slowest_ms = std::max(slowest_ms, ms);
        }
        heal();
        rows[i].log_entries = world.engine().log().size();
        rows[i].scans = world.stats().scans;
      }
      best_request_ms[i] = std::min(best_request_ms[i], request_ms);
      best_step_ms[i] = std::min(best_step_ms[i], step_ms);
      best_slowest_ms[i] = std::min(best_slowest_ms[i], slowest_ms);
    }
  }
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const auto n = static_cast<double>(largest / sizes[i] * sizes[i]);
    rows[i].request_us_per_submission = best_request_ms[i] * 1000.0 / n;
    rows[i].step_us_per_submission = best_step_ms[i] * 1000.0 / n;
    rows[i].max_request_us = best_slowest_ms[i] * 1000.0;
  }
  return rows;
}

void write_json(const std::string& path, const std::vector<RecoveryRow>& sweep,
                const std::vector<SubmitRow>& submits,
                const std::vector<HistoryRow>& history,
                const std::vector<CrcRow>& crc) {
  std::string out;
  out += "{\n  \"bench\": \"storage_recovery\",\n  \"schema_version\": 4,\n";
  out += "  \"recovery_sweep\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const auto& r = sweep[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"workflows\": %zu, \"log_entries\": %zu, "
                  "\"wal_records\": %zu, \"wal_bytes\": %zu, "
                  "\"checkpoint_ms\": %g, \"append_ms\": %g, "
                  "\"scan_ms\": %g, \"recover_ms\": %g, \"lossless\": %s}%s\n",
                  r.workflows, r.log_entries, r.wal_records, r.wal_bytes,
                  r.checkpoint_ms, r.append_ms, r.scan_ms, r.recover_ms,
                  json_bool(r.lossless), i + 1 < sweep.size() ? "," : "");
    out += buf;
  }
  out += "  ],\n  \"submit_sweep\": [\n";
  for (std::size_t i = 0; i < submits.size(); ++i) {
    const auto& r = submits[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"submissions\": %zu, \"us_per_submit\": %g, "
                  "\"media_bytes_per_submission\": %g, \"generations\": %zu, "
                  "\"log_entries\": %zu, \"recover_us_per_entry\": %g, "
                  "\"load_session_us_per_entry\": %g}%s\n",
                  r.submissions, r.us_per_submit, r.media_bytes_per_submission,
                  r.generations, r.log_entries, r.recover_us_per_entry,
                  r.load_session_us_per_entry, i + 1 < submits.size() ? "," : "");
    out += buf;
  }
  out += "  ],\n  \"history_sweep\": [\n";
  for (std::size_t i = 0; i < history.size(); ++i) {
    const auto& r = history[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"trace\": \"%s\", \"durable\": %s, \"submissions\": %zu, "
                  "\"log_entries\": %zu, \"scans\": %zu, "
                  "\"request_us_per_submission\": %g, "
                  "\"step_us_per_submission\": %g, \"max_request_us\": %g}%s\n",
                  r.trace, json_bool(r.durable), r.submissions, r.log_entries, r.scans,
                  r.request_us_per_submission, r.step_us_per_submission,
                  r.max_request_us, i + 1 < history.size() ? "," : "");
    out += buf;
  }
  out += "  ],\n  \"crc_throughput\": [\n";
  for (std::size_t i = 0; i < crc.size(); ++i) {
    const auto& r = crc[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"bytes\": %zu, \"reps\": %zu, \"ms\": %g, "
                  "\"mb_per_s\": %g}%s\n",
                  r.bytes, r.reps, r.ms, r.mb_per_s,
                  i + 1 < crc.size() ? "," : "");
    out += buf;
  }
  out += "  ]\n}\n";
  // Like every durable artifact here: temp + fsync + rename, never a
  // half-written baseline.
  util::write_file_atomic(path, out);
}

}  // namespace

int run(const util::Flags& flags) {
  obs::init_from_flags(flags);
  const bool big = flags.get_bool("big", false);
  const auto json_out = flags.get("json-out", "");
  flags.done();

  std::vector<std::size_t> fleet_sizes{4, 16, 64, 256};
  if (big) fleet_sizes.push_back(1024);

  std::printf("Storage recovery (snapshot + WAL replay, growing fleet)\n\n");
  std::vector<RecoveryRow> sweep_rows;
  util::Table sweep({"workflows", "log entries", "wal records", "wal KiB",
                     "snapshot ms", "append ms", "scan ms", "recover ms",
                     "lossless"});
  sweep.set_precision(3);
  for (const std::size_t workflows : fleet_sizes) {
    auto scenario = sim::make_attack_scenario(0xabc, workflows, 1);
    auto& eng = *scenario.engine;

    engine::DurableSessionStore store;
    auto t0 = std::chrono::steady_clock::now();
    store.snapshot(eng);
    const double checkpoint_ms = ms_since(t0);

    // Stream a full self-healing pass (undo + redo commits) into the
    // WAL -- the store's steady-state write load.
    eng.set_durability_observer(&store);
    recovery::RecoveryScheduler scheduler(eng);
    scheduler.execute(recovery::RecoveryAnalyzer(eng).analyze(scenario.malicious));
    eng.set_durability_observer(nullptr);

    t0 = std::chrono::steady_clock::now();
    auto scan = storage::scan_wal(store.wal());
    const double scan_ms = ms_since(t0);

    // Re-frame the scanned records onto a fresh header: isolates the
    // append path (length + CRC32C framing) from the engine work that
    // produced the payloads.
    t0 = std::chrono::steady_clock::now();
    std::string refit = storage::wal_header();
    for (const auto& rec : scan.records) {
      storage::wal_append(refit, rec.type, rec.payload);
    }
    const double append_ms = ms_since(t0);

    engine::RecoveryReport report;
    t0 = std::chrono::steady_clock::now();
    const auto recovered = store.recover(report);
    const double recover_ms = ms_since(t0);
    const bool lossless = report.lossless() && recovered.engine != nullptr;

    sweep.add(workflows, eng.log().size(), scan.records.size(),
              static_cast<double>(store.wal().size()) / 1024.0, checkpoint_ms,
              append_ms, scan_ms, recover_ms, lossless ? "yes" : "NO");
    sweep_rows.push_back({workflows, eng.log().size(), scan.records.size(),
                          store.wal().size(), checkpoint_ms, append_ms, scan_ms,
                          recover_ms, lossless});
    if (!lossless) std::printf("!! pristine media recovered lossy\n");
  }
  std::printf("%s", sweep.render().c_str());

  std::printf("\nDurable submits (clean trace through a durable TenantWorld, "
              "fastest of %d)\n\n", kSubmitReps);
  std::vector<SubmitRow> submit_rows;
  util::Table submit_table({"submissions", "us/submit", "media B/submission",
                            "generations", "log entries", "recover us/entry",
                            "load us/entry"});
  submit_table.set_precision(3);
  for (const std::size_t submissions : {256, 1024, 4096}) {
    const auto row = measure_submits(submissions);
    submit_table.add(row.submissions, row.us_per_submit,
                     row.media_bytes_per_submission, row.generations,
                     row.log_entries, row.recover_us_per_entry,
                     row.load_session_us_per_entry);
    submit_rows.push_back(row);
  }
  std::printf("%s", submit_table.render().c_str());

  std::printf("\nTenant history (storm and clean traces through one TenantWorld, "
              "requests and recovery steps timed apart, fastest of %d)\n\n",
              kSubmitReps);
  std::vector<HistoryRow> history_rows;
  util::Table history_table({"trace", "durable", "submissions", "log entries", "scans",
                             "request us/sub", "step us/sub", "slowest request us"});
  history_table.set_precision(3);
  for (const bool storm : {true, false}) {
    for (const bool durable : {false, true}) {
      for (const auto& row : measure_history(storm, durable, {500, 2000, 8000})) {
        history_table.add(row.trace, row.durable ? "yes" : "no", row.submissions,
                          row.log_entries, row.scans, row.request_us_per_submission,
                          row.step_us_per_submission, row.max_request_us);
        history_rows.push_back(row);
      }
    }
  }
  std::printf("%s", history_table.render().c_str());

  std::printf("\nCRC32C throughput (slice-by-8, per-record checksum cost)\n\n");
  std::vector<CrcRow> crc_rows;
  util::Table crc_table({"buffer KiB", "reps", "total ms", "MB/s"});
  crc_table.set_precision(3);
  std::vector<std::size_t> buffer_sizes{4u << 10, 64u << 10, 1u << 20};
  if (big) buffer_sizes.push_back(16u << 20);
  for (const std::size_t bytes : buffer_sizes) {
    std::string buf(bytes, '\x5a');
    // ~64 MiB of total traffic per row keeps timings off the clock floor.
    const std::size_t reps = std::max<std::size_t>(1, (64u << 20) / bytes);
    std::uint32_t acc = storage::crc32c_init();
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < reps; ++i) {
      acc = storage::crc32c_update(acc, buf);
    }
    const double ms = ms_since(t0);
    // Fold the accumulator into the buffer so the loop cannot be
    // dead-code-eliminated.
    buf[0] = static_cast<char>(storage::crc32c_finish(acc));
    const double mb = static_cast<double>(bytes) * static_cast<double>(reps) /
                      (1024.0 * 1024.0);
    const double mb_per_s = ms > 0 ? mb / (ms / 1000.0) : 0.0;
    crc_table.add(static_cast<double>(bytes) / 1024.0, reps, ms, mb_per_s);
    crc_rows.push_back({bytes, reps, ms, mb_per_s});
  }
  std::printf("%s", crc_table.render().c_str());

  std::printf("\n# snapshot ms is a full session serialisation + snapshot\n"
              "# framing; recover ms is snapshot decode + WAL replay into a\n"
              "# fresh engine. Both should track log size linearly. append ms\n"
              "# is pure framing (len + CRC32C) and should be far below the\n"
              "# engine work that produces the records. us/submit, media\n"
              "# B/submission and the restart costs per log entry should\n"
              "# stay flat across submission counts, and so should the\n"
              "# history sweep's recovery-step us per submission.\n");

  if (!json_out.empty()) {
    write_json(json_out, sweep_rows, submit_rows, history_rows, crc_rows);
    std::printf("\n# wrote %s\n", json_out.c_str());
  }
  obs::flush_from_flags(flags);
  return 0;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, run); }
