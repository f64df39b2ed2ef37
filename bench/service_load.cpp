// Open-loop load generator for the multi-tenant workflow service.
//
// Drives a ServiceDaemon with N isolated tenants through MMPP attack
// storms (selfheal/service/loadgen.hpp): submissions arrive on a
// virtual-time schedule compressed by --speedup, every attacked
// submission is followed by an IDS alert, and the generator never
// closes the loop -- rejections ("queue_full"/"byte_budget") are
// counted and retried, so admission control is actually exercised.
//
// Per sweep point (tenant count x worker count) the bench reports:
//   * sustained tasks/sec and wall clock;
//   * submit-to-ack latency p50/p99/p999 (accepted submissions);
//   * alert-to-recovered latency p50/p99/p999 (alert submission to the
//     controller's return to NORMAL);
//   * scheduler wake-ups and idle wake-ups (a woken worker that found
//     no tenant to claim) per accepted request;
//   * per-tenant alert-to-plan p50/p99 (the analyzer's streaming slice
//     of heal latency, read from each controller's histogram);
//   * DETERMINISTIC totals -- runs, log entries, scans, recoveries,
//     strict_correct, oracle_identical -- which must be byte-stable
//     across hosts and worker counts; perf_compare.py exact-gates them
//     against the committed BENCH_service.json.
//
// The oracle gate: after drain_all(), every tenant's session + WAL +
// effective store must be byte-identical to the drive-once replay of
// its trace (no daemon, no queues). --oracle-seeds N repeats the
// single-tenant gate across N extra seeds.
//
// Soak mode (--soak-s S, optionally --storage-faults): loops storms for
// S wall seconds, arms seeded media faults, and fails on EITHER silent
// corruption (recover() claims clean media but the recovered session
// differs from the live engine) or starvation (a live tenant's progress
// watermark stalls past --stall-limit-s while it has queued work).
//
// Flags: --json-out FILE (BENCH_service.json schema; README "Perf
// baselines"), --tenants A,B,..., --workers K, --submissions N,
// --speedup X, --seed S, --oracle-seeds N, --soak-s S,
// --storage-faults, --stall-limit-s S, --metrics-out/--trace-out.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "selfheal/engine/session_io.hpp"
#include "selfheal/obs/artifacts.hpp"
#include "selfheal/service/client.hpp"
#include "selfheal/service/daemon.hpp"
#include "selfheal/service/loadgen.hpp"
#include "selfheal/storage/fault_injector.hpp"
#include "selfheal/util/flags.hpp"
#include "selfheal/util/fsio.hpp"
#include "selfheal/util/table.hpp"
#include "selfheal/util/text_reader.hpp"

using namespace selfheal;
using Clock = std::chrono::steady_clock;

namespace {

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double percentile(std::vector<double> sorted_values, double p) {
  if (sorted_values.empty()) return 0.0;
  std::sort(sorted_values.begin(), sorted_values.end());
  const double rank = p * static_cast<double>(sorted_values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted_values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac;
}

struct SweepRow {
  std::size_t tenants = 0;
  std::size_t workers = 0;
  std::size_t submissions = 0;  // per tenant
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  double wall_ms = 0;
  double tasks_per_s = 0;
  double ack_p50_us = 0, ack_p99_us = 0, ack_p999_us = 0;
  double heal_p50_us = 0, heal_p99_us = 0, heal_p999_us = 0;
  double wakeups_per_accept = 0, idle_wakeups_per_accept = 0;
  // Deterministic (exact-gated by perf_compare.py):
  std::uint64_t runs = 0;
  std::uint64_t log_entries = 0;
  std::uint64_t scans = 0;
  std::uint64_t recoveries = 0;
  bool strict_correct = false;
  bool oracle_identical = false;
};

/// Per-tenant alert-to-plan latency, read from that tenant's controller
/// histogram after the drain. Separate from heal_* (alert submission to
/// recovered) above: plan latency is the analyzer's streaming-frontier
/// path alone, so a regression here means the damage-tracking layer
/// slowed down even if recovery execution masks it end to end.
struct PlanRow {
  std::size_t tenants = 0;   // sweep point this row belongs to
  std::size_t workers = 0;
  std::size_t tenant = 0;
  std::uint64_t alerts = 0;  // scans sampled
  double plan_p50_us = 0;
  double plan_p99_us = 0;
  double plan_mean_us = 0;
  double plan_max_us = 0;
};

/// One merged, time-ordered schedule across all tenants.
struct ScheduledEvent {
  double at = 0.0;
  service::TenantId tenant = 0;
  std::size_t index = 0;  // into that tenant's trace
};

std::vector<ScheduledEvent> merge_schedules(
    const std::vector<std::vector<service::TimedRequest>>& traces) {
  std::vector<ScheduledEvent> schedule;
  for (std::size_t t = 0; t < traces.size(); ++t) {
    for (std::size_t i = 0; i < traces[t].size(); ++i) {
      schedule.push_back({traces[t][i].at,
                          static_cast<service::TenantId>(t), i});
    }
  }
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const ScheduledEvent& a, const ScheduledEvent& b) {
                     return a.at < b.at;
                   });
  return schedule;
}

/// Latency reservoirs shared with completion callbacks (worker threads).
struct Reservoirs {
  std::mutex mu;
  std::vector<double> ack_us;
  std::vector<double> heal_us;
};

SweepRow run_storm(std::size_t tenants, std::size_t workers,
                   const service::StormConfig& storm, double speedup,
                   std::vector<PlanRow>& plan_rows) {
  SweepRow row;
  row.tenants = tenants;
  row.workers = workers;
  row.submissions = storm.submissions;

  service::ServiceConfig service_config;
  service_config.workers = workers;
  service::ServiceDaemon daemon(service_config);

  std::vector<std::vector<service::TimedRequest>> traces;
  for (std::size_t t = 0; t < tenants; ++t) {
    service::TenantConfig tenant_config;
    tenant_config.name = "tenant-" + std::to_string(t);
    daemon.add_tenant(tenant_config);
    traces.push_back(service::make_tenant_trace(storm, t));
  }
  const auto schedule = merge_schedules(traces);
  daemon.start();

  auto reservoirs = std::make_shared<Reservoirs>();
  const auto start = Clock::now();
  for (const auto& event : schedule) {
    const auto due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(event.at / speedup));
    std::this_thread::sleep_until(due);
    const auto& request = traces[static_cast<std::size_t>(event.tenant)]
                              [event.index].request;
    const std::string frame = service::encode_frame(request);

    // Open loop with retry-until-accepted: per-tenant FIFO order (and
    // with it every deterministic total below) is preserved because one
    // submitter thread blocks until each event is admitted.
    for (;;) {
      const auto submit_at = Clock::now();
      service::CompletionFn done;
      if (request.kind == service::RequestKind::kAlert) {
        done = [reservoirs, submit_at](const service::Response& response) {
          if (!response.ok) return;
          std::lock_guard<std::mutex> lock(reservoirs->mu);
          reservoirs->heal_us.push_back(us_between(submit_at, Clock::now()));
        };
      }
      const auto ack = daemon.submit(event.tenant, frame, std::move(done));
      if (ack.accepted) {
        std::lock_guard<std::mutex> lock(reservoirs->mu);
        reservoirs->ack_us.push_back(us_between(submit_at, Clock::now()));
        break;
      }
      ++row.rejected;
      if (ack.reason != service::RejectReason::kQueueFull &&
          ack.reason != service::RejectReason::kByteBudget) {
        std::fprintf(stderr, "service_load: fatal rejection '%s'\n",
                     ack.reason_token());
        std::exit(1);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  if (!daemon.drain_all()) {
    std::fprintf(stderr, "service_load: drain_all reported unclean drain\n");
    std::exit(1);
  }
  row.wall_ms = us_between(start, Clock::now()) / 1000.0;
  daemon.stop();

  const auto daemon_stats = daemon.stats();
  row.accepted = daemon_stats.accepted;
  if (row.accepted > 0) {
    const auto accepted = static_cast<double>(row.accepted);
    row.wakeups_per_accept =
        static_cast<double>(daemon_stats.wakeups) / accepted;
    row.idle_wakeups_per_accept =
        static_cast<double>(daemon_stats.idle_wakeups) / accepted;
  }
  row.strict_correct = true;
  row.oracle_identical = true;
  std::uint64_t tasks = 0;
  for (std::size_t t = 0; t < tenants; ++t) {
    auto& tenant = daemon.tenant(static_cast<service::TenantId>(t));
    const auto& stats = tenant.stats();
    tasks += stats.tasks_executed;
    row.runs += stats.runs_started;
    row.scans += stats.recovery_steps;  // placeholder; replaced below
    const auto state = service::capture_tenant_state(tenant);
    row.log_entries += state.log_entries;
    row.strict_correct = row.strict_correct && state.strict_correct;
    const auto oracle = service::run_drive_once_oracle(
        tenant.config(), traces[t]);
    row.oracle_identical =
        row.oracle_identical && state.identical(oracle);
  }
  // scans/recoveries from controller stats (exact), not the placeholder.
  row.scans = 0;
  for (std::size_t t = 0; t < tenants; ++t) {
    const auto& stats =
        daemon.tenant(static_cast<service::TenantId>(t)).world().stats();
    row.scans += stats.scans;
    row.recoveries += stats.recoveries;
    PlanRow plan;
    plan.tenants = tenants;
    plan.workers = workers;
    plan.tenant = t;
    plan.alerts = stats.alert_to_plan_hist.total();
    plan.plan_p50_us = stats.alert_to_plan_hist.quantile(0.50);
    plan.plan_p99_us = stats.alert_to_plan_hist.quantile(0.99);
    plan.plan_mean_us = stats.alert_to_plan_us.mean();
    plan.plan_max_us = stats.alert_to_plan_us.max();
    plan_rows.push_back(plan);
  }
  row.tasks_per_s =
      row.wall_ms > 0 ? static_cast<double>(tasks) / (row.wall_ms / 1000.0)
                      : 0.0;

  {
    std::lock_guard<std::mutex> lock(reservoirs->mu);
    row.ack_p50_us = percentile(reservoirs->ack_us, 0.50);
    row.ack_p99_us = percentile(reservoirs->ack_us, 0.99);
    row.ack_p999_us = percentile(reservoirs->ack_us, 0.999);
    row.heal_p50_us = percentile(reservoirs->heal_us, 0.50);
    row.heal_p99_us = percentile(reservoirs->heal_us, 0.99);
    row.heal_p999_us = percentile(reservoirs->heal_us, 0.999);
  }
  return row;
}

const char* json_bool(bool b) { return b ? "true" : "false"; }

void write_json(const std::string& path, const std::vector<SweepRow>& sweep,
                const std::vector<PlanRow>& plans) {
  std::string out;
  out += "{\n  \"bench\": \"service_load\",\n  \"schema_version\": 2,\n";
  out += "  \"tenant_sweep\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const auto& r = sweep[i];
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"tenants\": %zu, \"workers\": %zu, \"submissions\": %zu, "
        "\"accepted\": %llu, \"rejected\": %llu, \"wall_ms\": %g, "
        "\"tasks_per_s\": %g, "
        "\"ack_p50_us\": %g, \"ack_p99_us\": %g, \"ack_p999_us\": %g, "
        "\"heal_p50_us\": %g, \"heal_p99_us\": %g, \"heal_p999_us\": %g, "
        "\"runs\": %llu, \"log_entries\": %llu, \"scans\": %llu, "
        "\"recoveries\": %llu, \"strict_correct\": %s, "
        "\"oracle_identical\": %s}%s\n",
        r.tenants, r.workers, r.submissions,
        static_cast<unsigned long long>(r.accepted),
        static_cast<unsigned long long>(r.rejected), r.wall_ms, r.tasks_per_s,
        r.ack_p50_us, r.ack_p99_us, r.ack_p999_us, r.heal_p50_us,
        r.heal_p99_us, r.heal_p999_us,
        static_cast<unsigned long long>(r.runs),
        static_cast<unsigned long long>(r.log_entries),
        static_cast<unsigned long long>(r.scans),
        static_cast<unsigned long long>(r.recoveries),
        json_bool(r.strict_correct), json_bool(r.oracle_identical),
        i + 1 < sweep.size() ? "," : "");
    out += buf;
  }
  out += "  ],\n  \"alert_to_plan_per_tenant\": [\n";
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const auto& r = plans[i];
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"tenants\": %zu, \"workers\": %zu, \"tenant\": %zu, "
        "\"alerts\": %llu, \"plan_p50_us\": %g, \"plan_p99_us\": %g, "
        "\"plan_mean_us\": %g, \"plan_max_us\": %g}%s\n",
        r.tenants, r.workers, r.tenant,
        static_cast<unsigned long long>(r.alerts), r.plan_p50_us,
        r.plan_p99_us, r.plan_mean_us, r.plan_max_us,
        i + 1 < plans.size() ? "," : "");
    out += buf;
  }
  out += "  ]\n}\n";
  util::write_file_atomic(path, out);
}

/// Extra byte-identity sweep: single tenant, many seeds, two worker
/// counts (inline and threaded). Returns the number of failures.
std::size_t oracle_seed_sweep(std::size_t seeds, std::size_t submissions) {
  std::size_t failures = 0;
  for (std::size_t seed = 1; seed <= seeds; ++seed) {
    service::StormConfig storm;
    storm.seed = seed;
    storm.submissions = submissions;
    const auto trace = service::make_tenant_trace(storm, 0);
    service::TenantConfig tenant_config;
    const auto oracle = service::run_drive_once_oracle(tenant_config, trace);
    for (const std::size_t workers : {std::size_t{0}, std::size_t{2}}) {
      service::ServiceConfig config;
      config.workers = workers;
      service::ServiceDaemon daemon(config);
      const auto id = daemon.add_tenant(tenant_config);
      daemon.start();
      service::ServiceClient client(daemon, id);
      for (const auto& timed : trace) {
        const auto response = client.call(timed.request);
        if (!response.ok) {
          std::fprintf(stderr, "seed %zu: request failed: %s\n", seed,
                       response.error.c_str());
          ++failures;
        }
      }
      daemon.drain_all();
      daemon.stop();
      const auto state =
          service::capture_tenant_state(daemon.tenant(id));
      if (!state.identical(oracle) || !state.strict_correct) {
        std::fprintf(stderr,
                     "seed %zu workers %zu: NOT byte-identical to oracle "
                     "(session %s, wal %s, store %s, strict %s)\n",
                     seed, workers,
                     json_bool(state.session == oracle.session),
                     json_bool(state.wal == oracle.wal),
                     json_bool(state.store == oracle.store),
                     json_bool(state.strict_correct));
        ++failures;
      }
    }
  }
  return failures;
}

/// Soak: loop storms until the wall deadline; gate on never-silent
/// durability and per-tenant progress. Returns the number of failures.
std::size_t run_soak(double soak_s, std::size_t tenants, bool storage_faults,
                     double stall_limit_s, std::uint64_t seed,
                     std::size_t workers) {
  std::size_t failures = 0;
  service::ServiceConfig service_config;
  service_config.workers = workers;
  service::ServiceDaemon daemon(service_config);

  std::vector<std::unique_ptr<storage::StorageFaultInjector>> injectors;
  for (std::size_t t = 0; t < tenants; ++t) {
    service::TenantConfig tenant_config;
    tenant_config.name = "soak-" + std::to_string(t);
    tenant_config.weight = static_cast<std::uint32_t>(1 + (t % 3));
    const auto id = daemon.add_tenant(tenant_config);
    if (storage_faults) {
      // Armed AFTER the birth checkpoint, so generation 1 is always
      // pristine: later per-submit snapshots and WAL appends take the
      // damage, and recovery can always fall back -- detected loss is
      // legal here, only SILENT corruption fails the soak.
      storage::StorageFaultConfig fault_config;
      fault_config.torn_write_rate = 0.002;
      fault_config.bit_flip_rate = 0.002;
      fault_config.duplicate_record_rate = 0.002;
      injectors.push_back(std::make_unique<storage::StorageFaultInjector>(
          seed ^ (0x51ab0051ab00ULL + t), fault_config));
      daemon.tenant(id).durable_store()->set_fault_injector(
          injectors.back().get());
    }
  }
  daemon.start();

  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(soak_s));
  std::vector<std::uint64_t> last_watermark(tenants, 0);
  std::vector<Clock::time_point> last_progress(tenants, start);
  std::uint64_t round = 0;
  auto last_heartbeat = start;

  while (Clock::now() < deadline) {
    if (std::chrono::duration<double>(Clock::now() - last_heartbeat).count() >
        15.0) {
      last_heartbeat = Clock::now();
      std::uint64_t total_marks = 0;
      for (std::size_t t = 0; t < tenants; ++t) {
        total_marks += daemon.tenant(static_cast<service::TenantId>(t))
                           .watermark();
      }
      std::fprintf(
          stderr, "soak: %.0fs elapsed, round %llu, %llu steps, %zu failures\n",
          std::chrono::duration<double>(Clock::now() - start).count(),
          static_cast<unsigned long long>(round),
          static_cast<unsigned long long>(total_marks), failures);
    }
    service::StormConfig storm;
    storm.seed = seed + 1000 * ++round;
    storm.submissions = 24;
    std::vector<std::vector<service::TimedRequest>> traces;
    for (std::size_t t = 0; t < tenants; ++t) {
      traces.push_back(service::make_tenant_trace(storm, t));
    }
    const auto schedule = merge_schedules(traces);
    for (const auto& event : schedule) {
      if (Clock::now() >= deadline) break;
      const auto& request = traces[static_cast<std::size_t>(event.tenant)]
                                [event.index].request;
      const std::string frame = service::encode_frame(request);
      for (;;) {
        const auto ack = daemon.submit(event.tenant, frame, nullptr);
        if (ack.accepted ||
            ack.reason == service::RejectReason::kQuarantined) {
          break;
        }
        if (ack.reason != service::RejectReason::kQueueFull &&
            ack.reason != service::RejectReason::kByteBudget) {
          std::fprintf(stderr, "soak: fatal rejection '%s'\n",
                       ack.reason_token());
          return failures + 1;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }

      // Starvation probe: every live tenant with queued work must move
      // its watermark within the stall limit.
      const auto now = Clock::now();
      for (std::size_t t = 0; t < tenants; ++t) {
        auto& tenant = daemon.tenant(static_cast<service::TenantId>(t));
        const auto mark = tenant.watermark();
        if (mark != last_watermark[t] || !tenant.has_work() ||
            tenant.quarantined()) {
          last_watermark[t] = mark;
          last_progress[t] = now;
        } else if (std::chrono::duration<double>(now - last_progress[t])
                       .count() > stall_limit_s) {
          std::fprintf(stderr,
                       "soak: tenant %zu STARVED (watermark %llu stalled "
                       "> %.1fs with queued work)\n",
                       t, static_cast<unsigned long long>(mark),
                       stall_limit_s);
          ++failures;
          last_progress[t] = now;  // report once per stall window
        }
      }
    }
  }

  daemon.drain_all();
  daemon.stop();

  for (std::size_t t = 0; t < tenants; ++t) {
    auto& tenant = daemon.tenant(static_cast<service::TenantId>(t));
    if (tenant.quarantined()) {
      std::fprintf(stderr, "soak: tenant %zu quarantined: %s\n", t,
                   tenant.quarantine_reason().c_str());
      ++failures;
      continue;
    }
    if (tenant.watermark() == 0) {
      std::fprintf(stderr, "soak: tenant %zu made NO progress\n", t);
      ++failures;
    }
    auto* durable = tenant.durable_store();
    if (durable == nullptr) continue;
    // Never-silent gate: recover() must either rebuild the live state
    // exactly or explicitly report damage. A clean report plus a
    // different session is silent corruption -- the one forbidden
    // outcome.
    engine::RecoveryReport report;
    const auto session = durable->recover(report);
    if (report.unrecoverable) {
      std::fprintf(stderr, "soak: tenant %zu media unrecoverable\n", t);
      ++failures;
      continue;
    }
    std::ostringstream live_text, recovered_text;
    engine::save_session(tenant.world().engine(), live_text);
    engine::save_session(*session.engine, recovered_text);
    const bool same = live_text.str() == recovered_text.str();
    if (report.clean() && !same) {
      std::fprintf(stderr,
                   "soak: tenant %zu SILENT CORRUPTION (clean report, "
                   "divergent session)\n",
                   t);
      ++failures;
    }
    if (!report.lossless() && !storage_faults) {
      std::fprintf(stderr, "soak: tenant %zu lost updates without faults\n",
                   t);
      ++failures;
    }
  }
  return failures;
}

}  // namespace

int run(const util::Flags& flags) {
  obs::init_from_flags(flags);

  const std::uint64_t seed = flags.get_count("seed", 1);
  const auto workers = flags.get_count("workers", 2);
  const auto submissions = flags.get_count("submissions", 48);
  const double speedup = flags.get_double("speedup", 25.0);
  const double soak_s = flags.get_double("soak-s", 0.0);

  if (soak_s > 0.0) {
    const auto tenants = flags.get_count("tenants", 3);
    const bool storage_faults = flags.get_bool("storage-faults", false);
    const double stall_limit = flags.get_double("stall-limit-s", 60.0);
    flags.done();
    const auto failures =
        run_soak(soak_s, tenants, storage_faults, stall_limit, seed, workers);
    obs::flush_from_flags(flags);
    std::printf("soak: %s (%zu failures)\n",
                failures == 0 ? "PASS" : "FAIL", failures);
    return failures == 0 ? 0 : 1;
  }

  std::vector<std::size_t> tenant_counts{1, 3};
  {
    const std::string list = flags.get("tenants", "");
    if (!list.empty()) {
      tenant_counts.clear();
      std::size_t pos = 0;
      while (pos < list.size()) {
        const auto comma = list.find(',', pos);
        const auto count = util::parse_int<std::size_t>(
            std::string_view(list).substr(pos, comma - pos));
        if (!count) throw std::invalid_argument("--tenants: bad count list '" + list + "'");
        tenant_counts.push_back(*count);
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    }
  }
  const auto oracle_seeds = flags.get_count("oracle-seeds", 0);
  const std::string json_out = flags.get("json-out", "");
  flags.done();

  service::StormConfig storm;
  storm.seed = seed;
  storm.submissions = submissions;
  storm.burst.lambda_quiet = 2.0;
  storm.burst.lambda_burst = 24.0;
  storm.burst.quiet_to_burst = 0.15;
  storm.burst.burst_to_quiet = 1.0;

  std::printf("Service load (open loop, MMPP attack storms)\n\n");
  std::vector<SweepRow> sweep;
  std::vector<PlanRow> plan_rows;
  util::Table table({"tenants", "workers", "accepted", "rejected", "wall ms",
                     "tasks/s", "ack p99 us", "heal p99 us", "wakeups/acc",
                     "idle/acc", "runs", "log entries", "strict", "oracle"});
  table.set_precision(2);
  for (const auto tenants : tenant_counts) {
    const auto row = run_storm(tenants, workers, storm, speedup, plan_rows);
    table.add(row.tenants, row.workers, std::size_t{row.accepted},
              std::size_t{row.rejected}, row.wall_ms, row.tasks_per_s,
              row.ack_p99_us, row.heal_p99_us, row.wakeups_per_accept,
              row.idle_wakeups_per_accept, std::size_t{row.runs},
              std::size_t{row.log_entries},
              row.strict_correct ? "yes" : "NO",
              row.oracle_identical ? "yes" : "NO");
    sweep.push_back(row);
  }
  std::printf("%s\n", table.render().c_str());

  // Alert-to-plan is the analyzer's slice of heal latency: how long from
  // popping an alert to a queued recovery plan, per tenant, through the
  // streaming dependence graph. Contrast with heal p99 above, which also
  // pays undo/replay execution and queueing.
  std::printf("Alert-to-plan latency per tenant (streaming analyzer path)\n\n");
  util::Table plan_table({"tenants", "workers", "tenant", "alerts",
                          "plan p50 us", "plan p99 us", "mean us", "max us"});
  plan_table.set_precision(1);
  for (const auto& r : plan_rows) {
    plan_table.add(r.tenants, r.workers, r.tenant, std::size_t{r.alerts},
                   r.plan_p50_us, r.plan_p99_us, r.plan_mean_us,
                   r.plan_max_us);
  }
  std::printf("%s\n", plan_table.render().c_str());

  std::size_t failures = 0;
  for (const auto& row : sweep) {
    if (!row.strict_correct || !row.oracle_identical) ++failures;
  }

  if (oracle_seeds > 0) {
    failures += oracle_seed_sweep(oracle_seeds, std::min<std::size_t>(
                                                    submissions, 24));
    std::printf("\noracle seed sweep: %zu seeds x {inline, 2 workers}: %s\n",
                oracle_seeds, failures == 0 ? "all byte-identical" : "FAIL");
  }

  if (!json_out.empty()) write_json(json_out, sweep, plan_rows);
  obs::flush_from_flags(flags);
  return failures == 0 ? 0 : 1;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, run); }
