// Recovery scalability: wall-clock cost of analysis and recovery as the
// system log grows (workflow count sweep) and as the number of
// simultaneous attacks grows. Complements analyzer_microbench with an
// end-to-end table and reports the REUSE ratio -- the fraction of
// committed work recovery did NOT have to redo, which is the paper's
// core advantage over checkpoint rollback (Section I: a checkpoint
// "rolls back the whole workflow system ... all work will be lost").
//
// Two analyze columns per fleet size anchor the perf trajectory:
//   * rebuild ms -- construct the dependence graph from scratch, then
//     analyze (the pre-incremental controller behaviour);
//   * incr ms    -- refresh a long-lived incremental graph (no new
//     entries here, as in a steady-state scan) and analyze; this is the
//     controller's hot path and must scale with damage, not log size.
// The third table appends a FIXED batch of workflows to growing base
// logs: the incremental refresh cost must stay flat while a rebuild
// grows with the untouched history. The final table is the streaming
// tentpole: alert-to-plan p50/p99 through the live taint frontier vs a
// scratch rebuild, swept over the log-ingest rate between alerts.
//
// recover ms times the scheduler on the same synced index (the
// controller's path): it replays only the damage cone, so its cost per
// touched action must stay flat as the fleet grows (perf_compare gates
// 4096 against 256 workflows).
//
// Supports --json-out FILE (writes the BENCH_recovery.json trajectory
// artifact; schema documented in README "Perf baselines"), --big (adds
// the 1024- and 4096-workflow points), --metrics-out/--trace-out/
// --metrics-summary.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "selfheal/obs/artifacts.hpp"
#include "selfheal/obs/metrics.hpp"
#include "selfheal/recovery/analyzer.hpp"
#include "selfheal/recovery/correctness.hpp"
#include "selfheal/recovery/scheduler.hpp"
#include "selfheal/sim/workload.hpp"
#include "selfheal/util/fsio.hpp"
#include "selfheal/util/table.hpp"

using namespace selfheal;

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   start)
      .count();
}

double us_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                   start)
      .count();
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[idx];
}

struct FleetRow {
  std::size_t workflows = 0;
  std::size_t log_entries = 0;
  double rebuild_ms = 0;
  double incr_ms = 0;
  double recover_ms = 0;
  // Scheduler phase split of recover_ms (see RecoveryOutcome): shows
  // whether recovery time goes to the undo cascade, the replay sweep,
  // or the reconcile pass as the fleet grows.
  double undo_ms = 0;
  double replay_ms = 0;
  double reconcile_ms = 0;
  std::size_t touched = 0;
  std::size_t reused = 0;
  double reuse_pct = 0;
  bool strict = false;
  bool plans_equal = false;
};

struct AttackRow {
  std::size_t attacks = 0;
  std::size_t damaged = 0;
  std::size_t undone = 0;
  std::size_t redone = 0;
  double analyze_ms = 0;
  double recover_ms = 0;
  bool strict = false;
};

struct AppendRow {
  std::size_t base_workflows = 0;
  std::size_t base_entries = 0;
  std::size_t delta_entries = 0;
  double rebuild_ms = 0;
  double incr_ms = 0;
  bool edges_equal = false;
};

/// One cell of the alert-to-plan latency sweep: a steady-state storm
/// where every round appends `ingest_runs` clean runs plus one attacked
/// run, then measures alert-to-plan latency twice -- through the
/// long-lived streaming graph (refresh + frontier read) and through a
/// scratch rebuild (the pre-streaming behaviour) -- before healing and
/// moving on. The deterministic columns (frontier sizes, plans_equal,
/// full_rebuilds) are exact-gated by perf_compare; the latency
/// percentiles are host wall clock and only ratio-gated.
struct AlertRow {
  std::size_t workflows = 0;
  std::size_t ingest_runs = 0;
  std::size_t rounds = 0;
  double stream_p50_us = 0;
  double stream_p99_us = 0;
  double rebuild_p50_us = 0;
  double rebuild_p99_us = 0;
  std::size_t frontier_total = 0;
  std::size_t frontier_max = 0;
  /// deps.full_rebuilds delta across the STREAMING refreshes only; the
  /// storm is steady-state, so any fallback rebuild here is a bug.
  std::uint64_t full_rebuilds = 0;
  std::uint64_t tags_propagated = 0;
  std::uint64_t retractions = 0;
  bool plans_equal = false;
};

const char* json_bool(bool b) { return b ? "true" : "false"; }

void write_json(const std::string& path, const std::vector<FleetRow>& fleet,
                const std::vector<AttackRow>& attacks,
                const std::vector<AppendRow>& appends,
                const std::vector<AlertRow>& alerts) {
  std::ostringstream out;
  out << "{\n"
      << "  \"bench\": \"recovery_scalability\",\n"
      << "  \"schema_version\": 5,\n"
      << "  \"fleet_sweep\": [\n";
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const auto& r = fleet[i];
    out << "    {\"workflows\": " << r.workflows << ", \"log_entries\": "
        << r.log_entries << ", \"analyze_rebuild_ms\": " << r.rebuild_ms
        << ", \"analyze_incremental_ms\": " << r.incr_ms << ", \"recover_ms\": "
        << r.recover_ms << ", \"undo_ms\": " << r.undo_ms << ", \"replay_ms\": "
        << r.replay_ms << ", \"reconcile_ms\": " << r.reconcile_ms
        << ", \"touched\": " << r.touched << ", \"reused\": "
        << r.reused << ", \"reuse_pct\": " << r.reuse_pct << ", \"strict\": "
        << json_bool(r.strict) << ", \"plans_equal\": " << json_bool(r.plans_equal)
        << "}" << (i + 1 < fleet.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"attack_sweep\": [\n";
  for (std::size_t i = 0; i < attacks.size(); ++i) {
    const auto& r = attacks[i];
    out << "    {\"attacks\": " << r.attacks << ", \"damaged\": " << r.damaged
        << ", \"undone\": " << r.undone << ", \"redone\": " << r.redone
        << ", \"analyze_ms\": " << r.analyze_ms << ", \"recover_ms\": "
        << r.recover_ms << ", \"strict\": " << json_bool(r.strict) << "}"
        << (i + 1 < attacks.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"incremental_append\": [\n";
  for (std::size_t i = 0; i < appends.size(); ++i) {
    const auto& r = appends[i];
    out << "    {\"base_workflows\": " << r.base_workflows << ", \"base_entries\": "
        << r.base_entries << ", \"delta_entries\": " << r.delta_entries
        << ", \"rebuild_ms\": " << r.rebuild_ms << ", \"refresh_ms\": " << r.incr_ms
        << ", \"edges_equal\": " << json_bool(r.edges_equal) << "}"
        << (i + 1 < appends.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"alert_latency_sweep\": [\n";
  for (std::size_t i = 0; i < alerts.size(); ++i) {
    const auto& r = alerts[i];
    out << "    {\"workflows\": " << r.workflows << ", \"ingest_runs\": "
        << r.ingest_runs << ", \"rounds\": " << r.rounds
        << ", \"stream_p50_us\": " << r.stream_p50_us << ", \"stream_p99_us\": "
        << r.stream_p99_us << ", \"rebuild_p50_us\": " << r.rebuild_p50_us
        << ", \"rebuild_p99_us\": " << r.rebuild_p99_us
        << ", \"frontier_total\": " << r.frontier_total
        << ", \"frontier_max\": " << r.frontier_max
        << ", \"full_rebuilds\": " << r.full_rebuilds
        << ", \"tags_propagated\": " << r.tags_propagated
        << ", \"retractions\": " << r.retractions
        << ", \"plans_equal\": " << json_bool(r.plans_equal) << "}"
        << (i + 1 < alerts.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  // Atomic replace: the committed baseline is diffed against this file,
  // so a crash mid-write must not leave a torn artifact behind.
  util::write_file_atomic(path, out.str());
}

}  // namespace

int run(const util::Flags& flags) {
  obs::init_from_flags(flags);
  const bool big = flags.get_bool("big", false);
  const auto json_out = flags.get("json-out", "");
  flags.done();

  std::vector<std::size_t> fleet_sizes{4, 16, 64, 256};
  if (big) {
    fleet_sizes.push_back(1024);
    fleet_sizes.push_back(4096);
  }

  std::printf("Recovery scalability (1 attack, growing fleet of workflows)\n\n");
  std::vector<FleetRow> fleet_rows;
  util::Table by_size({"workflows", "log entries", "rebuild ms", "incr ms",
                       "recover ms", "undo ms", "replay ms", "reconcile ms",
                       "touched", "reused", "reuse %", "strict"});
  by_size.set_precision(3);
  for (const std::size_t workflows : fleet_sizes) {
    auto scenario = sim::make_attack_scenario(0xabc, workflows, 1);
    auto& eng = *scenario.engine;

    // Cold path: dependence graph rebuilt from scratch per scan.
    auto t0 = std::chrono::steady_clock::now();
    const recovery::RecoveryAnalyzer cold(eng);
    const auto cold_plan = cold.analyze(scenario.malicious);
    const double rebuild_ms = ms_since(t0);

    // Hot path: a long-lived incremental graph, already synced by the
    // previous scan; refresh is O(entries since then) -- zero here.
    deps::DependencyAnalyzer deps(eng.log(), eng.specs_by_run());
    t0 = std::chrono::steady_clock::now();
    deps.refresh(eng.log(), eng.specs_by_run());
    const recovery::RecoveryAnalyzer hot(eng, deps);
    const auto plan = hot.analyze(scenario.malicious);
    const double incr_ms = ms_since(t0);
    const bool plans_equal = plan == cold_plan;

    // Recovery execution on the same synced index: the scheduler's
    // refresh is a no-op and the replay visits only the damage cone.
    t0 = std::chrono::steady_clock::now();
    recovery::RecoveryScheduler scheduler(eng, deps);
    const auto outcome = scheduler.execute(plan);
    double recover_ms = ms_since(t0);
    // The fastest of several recoveries of fresh copies of the scenario:
    // sub-millisecond timings feed the scaling gate's ratio.
    constexpr int kRecoverReps = 5;
    for (int rep = 1; rep < kRecoverReps; ++rep) {
      auto copy = sim::make_attack_scenario(0xabc, workflows, 1);
      auto& copy_eng = *copy.engine;
      deps::DependencyAnalyzer copy_deps(copy_eng.log(), copy_eng.specs_by_run());
      const auto copy_plan =
          recovery::RecoveryAnalyzer(copy_eng, copy_deps).analyze(copy.malicious);
      t0 = std::chrono::steady_clock::now();
      recovery::RecoveryScheduler(copy_eng, copy_deps).execute(copy_plan);
      recover_ms = std::min(recover_ms, ms_since(t0));
    }

    const auto touched = outcome.undone.size() + outcome.fresh_entries.size();
    const auto processed = std::max<std::size_t>(outcome.reused + touched, 1);
    const double reuse_pct =
        100.0 * static_cast<double>(outcome.reused) / static_cast<double>(processed);
    const auto report = recovery::CorrectnessChecker(eng).check();
    const bool strict = report.strict_correct();
    by_size.add(workflows, eng.log().size(), rebuild_ms, incr_ms, recover_ms,
                outcome.undo_ms, outcome.replay_ms, outcome.reconcile_ms,
                touched, outcome.reused, reuse_pct,
                strict && plans_equal ? "yes" : "NO");
    fleet_rows.push_back({workflows, eng.log().size(), rebuild_ms, incr_ms,
                          recover_ms, outcome.undo_ms, outcome.replay_ms,
                          outcome.reconcile_ms, touched, outcome.reused,
                          reuse_pct, strict, plans_equal});
  }
  std::printf("%s", by_size.render().c_str());

  std::printf("\nRecovery scalability (16 workflows, growing attack count)\n\n");
  std::vector<AttackRow> attack_rows;
  util::Table by_attacks({"attacks", "damaged", "undone", "redone", "analyze ms",
                          "recover ms", "strict"});
  by_attacks.set_precision(3);
  for (const std::size_t attacks : {1u, 2u, 4u, 8u}) {
    auto scenario = sim::make_attack_scenario(0xdef + attacks, 16, attacks);
    auto& eng = *scenario.engine;

    auto t0 = std::chrono::steady_clock::now();
    const recovery::RecoveryAnalyzer analyzer(eng);
    const auto plan = analyzer.analyze(scenario.malicious);
    const double analyze_ms = ms_since(t0);

    t0 = std::chrono::steady_clock::now();
    recovery::RecoveryScheduler scheduler(eng);
    const auto outcome = scheduler.execute(plan);
    const double recover_ms = ms_since(t0);

    const auto report = recovery::CorrectnessChecker(eng).check();
    const bool strict = report.strict_correct();
    by_attacks.add(attacks, plan.damaged.size(), outcome.undone.size(),
                   outcome.redone.size(), analyze_ms, recover_ms,
                   strict ? "yes" : "NO");
    attack_rows.push_back({attacks, plan.damaged.size(), outcome.undone.size(),
                           outcome.redone.size(), analyze_ms, recover_ms, strict});
  }
  std::printf("%s", by_attacks.render().c_str());

  // Fixed 16-workflow append batch over a growing base: the incremental
  // refresh must cost O(delta) regardless of the untouched history,
  // while a scratch rebuild pays for the whole log every time.
  std::printf("\nIncremental refresh (16-workflow append batch, growing base)\n\n");
  std::vector<AppendRow> append_rows;
  util::Table by_base({"base wf", "base entries", "delta entries", "rebuild ms",
                       "refresh ms", "speedup"});
  by_base.set_precision(3);
  std::vector<std::size_t> base_sizes{16, 64, 256};
  if (big) base_sizes.push_back(1024);
  for (const std::size_t base : base_sizes) {
    auto scenario = sim::make_attack_scenario(0x777, base, 1);
    auto& eng = *scenario.engine;
    deps::DependencyAnalyzer incremental(eng.log(), eng.specs_by_run());
    const std::size_t base_entries = eng.log().size();

    const std::size_t delta_runs = std::min<std::size_t>(16, scenario.specs.size());
    for (std::size_t i = 0; i < delta_runs; ++i) {
      eng.start_run(*scenario.specs[i]);
    }
    eng.run_all();
    const std::size_t delta_entries = eng.log().size() - base_entries;

    auto t0 = std::chrono::steady_clock::now();
    incremental.refresh(eng.log(), eng.specs_by_run());
    const double incr_ms = ms_since(t0);

    t0 = std::chrono::steady_clock::now();
    const deps::DependencyAnalyzer rebuilt(eng.log(), eng.specs_by_run());
    const double rebuild_ms = ms_since(t0);

    const bool edges_equal = incremental.edges() == rebuilt.edges();
    by_base.add(base, base_entries, delta_entries, rebuild_ms, incr_ms,
                incr_ms > 0 ? rebuild_ms / incr_ms : 0.0);
    append_rows.push_back(
        {base, base_entries, delta_entries, rebuild_ms, incr_ms, edges_equal});
    if (!edges_equal) std::printf("!! incremental/rebuild edge mismatch\n");
  }
  std::printf("%s", by_base.render().c_str());

  // --- Alert-to-plan latency vs log-ingest rate: the streaming tentpole
  // curve. Every round appends `ingest` clean runs plus one attacked run
  // (the log-ingest rate), then measures alert-to-plan both ways:
  // streaming (refresh the live graph, read the taint frontier) and the
  // pre-streaming scratch rebuild. The stream percentiles must stay flat
  // as ingest grows and the log accumulates history; the rebuild ones
  // grow with the log. Counters are bracketed around ONLY the streaming
  // refresh so the scratch analyzers built for comparison do not count.
  std::printf("\nAlert-to-plan latency (streaming vs rebuild, per-round storm)\n\n");
  std::vector<AlertRow> alert_rows;
  util::Table by_rate({"workflows", "ingest/round", "stream p50 us",
                       "stream p99 us", "rebuild p50 us", "rebuild p99 us",
                       "frontier max", "full rebuilds", "plans equal"});
  by_rate.set_precision(3);
  std::vector<std::size_t> alert_fleets{64, 256};
  if (big) alert_fleets.push_back(1024);
  constexpr std::size_t kAlertRounds = 24;
  auto& rebuild_counter = obs::metrics().counter("deps.full_rebuilds");
  auto& tags_counter = obs::metrics().counter("deps.stream_tags_propagated");
  auto& retract_counter = obs::metrics().counter("deps.stream_retractions");
  for (const std::size_t workflows : alert_fleets) {
    for (const std::size_t ingest : {0u, 8u, 32u}) {
      auto scenario = sim::make_attack_scenario(0x51ee + workflows, workflows, 1);
      auto& eng = *scenario.engine;
      deps::DependencyAnalyzer deps(eng.log(), eng.specs_by_run());

      std::vector<double> stream_us, rebuild_us;
      bool plans_equal = true;
      std::size_t frontier_total = 0, frontier_max = 0;
      std::uint64_t stream_rebuilds = 0, tags = 0, retractions = 0;
      for (std::size_t round = 0; round < kAlertRounds; ++round) {
        std::vector<engine::InstanceId> seeds;
        if (round == 0) {
          seeds = scenario.malicious;
        } else {
          const std::size_t log_before = eng.log().size();
          for (std::size_t i = 0; i < ingest; ++i) {
            eng.start_run(
                *scenario.specs[(round * 7 + i) % scenario.specs.size()]);
          }
          const auto attacked =
              eng.start_run(*scenario.specs[round % scenario.specs.size()]);
          eng.inject_malicious(attacked, /*task=*/1);
          eng.run_all();
          for (const auto& e : eng.log().entries()) {
            if (static_cast<std::size_t>(e.id) >= log_before &&
                e.kind == engine::ActionKind::kMalicious) {
              seeds.push_back(e.id);
            }
          }
        }

        // Streaming alert-to-plan: refresh the live graph (splices the
        // previous round's recovery batch, ingests this round's appends)
        // and plan off the taint frontier.
        const auto rebuilds0 = rebuild_counter.value();
        const auto tags0 = tags_counter.value();
        const auto retract0 = retract_counter.value();
        auto ts = std::chrono::steady_clock::now();
        deps.refresh(eng.log(), eng.specs_by_run());
        const recovery::RecoveryAnalyzer hot(eng, deps);
        const auto plan = hot.analyze(seeds);
        stream_us.push_back(us_since(ts));
        stream_rebuilds += rebuild_counter.value() - rebuilds0;
        tags += tags_counter.value() - tags0;
        retractions += retract_counter.value() - retract0;

        // Pre-streaming baseline: scratch graph per alert.
        ts = std::chrono::steady_clock::now();
        const recovery::RecoveryAnalyzer cold(eng);
        const auto cold_plan = cold.analyze(seeds);
        rebuild_us.push_back(us_since(ts));

        plans_equal = plans_equal && plan == cold_plan;
        frontier_total += plan.damaged.size();
        frontier_max = std::max(frontier_max, plan.damaged.size());
        recovery::RecoveryScheduler(eng, deps).execute(plan);
      }
      AlertRow row{workflows,
                   ingest,
                   kAlertRounds,
                   percentile(stream_us, 0.50),
                   percentile(stream_us, 0.99),
                   percentile(rebuild_us, 0.50),
                   percentile(rebuild_us, 0.99),
                   frontier_total,
                   frontier_max,
                   stream_rebuilds,
                   tags,
                   retractions,
                   plans_equal};
      by_rate.add(workflows, ingest, row.stream_p50_us, row.stream_p99_us,
                  row.rebuild_p50_us, row.rebuild_p99_us, row.frontier_max,
                  row.full_rebuilds, plans_equal ? "yes" : "NO");
      alert_rows.push_back(row);
      if (!plans_equal) std::printf("!! streaming/rebuild plan mismatch\n");
      if (stream_rebuilds != 0) std::printf("!! steady-state fallback rebuild\n");
    }
  }
  std::printf("%s", by_rate.render().c_str());

  std::printf("\n# The reuse column is the point: recovery touches the damage\n"
              "# closure, not the whole log -- unlike checkpoint rollback.\n"
              "# incr ms is the controller's steady-state scan path: refresh\n"
              "# of a live dependence graph + analyze, O(damage) not O(log).\n"
              "# recover ms splits into undo/replay/reconcile; all three\n"
              "# follow the damage cone, so recover ms per touched action\n"
              "# stays flat as the fleet grows.\n");

  if (!json_out.empty()) {
    write_json(json_out, fleet_rows, attack_rows, append_rows, alert_rows);
    std::printf("\n# wrote %s\n", json_out.c_str());
  }
  obs::flush_from_flags(flags);
  return 0;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, run); }
