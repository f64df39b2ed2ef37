#include "selfheal/chaos/campaign.hpp"

#include <sstream>
#include <utility>

#include "selfheal/engine/durable_session.hpp"
#include "selfheal/engine/session_io.hpp"
#include "selfheal/obs/metrics.hpp"
#include "selfheal/obs/trace.hpp"
#include "selfheal/recovery/analyzer.hpp"
#include "selfheal/recovery/correctness.hpp"
#include "selfheal/util/rng.hpp"
#include "selfheal/util/thread_pool.hpp"

namespace selfheal::chaos {

namespace {

// Salts deriving the campaign's independent rng streams (see header).
constexpr std::uint64_t kIdsSalt = 0x1d51d51d51d51d5ULL;
constexpr std::uint64_t kCrashSalt = 0xc4a5bc4a5bc4a5bULL;
constexpr std::uint64_t kStorageSalt = 0x5704a6ec4a05ULL;

struct ChaosMetrics {
  obs::Counter& campaigns = obs::metrics().counter("chaos.campaigns");
  obs::Counter& failures = obs::metrics().counter("chaos.campaign_failures");
  obs::Counter& inj_false_positives =
      obs::metrics().counter("chaos.injected.false_positives");
  obs::Counter& inj_false_negatives =
      obs::metrics().counter("chaos.injected.false_negatives");
  obs::Counter& inj_duplicates =
      obs::metrics().counter("chaos.injected.duplicate_alerts");
  obs::Counter& inj_delayed =
      obs::metrics().counter("chaos.injected.delayed_alerts");
  obs::Counter& inj_transient =
      obs::metrics().counter("chaos.injected.transient_faults");
  obs::Counter& inj_permanent =
      obs::metrics().counter("chaos.injected.permanent_faults");
  obs::Counter& inj_crashes = obs::metrics().counter("chaos.injected.crashes");
  obs::Counter& rec_strict =
      obs::metrics().counter("chaos.recovered.strict_correct");
  obs::Counter& rec_ids = obs::metrics().counter("chaos.recovered.ids_faults");
  obs::Counter& rec_task =
      obs::metrics().counter("chaos.recovered.task_faults");
  obs::Counter& rec_crash = obs::metrics().counter("chaos.recovered.crashes");
  obs::Counter& rec_degraded =
      obs::metrics().counter("chaos.recovered.degraded_runs");
  // Storage chaos: what the injector damaged vs what recovery reported.
  obs::Counter& st_inj_torn =
      obs::metrics().counter("chaos.storage.injected.torn_writes");
  obs::Counter& st_inj_flips =
      obs::metrics().counter("chaos.storage.injected.bit_flips");
  obs::Counter& st_inj_trunc =
      obs::metrics().counter("chaos.storage.injected.truncations");
  obs::Counter& st_inj_dups =
      obs::metrics().counter("chaos.storage.injected.duplicate_records");
  obs::Counter& st_inj_rename =
      obs::metrics().counter("chaos.storage.injected.crashes_before_rename");
  obs::Counter& st_det_damaged =
      obs::metrics().counter("chaos.storage.detected.damaged_recoveries");
  obs::Counter& st_det_lossy =
      obs::metrics().counter("chaos.storage.detected.lossy_recoveries");
  obs::Counter& st_det_dups =
      obs::metrics().counter("chaos.storage.detected.duplicates_skipped");
  obs::Counter& st_det_fallbacks =
      obs::metrics().counter("chaos.storage.detected.snapshot_fallbacks");
  obs::Counter& st_silent =
      obs::metrics().counter("chaos.storage.silent_corruptions");
};

ChaosMetrics& chaos_metrics() {
  static ChaosMetrics m;
  return m;
}

/// The campaign's durable world: catalog + specs + engine (the parts a
/// crash cannot destroy live in the session file), plus the volatile
/// ground truth the harness tracks across restarts.
struct World {
  engine::Session session;
  std::vector<engine::InstanceId> malicious;  // ground-truth attack set
};

/// The attacked workload, with the task fault injector installed before
/// execution so faults hit the original workload run.
World build_world(const CampaignConfig& config, TaskFaultPlan& fault_plan) {
  auto scenario = sim::make_attack_scenario(
      config.seed, config.n_workflows, config.n_attacks, config.workload, config.engine,
      config.task_faults.enabled() ? fault_plan.injector() : engine::FaultInjector{});
  World world;
  world.session.catalog = std::move(scenario.catalog);
  world.session.specs = std::move(scenario.specs);
  world.session.engine = std::move(scenario.engine);
  world.malicious = std::move(scenario.malicious);
  return world;
}

struct InternalOutcome {
  CampaignResult result;
  std::vector<engine::Value> final_store;
};

InternalOutcome run_internal(const CampaignConfig& config) {
  obs::Span span("chaos.campaign", "chaos");
  InternalOutcome out;
  CampaignResult& result = out.result;
  result.seed = config.seed;

  TaskFaultPlan fault_plan(config.seed, config.task_faults);
  World world = build_world(config, fault_plan);
  result.transient_faults = fault_plan.transient_injected();
  result.permanent_faults = fault_plan.permanent_injected();
  for (std::size_t r = 0; r < world.session.engine->run_count(); ++r) {
    if (world.session.engine->run_aborted(static_cast<engine::RunId>(r))) {
      ++result.aborted_runs;
    }
  }

  // --- IDS: the (possibly imperfect) alert stream, from its own rng
  // stream so the scenario is identical whatever the IDS config.
  util::Rng ids_rng(util::splitmix64(config.seed ^ kIdsSalt));
  const ids::IdsSimulator ids_sim(config.ids);
  const auto alerts =
      ids_sim.detect(world.session.engine->log(), ids_rng, &result.ids_stats);
  result.alerts_delivered = alerts.size();

  // --- Durable storage layer (storage chaos): the initial checkpoint
  // is written pristine (the durable state that existed before the
  // storm), then the seeded injector arms and every subsequent media
  // write -- WAL appends mirrored off the engine, re-checkpoints after
  // recoveries -- is fair game.
  std::unique_ptr<storage::StorageFaultInjector> storage_faults;
  std::unique_ptr<engine::DurableSessionStore> durable_store;
  if (config.storage.enabled) {
    result.storage_enabled = true;
    storage_faults = std::make_unique<storage::StorageFaultInjector>(
        util::splitmix64(config.seed ^ kStorageSalt), config.storage.faults);
    durable_store = std::make_unique<engine::DurableSessionStore>();
    durable_store->snapshot(*world.session.engine);
    durable_store->set_fault_injector(storage_faults.get());
    world.session.engine->set_durability_observer(durable_store.get());
  }

  // Accounts one recovery attempt; returns the recovered session (null
  // engine when unrecoverable). Enforces the never-silent contract: a
  // report claiming losslessness must yield a byte-identical
  // RecoveryPlan; explicit degradation (an earlier resumable state) is
  // legal and is healed by alert redelivery.
  const auto storage_recover =
      [&](const recovery::RecoveryPlan& plan_pre) -> engine::Session {
    engine::RecoveryReport report;
    auto recovered = durable_store->recover(report);
    ++result.storage_recoveries;
    if (report.detected_damage()) ++result.storage_damaged_recoveries;
    if (!report.lossless()) ++result.storage_lossy_recoveries;
    result.wal_records_replayed += report.wal_records_replayed;
    result.wal_duplicates_skipped += report.wal_duplicates_skipped;
    result.snapshot_fallbacks += report.snapshot_fallbacks;
    if (report.unrecoverable) {
      result.storage_unrecoverable = true;
      result.failure = "storage unrecoverable: every snapshot generation damaged";
      return recovered;
    }
    const auto plan_post =
        recovery::RecoveryAnalyzer(*recovered.engine).analyze(world.malicious);
    if (!(plan_pre == plan_post)) {
      result.plans_identical = false;
      if (report.lossless()) {
        result.no_silent_corruption = false;
        result.failure =
            "silent storage corruption: recovery reported lossless (" +
            report.summary() + ") but the recovery plan differs";
      }
    }
    return recovered;
  };

  // --- Controller loop with seeded crash/restart points.
  util::Rng crash_rng(util::splitmix64(config.seed ^ kCrashSalt));
  auto controller = std::make_unique<recovery::SelfHealingController>(
      *world.session.engine, config.controller);

  const auto retire_controller = [&]() {
    if (controller == nullptr) return;
    result.scans += controller->stats().scans;
    result.recoveries += controller->stats().recoveries;
    controller.reset();
  };

  bool crashed_this_round = false;
  const auto maybe_crash = [&]() {
    if (!config.crash.enabled || result.crashes >= kMaxCrashes) {
      return;
    }
    if (!crash_rng.chance(config.crash.crash_prob)) return;
    ++result.crashes;
    crashed_this_round = true;
    chaos_metrics().inj_crashes.inc();

    // Plan byte-identity probe: the recovery plan is a pure function of
    // the durable state (specs + system log), so the reloaded engine
    // must analyze the ground-truth attack set to the exact same plan
    // the live engine would have.
    const auto plan_pre =
        recovery::RecoveryAnalyzer(*world.session.engine).analyze(world.malicious);

    if (durable_store != nullptr) {
      // Crash through the (possibly damaged) storage layer.
      retire_controller();  // volatile queues die with the process
      auto recovered = storage_recover(plan_pre);
      if (result.storage_unrecoverable) return;
      world.session = std::move(recovered);
      if (config.task_faults.enabled()) {
        world.session.engine->set_fault_injector(fault_plan.injector());
      }
      // Re-base the media on the recovered state and resume mirroring.
      durable_store->snapshot(*world.session.engine);
      world.session.engine->set_durability_observer(durable_store.get());
    } else {
      std::stringstream durable;
      engine::save_session(*world.session.engine, durable);
      retire_controller();  // volatile queues die with the process
      world.session = engine::load_session(durable.str());
      // The fault plan models the environment, not the crashed process:
      // the restarted engine executes in the same faulty world, or its
      // recovery would diverge from the crash-free twin's.
      if (config.task_faults.enabled()) {
        world.session.engine->set_fault_injector(fault_plan.injector());
      }

      const auto plan_post =
          recovery::RecoveryAnalyzer(*world.session.engine).analyze(world.malicious);
      if (!(plan_pre == plan_post)) {
        result.plans_identical = false;
        result.failure = "post-crash recovery plan differs from pre-crash plan";
      }
    }
    if (result.failure.empty()) {
      controller = std::make_unique<recovery::SelfHealingController>(
          *world.session.engine, config.controller);
    }
  };

  // One controller step is the atomic unit crashes align to (maybe_crash
  // fires only between steps), so it must also be the WAL's atomic unit:
  // all commits of a step land in one record, and a lossy storage rewind
  // can only land on a step boundary -- a state crash/restart is proven
  // to resume from. Without batching, a rewind could strand the engine
  // mid-step (e.g. undos applied, their redo lost), a state the
  // controller never re-plans from live.
  const auto step_batched = [&](auto&& body) {
    if (durable_store != nullptr) durable_store->begin_batch();
    const bool progressed = static_cast<bool>(body());
    if (durable_store != nullptr) durable_store->end_batch();
    return progressed;
  };

  // One controller step; returns false when nothing can progress.
  const auto step_once = [&]() {
    if (step_batched([&] { return controller->scan_one(); })) {
      maybe_crash();
      return true;
    }
    if (step_batched([&] { return controller->recover_one(); })) {
      maybe_crash();
      return true;
    }
    return false;
  };

  // Deliver-and-drain rounds. A crash wipes the controller's queues, so
  // the round restarts delivery from the durable alert log; recovery
  // idempotency makes redelivery safe. A crash-free round ends the loop.
  const std::size_t max_rounds = kMaxCrashes + 2;
  for (std::size_t round = 0; round < max_rounds && result.failure.empty();
       ++round) {
    crashed_this_round = false;
    for (const auto& alert : alerts) {
      // Backpressure: a full alert queue means the controller must make
      // progress before this (re)delivery can land.
      while (!step_batched([&] { return controller->submit_alert(alert); })) {
        if (!step_once()) break;
        if (crashed_this_round) break;
      }
      if (crashed_this_round || !result.failure.empty()) break;
    }
    if (!result.failure.empty()) break;
    if (crashed_this_round) continue;  // redeliver everything next round
    while (controller->state() != recovery::SystemState::kNormal) {
      if (!step_once()) break;
      if (crashed_this_round) break;
    }
    if (!crashed_this_round) break;  // clean round: recovery fully drained
  }

  if (result.failure.empty() &&
      controller->state() != recovery::SystemState::kNormal) {
    result.failure = "controller did not return to NORMAL";
  }
  retire_controller();

  // --- Verdict: strict correctness after the storm.
  if (result.failure.empty()) {
    const auto report =
        recovery::CorrectnessChecker(*world.session.engine).check();
    result.strict_correct = report.strict_correct();
    if (!result.strict_correct) {
      result.failure = "strict correctness violated: " + report.summary;
    }
  }

  // --- Final recovery probe (storage chaos): whatever is on the media
  // right now must either recover to the live state byte-identically or
  // say explicitly that it cannot. Guarantees every storage campaign
  // exercises recovery at least once, crashes or not.
  if (durable_store != nullptr && result.failure.empty()) {
    const auto plan_live =
        recovery::RecoveryAnalyzer(*world.session.engine).analyze(world.malicious);
    (void)storage_recover(plan_live);
  }
  if (storage_faults != nullptr) {
    result.storage_injected = storage_faults->counts();
  }

  result.log_entries = world.session.engine->log().size();
  out.final_store = world.session.engine->log().effective_store();
  return out;
}

void record_metrics(const CampaignResult& result) {
  auto& cm = chaos_metrics();
  cm.campaigns.inc();
  if (!result.passed()) cm.failures.inc();
  cm.inj_false_positives.inc(result.ids_stats.false_positives);
  cm.inj_false_negatives.inc(result.ids_stats.missed);
  cm.inj_duplicates.inc(result.ids_stats.duplicates);
  cm.inj_delayed.inc(result.ids_stats.late_corrections + result.ids_stats.swept);
  cm.inj_transient.inc(result.transient_faults);
  cm.inj_permanent.inc(result.permanent_faults);
  if (result.strict_correct) {
    cm.rec_strict.inc();
    const auto& ids = result.ids_stats;
    if (ids.false_positives + ids.duplicates + ids.missed > 0) cm.rec_ids.inc();
    if (result.transient_faults + result.permanent_faults > 0) {
      cm.rec_task.inc();
    }
    if (result.crashes > 0) cm.rec_crash.inc();
    cm.rec_degraded.inc(result.aborted_runs);
  }
  if (result.storage_enabled) {
    cm.st_inj_torn.inc(result.storage_injected.torn_writes);
    cm.st_inj_flips.inc(result.storage_injected.bit_flips);
    cm.st_inj_trunc.inc(result.storage_injected.truncations);
    cm.st_inj_dups.inc(result.storage_injected.duplicate_records);
    cm.st_inj_rename.inc(result.storage_injected.crashes_before_rename);
    cm.st_det_damaged.inc(result.storage_damaged_recoveries);
    cm.st_det_lossy.inc(result.storage_lossy_recoveries);
    cm.st_det_dups.inc(result.wal_duplicates_skipped);
    cm.st_det_fallbacks.inc(result.snapshot_fallbacks);
    if (!result.no_silent_corruption) cm.st_silent.inc();
  }
}

}  // namespace

CampaignConfig default_campaign(std::uint64_t seed) {
  CampaignConfig config;
  config.seed = seed;
  config.n_workflows = 4;
  config.n_attacks = 2;
  config.workload.branch_prob = 0.45;
  config.workload.shared_object_prob = 0.35;
  // IDS imperfection: misses corrected late or by the sweep, plus noise.
  config.ids.coverage = 0.75;
  config.ids.false_positive_rate = 0.08;
  config.ids.duplicate_alert_prob = 0.25;
  config.ids.late_correction_prob = 0.7;
  // Task faults: mostly transient (retried), a thin permanent tail.
  config.task_faults.transient_rate = 0.08;
  config.task_faults.permanent_rate = 0.02;
  // Crash/restart mid-recovery.
  config.crash.enabled = true;
  return config;
}

CampaignConfig default_storage_campaign(std::uint64_t seed) {
  CampaignConfig config = default_campaign(seed);
  // Crash more often so the damaged media actually gets read back.
  config.crash.crash_prob = 0.4;
  config.storage.enabled = true;
  config.storage.faults.torn_write_rate = 0.04;
  config.storage.faults.bit_flip_rate = 0.04;
  config.storage.faults.truncation_rate = 0.03;
  config.storage.faults.duplicate_record_rate = 0.05;
  config.storage.faults.crash_before_rename_rate = 0.10;
  return config;
}

CampaignResult run_campaign(const CampaignConfig& config) {
  auto outcome = run_internal(config);
  auto& result = outcome.result;

  // Crash/restart campaigns must converge to the exact state a
  // crash-free execution reaches: run the twin and compare stores byte
  // for byte. The twin shares every rng stream except the crash stream,
  // so its scenario, faults, and alerts are identical.
  if (config.crash.enabled && result.crashes > 0 && result.passed()) {
    CampaignConfig twin_config = config;
    twin_config.crash.enabled = false;
    const auto twin = run_internal(twin_config);
    if (twin.final_store != outcome.final_store) {
      result.store_matches_uninterrupted = false;
      result.failure = "final store differs from uninterrupted twin";
    } else if (!twin.result.passed()) {
      result.failure = "uninterrupted twin failed: " + twin.result.failure;
    }
  }

  record_metrics(result);
  return result;
}

std::string CampaignResult::to_json() const {
  std::ostringstream out;
  out << "{\"seed\": " << seed << ", \"passed\": " << (passed() ? "true" : "false")
      << ", \"strict_correct\": " << (strict_correct ? "true" : "false")
      << ", \"plans_identical\": " << (plans_identical ? "true" : "false")
      << ", \"store_matches_uninterrupted\": "
      << (store_matches_uninterrupted ? "true" : "false")
      << ", \"injected\": {\"false_positives\": " << ids_stats.false_positives
      << ", \"false_negatives\": " << ids_stats.missed
      << ", \"late_corrections\": " << ids_stats.late_corrections
      << ", \"duplicate_alerts\": " << ids_stats.duplicates
      << ", \"swept\": " << ids_stats.swept
      << ", \"transient_faults\": " << transient_faults
      << ", \"permanent_faults\": " << permanent_faults
      << ", \"crashes\": " << crashes << "}"
      << ", \"aborted_runs\": " << aborted_runs
      << ", \"alerts_delivered\": " << alerts_delivered
      << ", \"scans\": " << scans << ", \"recoveries\": " << recoveries
      << ", \"log_entries\": " << log_entries;
  if (storage_enabled) {
    out << ", \"storage\": {\"injected\": {\"torn_writes\": "
        << storage_injected.torn_writes
        << ", \"bit_flips\": " << storage_injected.bit_flips
        << ", \"truncations\": " << storage_injected.truncations
        << ", \"duplicate_records\": " << storage_injected.duplicate_records
        << ", \"crashes_before_rename\": "
        << storage_injected.crashes_before_rename << "}"
        << ", \"detected\": {\"recoveries\": " << storage_recoveries
        << ", \"damaged_recoveries\": " << storage_damaged_recoveries
        << ", \"lossy_recoveries\": " << storage_lossy_recoveries
        << ", \"wal_records_replayed\": " << wal_records_replayed
        << ", \"wal_duplicates_skipped\": " << wal_duplicates_skipped
        << ", \"snapshot_fallbacks\": " << snapshot_fallbacks << "}"
        << ", \"no_silent_corruption\": "
        << (no_silent_corruption ? "true" : "false")
        << ", \"unrecoverable\": " << (storage_unrecoverable ? "true" : "false")
        << "}";
  }
  if (!failure.empty()) {
    std::string escaped;
    for (const char c : failure) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c;
    }
    out << ", \"failure\": \"" << escaped << "\"";
  }
  out << "}";
  return out.str();
}

CampaignSuite run_campaigns(std::uint64_t first_seed, std::size_t count,
                            const CampaignConfig& base, std::size_t threads) {
  CampaignSuite suite;
  // Per-seed result slots written by index: the aggregate pass/fail
  // tally and the JSON report are assembled afterwards in seed order,
  // so the suite is byte-identical for any thread count.
  suite.results.resize(count);
  util::parallel_for_index(threads, count, [&](std::size_t i) {
    CampaignConfig config = base;
    config.seed = first_seed + i;
    suite.results[i] = run_campaign(config);
  });
  for (const auto& result : suite.results) {
    if (result.passed()) {
      ++suite.passed;
    } else {
      ++suite.failed;
    }
  }
  return suite;
}

std::string CampaignSuite::to_json(const std::string& repro_prefix) const {
  std::ostringstream out;
  out << "{\n  \"harness\": \"chaos_campaign\",\n  \"schema_version\": 1,\n";
  out << "  \"campaigns\": " << results.size() << ",\n  \"passed\": " << passed
      << ",\n  \"failed\": " << failed << ",\n";
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    out << "    " << results[i].to_json() << (i + 1 < results.size() ? "," : "")
        << "\n";
  }
  out << "  ],\n  \"failing_seeds\": [\n";
  bool first = true;
  for (const auto& r : results) {
    if (r.passed()) continue;
    if (!first) out << ",\n";
    first = false;
    out << "    {\"seed\": " << r.seed << ", \"repro\": \"" << repro_prefix
        << " --seed " << r.seed << "\"}";
  }
  if (!first) out << "\n";
  out << "  ]\n}\n";
  return out.str();
}

}  // namespace selfheal::chaos
