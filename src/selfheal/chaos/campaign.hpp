// Seeded, deterministic chaos campaigns over the full self-healing
// pipeline: engine -> IDS -> controller (analyzer + scheduler).
//
// One campaign = one randomized attacked workload, executed under a
// configurable fault mix, then healed through the controller while the
// harness injects faults from three classes:
//
//   1. IDS imperfection -- false positives, false negatives with late
//      correction, duplicate and delayed alerts (ids::IdsConfig's
//      imperfection model);
//   2. task-level faults -- transient execution failures retried up to
//      engine::kMaxTaskRetries times, and permanent failures that abort
//      the run while every other run keeps executing (TaskFaultPlan);
//   3. crash/restart -- the controller process "dies" between recovery
//      steps; the durable state (specs + system log) is saved via
//      engine::session_io, reloaded, and recovery resumes. Alerts are
//      redelivered from a durable alert log; recovery idempotency makes
//      redelivery safe.
//
// Every campaign must end strict-correct (recovery/correctness.hpp);
// crash/restart campaigns additionally assert that the reloaded engine
// produces a RecoveryPlan byte-identical to the pre-crash engine's, and
// that the final store matches a crash-free twin campaign byte for byte.
//
// Determinism contract: a campaign is a pure function of its config
// (seed included). Independent rng streams are derived for scenario
// generation, IDS imperfection, and crash points, so disabling one fault
// class never shifts another's decisions; task faults are stateless
// hashes (see faults.hpp). Reports carry no wall-clock data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "selfheal/chaos/faults.hpp"
#include "selfheal/engine/engine.hpp"
#include "selfheal/ids/ids.hpp"
#include "selfheal/recovery/controller.hpp"
#include "selfheal/sim/workload.hpp"
#include "selfheal/storage/fault_injector.hpp"

namespace selfheal::chaos {

/// Upper bound on crashes per campaign (keeps campaigns terminating).
inline constexpr std::size_t kMaxCrashes = 3;

struct CrashConfig {
  bool enabled = false;
  /// Probability of a crash after each completed controller step (one
  /// scan_one / recover_one), drawn from the campaign's crash stream.
  double crash_prob = 0.25;
};

/// Fault class 4: storage-level corruption. When enabled, crash/restart
/// cycles route through the durable storage layer (snapshot chain +
/// checksummed WAL, engine/durable_session.hpp) instead of a pristine
/// session stream, and a seeded storage::StorageFaultInjector damages
/// every media write. The initial checkpoint (pre-storm durable state)
/// is written pristine; everything after it is fair game. The campaign
/// additionally runs one final recovery probe, so every storage
/// campaign exercises recovery at least once even without crashes.
struct StorageChaosConfig {
  bool enabled = false;
  storage::StorageFaultConfig faults;
};

struct CampaignConfig {
  std::uint64_t seed = 1;
  std::size_t n_workflows = 4;
  std::size_t n_attacks = 2;
  sim::WorkloadConfig workload;
  engine::EngineConfig engine;
  ids::IdsConfig ids;
  TaskFaultConfig task_faults;
  CrashConfig crash;
  StorageChaosConfig storage;
  recovery::ControllerConfig controller;
};

/// The default chaotic mix: every fault class enabled at rates that keep
/// campaigns interesting but terminating.
[[nodiscard]] CampaignConfig default_campaign(std::uint64_t seed);

/// default_campaign plus storage-level corruption at rates that exercise
/// every fault kind across a modest seed sweep.
[[nodiscard]] CampaignConfig default_storage_campaign(std::uint64_t seed);

struct CampaignResult {
  std::uint64_t seed = 0;

  // --- injected faults (chaos.injected.*) ---
  ids::DetectionStats ids_stats;      // false pos/neg, dups, corrections
  std::size_t transient_faults = 0;   // task instances failed transiently
  std::size_t permanent_faults = 0;   // task instances failed permanently
  std::size_t aborted_runs = 0;       // runs gracefully degraded
  std::size_t crashes = 0;            // controller crash/restart cycles

  // --- recovery outcome (chaos.recovered.*) ---
  std::size_t alerts_delivered = 0;
  std::size_t scans = 0;
  std::size_t recoveries = 0;
  std::size_t log_entries = 0;
  bool strict_correct = false;
  /// Every crash round-trip produced a byte-identical RecoveryPlan on
  /// the reloaded engine. Vacuously true without crashes.
  bool plans_identical = true;
  /// Final effective store (per-object values under the log's effective
  /// schedule) is byte-identical to a crash-free twin campaign's.
  /// Vacuously true when no crash fired.
  bool store_matches_uninterrupted = true;

  // --- storage chaos (chaos.storage.*; zeroed unless storage.enabled) ---
  bool storage_enabled = false;
  /// Ground truth from the injector: what was actually damaged.
  storage::StorageFaultCounts storage_injected;
  std::size_t storage_recoveries = 0;        // crash recoveries + final probe
  std::size_t storage_damaged_recoveries = 0;  // recoveries that saw damage
  std::size_t storage_lossy_recoveries = 0;  // explicitly degraded recoveries
  std::size_t wal_records_replayed = 0;
  std::size_t wal_duplicates_skipped = 0;
  std::size_t snapshot_fallbacks = 0;
  /// No recovery ever claimed losslessness while producing a different
  /// RecoveryPlan -- the never-silent contract. Must stay true.
  bool no_silent_corruption = true;
  /// Every snapshot generation was damaged (cannot happen with a
  /// pristine initial checkpoint; a campaign failure if it does).
  bool storage_unrecoverable = false;

  /// Empty when the campaign passed; otherwise a one-line diagnosis.
  std::string failure;

  [[nodiscard]] bool passed() const { return failure.empty(); }
  /// One deterministic JSON object (no wall-clock fields).
  [[nodiscard]] std::string to_json() const;
};

/// Runs one campaign to completion. Deterministic in `config`.
[[nodiscard]] CampaignResult run_campaign(const CampaignConfig& config);

struct CampaignSuite {
  std::vector<CampaignResult> results;
  std::size_t passed = 0;
  std::size_t failed = 0;

  [[nodiscard]] bool all_passed() const { return failed == 0; }
  /// Deterministic JSON report: aggregate counters, per-seed rows, and a
  /// repro command line for every failing seed.
  [[nodiscard]] std::string to_json(const std::string& repro_prefix) const;
};

/// Runs `count` campaigns with seeds first_seed, first_seed+1, ...; the
/// base config supplies everything but the seed. Campaigns are
/// independent, so `threads > 1` fans them out over a thread pool;
/// results land in per-seed slots, keeping the suite (and its JSON
/// report) byte-identical for every thread count. 0 = hardware threads.
[[nodiscard]] CampaignSuite run_campaigns(std::uint64_t first_seed,
                                          std::size_t count,
                                          const CampaignConfig& base,
                                          std::size_t threads = 1);

}  // namespace selfheal::chaos
