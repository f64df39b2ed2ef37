// Storage-level corruption against the durable session store: every
// seeded fault scenario must recover either byte-identically or with an
// EXPLICIT degradation report -- a silent wrong answer is the one
// outcome that must never happen, no matter what the media did.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "selfheal/engine/durable_session.hpp"
#include "selfheal/engine/session_io.hpp"
#include "selfheal/recovery/analyzer.hpp"
#include "selfheal/recovery/scheduler.hpp"
#include "selfheal/service/loadgen.hpp"
#include "selfheal/service/world.hpp"
#include "selfheal/sim/workload.hpp"
#include "selfheal/storage/fault_injector.hpp"
#include "selfheal/wfspec/parser.hpp"

namespace {

using namespace selfheal;
using storage::StorageFaultKind;

std::string session_text(const engine::Engine& eng) {
  std::ostringstream out;
  engine::save_session(eng, out);
  return out.str();
}

/// Recovers from the (possibly damaged) media and enforces the
/// never-silent contract against the live engine.
void check_never_silent(std::uint64_t seed,
                        const engine::DurableSessionStore& store,
                        const engine::Engine& eng,
                        const storage::StorageFaultInjector& injector,
                        storage::StorageFaultCounts& injected_total,
                        std::size_t& lossless_count, std::size_t& lossy_count) {
  engine::RecoveryReport report;
  const auto recovered = store.recover(report);
  // The initial snapshot was written pristine, so generation 1 always
  // survives: recovery can degrade but never come up empty.
  ASSERT_FALSE(report.unrecoverable) << "seed " << seed;
  ASSERT_NE(recovered.engine, nullptr) << "seed " << seed;

  if (report.lossless()) {
    // Claimed lossless: the recovered session must be byte-identical to
    // the live one. Anything else is silent corruption.
    EXPECT_EQ(session_text(*recovered.engine), session_text(eng))
        << "seed " << seed << " SILENT CORRUPTION (" << report.summary()
        << ", injected " << injector.counts().total() << " faults)";
    ++lossless_count;
  } else {
    // Explicit degradation: legal, but it must not be gratuitous.
    EXPECT_GT(injector.counts().total(), 0u)
        << "seed " << seed << " claimed loss on pristine media ("
        << report.summary() << ")";
    ++lossy_count;
  }
  if (injector.counts().total() == 0) {
    EXPECT_TRUE(report.clean()) << "seed " << seed << ": " << report.summary();
  }

  const auto& c = injector.counts();
  injected_total.torn_writes += c.torn_writes;
  injected_total.bit_flips += c.bit_flips;
  injected_total.truncations += c.truncations;
  injected_total.duplicate_records += c.duplicate_records;
  injected_total.crashes_before_rename += c.crashes_before_rename;
}

/// Runs one attack scenario with the durable store mirroring recovery
/// under `faults`, then recovers from the (possibly damaged) media and
/// enforces the never-silent contract against the live engine.
void run_scenario(std::uint64_t seed, const storage::StorageFaultConfig& faults,
                  storage::StorageFaultCounts& injected_total,
                  std::size_t& lossless_count, std::size_t& lossy_count) {
  auto scenario = sim::make_attack_scenario(seed % 8 + 1, 3, 2);
  auto& eng = *scenario.engine;

  engine::DurableSessionStore store;
  store.checkpoint(eng);  // pristine initial checkpoint
  storage::StorageFaultInjector injector(seed, faults);
  store.set_fault_injector(&injector);
  eng.set_durability_observer(&store);

  recovery::RecoveryScheduler scheduler(eng);
  scheduler.execute(recovery::RecoveryAnalyzer(eng).analyze(scenario.malicious));
  // A mid-life snapshot with the injector armed, so snapshot-write
  // faults (rename crashes, torn snapshot blobs) get exercised too.
  store.snapshot(eng);
  eng.set_durability_observer(nullptr);
  check_never_silent(seed, store, eng, injector, injected_total,
                     lossless_count, lossy_count);
}

/// A durable TenantWorld over a short storm trace, with `faults` armed
/// after its pristine first snapshot: submit records (objects, specs,
/// runs), policy snapshots and recovery steps all meet them.
void run_submit_scenario(std::uint64_t seed,
                         const storage::StorageFaultConfig& faults,
                         storage::StorageFaultCounts& injected_total,
                         std::size_t& lossless_count, std::size_t& lossy_count) {
  service::StormConfig storm;
  storm.seed = seed;
  storm.submissions = 60;
  const auto trace = service::make_tenant_trace(storm, 0);
  service::TenantWorld world{service::TenantConfig{}};
  storage::StorageFaultInjector injector(seed, faults);
  world.durable()->set_fault_injector(&injector);
  for (const auto& timed : trace) {
    while (!world.normal()) world.apply_step();
    world.apply(timed.request);
  }
  while (!world.normal()) world.apply_step();
  world.durable()->set_fault_injector(nullptr);
  check_never_silent(seed, *world.durable(), world.engine(), injector,
                     injected_total, lossless_count, lossy_count);
}

/// 5 fault kinds x 50 seeds; each batch drives ONE kind hard so every
/// damage class is exercised in isolation (plus whatever the decide
/// hash mixes in -- at most one fault fires per operation).
template <typename Scenario>
void sweep_fault_kinds(const Scenario& scenario) {
  struct Batch {
    const char* name;
    storage::StorageFaultConfig faults;
  };
  std::vector<Batch> batches(5);
  batches[0] = {"torn", {}};
  batches[0].faults.torn_write_rate = 0.3;
  batches[1] = {"flip", {}};
  batches[1].faults.bit_flip_rate = 0.3;
  batches[2] = {"truncate", {}};
  batches[2].faults.truncation_rate = 0.3;
  batches[3] = {"duplicate", {}};
  batches[3].faults.duplicate_record_rate = 0.3;
  batches[4] = {"rename-crash", {}};
  batches[4].faults.crash_before_rename_rate = 0.9;

  storage::StorageFaultCounts injected;
  std::size_t lossless = 0;
  std::size_t lossy = 0;
  for (const auto& batch : batches) {
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
      scenario(seed, batch.faults, injected, lossless, lossy);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_EQ(lossless + lossy, 250u);
  // Every fault kind must actually have fired across its batch.
  EXPECT_GT(injected.torn_writes, 0u);
  EXPECT_GT(injected.bit_flips, 0u);
  EXPECT_GT(injected.truncations, 0u);
  EXPECT_GT(injected.duplicate_records, 0u);
  EXPECT_GT(injected.crashes_before_rename, 0u);
  // And the sweep must have seen both outcomes, or it proved nothing.
  EXPECT_GT(lossless, 0u);
  EXPECT_GT(lossy, 0u);
}

TEST(StorageCorruption, NoSilentCorruptionAcross250Scenarios) {
  sweep_fault_kinds(run_scenario);
}

TEST(StorageCorruption, NoSilentCorruptionAcrossSubmitFaults) {
  sweep_fault_kinds(run_submit_scenario);
}

TEST(StorageCorruption, PristineMediaRecoversByteIdentically) {
  auto scenario = sim::make_attack_scenario(3, 3, 2);
  auto& eng = *scenario.engine;
  engine::DurableSessionStore store;
  store.checkpoint(eng);
  eng.set_durability_observer(&store);
  recovery::RecoveryScheduler scheduler(eng);
  scheduler.execute(recovery::RecoveryAnalyzer(eng).analyze(scenario.malicious));
  eng.set_durability_observer(nullptr);

  engine::RecoveryReport report;
  const auto recovered = store.recover(report);
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_GT(report.wal_records_replayed, 0u);
  EXPECT_EQ(session_text(*recovered.engine), session_text(eng));
}

TEST(StorageCorruption, DuplicatedRecordsAreMaskedLosslessly) {
  // A retried append that lands twice is detected, skipped, and does
  // not cost a byte: damage seen, nothing lost.
  auto scenario = sim::make_attack_scenario(4, 3, 2);
  auto& eng = *scenario.engine;
  engine::DurableSessionStore store;
  store.checkpoint(eng);
  storage::StorageFaultConfig faults;
  faults.duplicate_record_rate = 1.0;
  storage::StorageFaultInjector injector(11, faults);
  store.set_fault_injector(&injector);
  eng.set_durability_observer(&store);
  recovery::RecoveryScheduler scheduler(eng);
  scheduler.execute(recovery::RecoveryAnalyzer(eng).analyze(scenario.malicious));
  eng.set_durability_observer(nullptr);

  ASSERT_GT(injector.counts().duplicate_records, 0u);
  engine::RecoveryReport report;
  const auto recovered = store.recover(report);
  EXPECT_TRUE(report.lossless()) << report.summary();
  EXPECT_TRUE(report.detected_damage());
  EXPECT_GT(report.wal_duplicates_skipped, 0u);
  EXPECT_EQ(session_text(*recovered.engine), session_text(eng));
}

TEST(StorageCorruption, CrashBeforeRenameKeepsOldGenerationAuthoritative) {
  // A checkpoint whose rename never lands is observable by the writer:
  // the store keeps extending the OLD WAL, so nothing is lost.
  auto scenario = sim::make_attack_scenario(5, 3, 2);
  auto& eng = *scenario.engine;
  engine::DurableSessionStore store;
  store.checkpoint(eng);
  storage::StorageFaultConfig faults;
  faults.crash_before_rename_rate = 1.0;
  storage::StorageFaultInjector injector(13, faults);
  store.set_fault_injector(&injector);
  eng.set_durability_observer(&store);

  recovery::RecoveryScheduler scheduler(eng);
  scheduler.execute(recovery::RecoveryAnalyzer(eng).analyze(scenario.malicious));
  store.snapshot(eng);  // crashes before rename, by construction
  eng.set_durability_observer(nullptr);
  ASSERT_GT(injector.counts().crashes_before_rename, 0u);

  engine::RecoveryReport report;
  const auto recovered = store.recover(report);
  EXPECT_TRUE(report.lossless()) << report.summary();
  EXPECT_EQ(report.snapshot_generation, 1u);
  EXPECT_EQ(session_text(*recovered.engine), session_text(eng));
}

TEST(StorageCorruption, DamagedWalIsExplicitlyLossyNeverWrong) {
  // Flip bits in every WAL append: replay stops at the damage and SAYS
  // SO; the recovered prefix is still a valid session.
  auto scenario = sim::make_attack_scenario(6, 3, 2);
  auto& eng = *scenario.engine;
  engine::DurableSessionStore store;
  store.checkpoint(eng);
  storage::StorageFaultConfig faults;
  faults.bit_flip_rate = 1.0;
  storage::StorageFaultInjector injector(17, faults);
  store.set_fault_injector(&injector);
  eng.set_durability_observer(&store);
  recovery::RecoveryScheduler scheduler(eng);
  scheduler.execute(recovery::RecoveryAnalyzer(eng).analyze(scenario.malicious));
  eng.set_durability_observer(nullptr);
  ASSERT_GT(injector.counts().bit_flips, 0u);

  engine::RecoveryReport report;
  const auto recovered = store.recover(report);
  ASSERT_NE(recovered.engine, nullptr);
  EXPECT_FALSE(report.lossless());
  EXPECT_TRUE(report.lost_updates);
  EXPECT_FALSE(report.wal_error.ok());
  // The recovered prefix must itself be a coherent session: it can be
  // re-serialised and re-loaded.
  std::stringstream round;
  engine::save_session(*recovered.engine, round);
  EXPECT_NO_THROW((void)engine::load_session(round.str()));
}

TEST(StorageCorruption, WalRecordIdGapStopsReplayExplicitly) {
  // Surgical media damage: remove a middle WAL record wholesale (a lost
  // sector replaced by a later, intact write). The survivors around the
  // hole parse fine; the id gap must stop replay and flag lost updates.
  auto scenario = sim::make_attack_scenario(7, 3, 2);
  auto& eng = *scenario.engine;
  engine::DurableSessionStore store;
  store.checkpoint(eng);
  eng.set_durability_observer(&store);
  recovery::RecoveryScheduler scheduler(eng);
  scheduler.execute(recovery::RecoveryAnalyzer(eng).analyze(scenario.malicious));
  eng.set_durability_observer(nullptr);

  const auto scan = storage::scan_wal(store.wal());
  ASSERT_TRUE(scan.error.ok());
  ASSERT_GE(scan.records.size(), 3u);  // base meta + at least two commits
  // Rebuild the medium without the first data record after the base.
  auto& wal = store.mutable_wal();
  wal = storage::wal_header();
  for (std::size_t i = 0; i < scan.records.size(); ++i) {
    if (i == 1) continue;
    storage::wal_append(wal, scan.records[i].type, scan.records[i].payload);
  }

  engine::RecoveryReport report;
  const auto recovered = store.recover(report);
  ASSERT_NE(recovered.engine, nullptr);
  EXPECT_TRUE(report.lost_updates);
  EXPECT_FALSE(report.lossless());
  EXPECT_EQ(report.wal_records_replayed, 0u);
}

TEST(StorageCorruption, AllSnapshotsDamagedIsUnrecoverableNotWrong) {
  auto scenario = sim::make_attack_scenario(8, 3, 2);
  auto& eng = *scenario.engine;
  engine::DurableSessionStore store;
  store.checkpoint(eng);
  for (auto& blob : store.mutable_snapshots().mutable_blobs()) {
    if (!blob.empty()) blob[blob.size() / 2] ^= 0x01;
  }
  engine::RecoveryReport report;
  const auto recovered = store.recover(report);
  EXPECT_TRUE(report.unrecoverable);
  EXPECT_TRUE(report.lost_updates);
  EXPECT_EQ(recovered.engine, nullptr);
}

TEST(StorageCorruption, RebasedWalOverFallbackSnapshotIsNeverLossless) {
  // The sharp edge: checkpoint N is intact, checkpoint N+1 is damaged
  // in a way the writer cannot observe (media lied after fsync), and
  // the WAL was re-based on N+1. Recovery falls back to N; it must NOT
  // claim losslessness -- whatever happened between N and N+1 is gone.
  auto scenario = sim::make_attack_scenario(2, 3, 2);
  auto& eng = *scenario.engine;
  engine::DurableSessionStore store;
  store.checkpoint(eng);
  eng.set_durability_observer(&store);
  recovery::RecoveryScheduler scheduler(eng);
  scheduler.execute(recovery::RecoveryAnalyzer(eng).analyze(scenario.malicious));
  store.snapshot(eng);  // generation 2, WAL re-based
  eng.set_durability_observer(nullptr);

  auto& blobs = store.mutable_snapshots().mutable_blobs();
  ASSERT_EQ(blobs.size(), 2u);
  blobs[1][blobs[1].size() / 2] ^= 0x01;  // damage generation 2

  engine::RecoveryReport report;
  const auto recovered = store.recover(report);
  ASSERT_NE(recovered.engine, nullptr);
  EXPECT_EQ(report.snapshot_generation, 1u);
  EXPECT_EQ(report.snapshot_fallbacks, 1u);
  EXPECT_TRUE(report.wal_base_mismatch);
  EXPECT_TRUE(report.lost_updates);
  EXPECT_FALSE(report.lossless());
}

TEST(StorageCorruption, InjectorIsDeterministicPerSeed) {
  storage::StorageFaultConfig faults;
  faults.torn_write_rate = 0.2;
  faults.bit_flip_rate = 0.2;
  faults.duplicate_record_rate = 0.2;
  const auto record = storage::encode_wal_record(
      storage::WalRecordType::kData, "deterministic payload");

  for (std::uint64_t seed : {1ull, 42ull, 999ull}) {
    storage::StorageFaultInjector a(seed, faults);
    storage::StorageFaultInjector b(seed, faults);
    auto wal_a = storage::wal_header();
    auto wal_b = storage::wal_header();
    for (std::uint64_t op = 0; op < 64; ++op) {
      EXPECT_EQ(a.on_wal_append(wal_a, record, op),
                b.on_wal_append(wal_b, record, op));
    }
    EXPECT_EQ(wal_a, wal_b) << "seed " << seed;
    EXPECT_EQ(a.counts().total(), b.counts().total());
  }
}

// --- Crash mid-step: the WAL batch contract ---
//
// The controller brackets each recovery step in begin_batch/end_batch,
// so ONE WAL record is the rewind unit. These tests pin the two crash
// windows around that contract: before the record is emitted, and
// mid-way through its media append. Recovery must always land exactly
// on a step boundary -- never replay half a step, never silently.

TEST(StorageCorruption, OpenBatchNeverEndedRewindsToStepBoundary) {
  auto scenario = sim::make_attack_scenario(5, 3, 2);
  auto& eng = *scenario.engine;
  engine::DurableSessionStore store;
  store.checkpoint(eng);
  eng.set_durability_observer(&store);
  const auto boundary_text = session_text(eng);
  const auto boundary_wal = store.wal();

  // One whole step's commits buffered in the open batch -- then the
  // process "dies" before end_batch(). Nothing reached the media.
  store.begin_batch();
  recovery::RecoveryScheduler scheduler(eng);
  scheduler.execute(recovery::RecoveryAnalyzer(eng).analyze(scenario.malicious));
  eng.set_durability_observer(nullptr);

  EXPECT_EQ(store.wal(), boundary_wal);  // media untouched mid-step
  engine::RecoveryReport report;
  const auto recovered = store.recover(report);
  ASSERT_NE(recovered.engine, nullptr);
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_EQ(report.wal_records_replayed, 0u);
  // Exactly the pre-step boundary: the in-flight step is gone whole,
  // not half-applied.
  EXPECT_EQ(session_text(*recovered.engine), boundary_text);
  EXPECT_NE(session_text(eng), boundary_text);  // the live state moved on
}

TEST(StorageCorruption, TornBatchRecordRewindsToStepBoundaryExplicitly) {
  auto scenario = sim::make_attack_scenario(6, 3, 2);
  auto& eng = *scenario.engine;
  engine::DurableSessionStore store;
  store.checkpoint(eng);
  eng.set_durability_observer(&store);
  const auto boundary_text = session_text(eng);
  const auto boundary_size = store.wal().size();

  store.begin_batch();
  recovery::RecoveryScheduler scheduler(eng);
  scheduler.execute(recovery::RecoveryAnalyzer(eng).analyze(scenario.malicious));
  store.end_batch();  // the whole step lands as ONE record...
  eng.set_durability_observer(nullptr);
  ASSERT_GT(store.wal().size(), boundary_size);

  // ...and the crash tears that record's append half-way.
  store.mutable_wal().resize(
      boundary_size + (store.wal().size() - boundary_size) / 2);

  engine::RecoveryReport report;
  const auto recovered = store.recover(report);
  ASSERT_NE(recovered.engine, nullptr);
  // Explicitly lossy -- never silent, never half a step.
  EXPECT_FALSE(report.lossless());
  EXPECT_TRUE(report.lost_updates);
  EXPECT_EQ(report.wal_error.kind, storage::WalErrorKind::kTornTail);
  EXPECT_FALSE(report.wal_parse_failure);
  EXPECT_EQ(report.wal_records_replayed, 0u);
  EXPECT_EQ(session_text(*recovered.engine), boundary_text);
}

TEST(StorageCorruption, MediaExportImportRoundTripsByteIdentically) {
  auto scenario = sim::make_attack_scenario(8, 3, 2);
  auto& eng = *scenario.engine;
  engine::DurableSessionStore store;
  store.checkpoint(eng);
  eng.set_durability_observer(&store);
  recovery::RecoveryScheduler scheduler(eng);
  scheduler.execute(recovery::RecoveryAnalyzer(eng).analyze(scenario.malicious));
  eng.set_durability_observer(nullptr);

  engine::DurableSessionStore twin;
  twin.import_media(store.export_media());
  EXPECT_EQ(twin.wal(), store.wal());
  EXPECT_EQ(twin.ops(), store.ops());
  engine::RecoveryReport a, b;
  auto from_store = store.recover(a);
  auto from_twin = twin.recover(b);
  ASSERT_NE(from_store.engine, nullptr);
  ASSERT_NE(from_twin.engine, nullptr);
  EXPECT_EQ(session_text(*from_store.engine), session_text(*from_twin.engine));

  // The follower's next submit writes the leader's bytes: the media
  // carries the catalog mark and the policy's snapshot size, and each
  // store renumbers specs from the engine it is attached to.
  const auto submit = [](engine::DurableSessionStore& media,
                         engine::Session& session) {
    session.specs.push_back(std::make_unique<wfspec::WorkflowSpec>(
        wfspec::parse_workflow("workflow late\n"
                               "task in writes late_in\n"
                               "task out reads late_in writes late_out\n"
                               "edge in out\n",
                               *session.catalog)));
    auto& live = *session.engine;
    live.set_durability_observer(&media);
    media.begin_batch();
    const auto run = live.start_run(*session.specs.back());
    live.inject_malicious(run, 0);
    live.run_all();
    media.checkpoint(live);
    live.set_durability_observer(nullptr);
  };
  submit(store, from_store);
  submit(twin, from_twin);
  const auto scan = storage::scan_wal(store.wal());
  ASSERT_FALSE(scan.records.empty());
  EXPECT_NE(scan.records.back().payload.find("spec "), std::string::npos)
      << "the submit must land as a WAL record, not a policy snapshot";
  EXPECT_EQ(twin.export_media(), store.export_media());

  // Future snapshots land identically too (same base counters).
  twin.snapshot(*from_twin.engine);
  store.snapshot(*from_store.engine);
  EXPECT_EQ(twin.wal(), store.wal());

  EXPECT_THROW(twin.import_media("not a media blob"), std::invalid_argument);
}

}  // namespace
