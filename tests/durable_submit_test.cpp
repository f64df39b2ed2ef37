// Durable submits: a submit is one WAL record that creates its catalog
// objects, spec and run, and checkpoint() writes a snapshot only by
// policy. After every step of a durable service trace, recovery from
// the media must be clean and byte-identical to the live engine; a
// damaged or contradictory submit record must lose explicitly, never
// silently.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "selfheal/engine/durable_session.hpp"
#include "selfheal/engine/session_io.hpp"
#include "selfheal/service/loadgen.hpp"
#include "selfheal/service/world.hpp"
#include "selfheal/storage/wal.hpp"
#include "selfheal/wfspec/parser.hpp"

namespace selfheal {
namespace {

const char* kPipelineDsl =
    "workflow pipeline\n"
    "task a writes x\n"
    "task b reads x writes y\n"
    "edge a b\n";

// New objects (q, r) and a spec text the pipeline submits never used.
const char* kAuditDsl =
    "workflow audit\n"
    "task read reads y writes q\n"
    "task sign reads q x writes r\n"
    "edge read sign\n";

std::string session_text(const engine::Engine& eng) {
  std::ostringstream out;
  engine::save_session(eng, out);
  return out.str();
}

service::Request submit(const char* dsl, const char* attack_task = nullptr) {
  service::Request request;
  request.kind = service::RequestKind::kSubmitRun;
  request.spec_dsl = dsl;
  if (attack_task != nullptr) request.attacks.push_back({attack_task, 1});
  return request;
}

/// recover() is clean and yields the live engine's session bytes.
::testing::AssertionResult recovers_live(const engine::DurableSessionStore& store,
                                         const engine::Engine& live) {
  engine::RecoveryReport report;
  const auto recovered = store.recover(report);
  if (!report.clean()) {
    return ::testing::AssertionFailure() << "not clean: " << report.summary();
  }
  if (session_text(*recovered.engine) != session_text(live)) {
    return ::testing::AssertionFailure()
           << "recovered session differs from the live one";
  }
  return ::testing::AssertionSuccess();
}

/// Rebuilds the WAL with its last record's payload passed through `edit`
/// (records stay well framed: the damage is in what they say).
void rewrite_last_record(std::string& wal,
                         const std::function<std::string(std::string)>& edit) {
  const auto scan = storage::scan_wal(wal);
  ASSERT_TRUE(scan.error.ok());
  ASSERT_GE(scan.records.size(), 2u);
  std::string out = storage::wal_header();
  for (std::size_t i = 0; i < scan.records.size(); ++i) {
    const auto& record = scan.records[i];
    storage::wal_append(out, record.type,
                        i + 1 == scan.records.size() ? edit(record.payload)
                                                     : record.payload);
  }
  wal = out;
}

/// A durable world holding one pipeline run, freshly snapshotted, whose
/// WAL then carries exactly one submit record: an audit run that adds
/// two objects and a spec.
struct OneSubmitRecord {
  service::TenantWorld world{service::TenantConfig{}};
  std::string session_before;  // the session the record extends
  std::size_t wal_before = 0;

  OneSubmitRecord() {
    world.apply(submit(kPipelineDsl, "a"));
    world.durable()->snapshot(world.engine());
    session_before = session_text(world.engine());
    wal_before = world.durable()->wal().size();
    world.apply(submit(kAuditDsl));
  }
  [[nodiscard]] engine::DurableSessionStore& store() { return *world.durable(); }
};

TEST(DurableSubmit, RecoveryMatchesLiveAfterEveryStep) {
  // Six storm traces, attacks on and off: after EVERY request and every
  // recovery step, the media alone must rebuild the live session.
  std::size_t checks = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const bool attacks : {true, false}) {
      service::StormConfig storm;
      storm.seed = seed;
      storm.submissions = 100;
      if (!attacks) {
        storm.attack_p_quiet = 0.0;
        storm.attack_p_burst = 0.0;
      }
      const auto trace = service::make_tenant_trace(storm, 0);
      service::TenantWorld world{service::TenantConfig{}};
      const auto& store = *world.durable();
      for (std::size_t i = 0; i < trace.size(); ++i) {
        while (!world.normal()) {
          world.apply_step();
          ASSERT_TRUE(recovers_live(store, world.engine()))
              << "seed " << seed << " attacks " << attacks
              << ", recovery step before request " << i;
          ++checks;
        }
        world.apply(trace[i].request);
        ASSERT_TRUE(recovers_live(store, world.engine()))
            << "seed " << seed << " attacks " << attacks << ", request " << i;
        ++checks;
      }
      while (!world.normal()) {
        world.apply_step();
        ASSERT_TRUE(recovers_live(store, world.engine()))
            << "seed " << seed << " attacks " << attacks << ", final drain";
        ++checks;
      }
      // The policy snapshotted a few times, not once per submit.
      EXPECT_GE(store.snapshots().size(), 3u) << "seed " << seed;
      EXPECT_LE(store.snapshots().size(), 16u) << "seed " << seed;
    }
  }
  EXPECT_GT(checks, 600u);
}

TEST(DurableSubmit, SpecNumberingIgnoresSpecObjectIdentity) {
  // One store sees every run share an interned spec, the other a fresh
  // parse per run (as a replay does): a spec's index is its DSL text, so
  // both write the same bytes -- and a second text gets the next index.
  const auto drive = [](bool intern) {
    wfspec::ObjectCatalog catalog;
    std::vector<std::unique_ptr<wfspec::WorkflowSpec>> specs;
    engine::Engine eng;
    engine::DurableSessionStore store;
    store.snapshot(eng);
    eng.set_durability_observer(&store);
    for (const char* dsl : {kPipelineDsl, kPipelineDsl, kAuditDsl, kPipelineDsl}) {
      if (!intern || dsl == kAuditDsl || specs.empty()) {
        specs.push_back(std::make_unique<wfspec::WorkflowSpec>(
            wfspec::parse_workflow(dsl, catalog)));
      }
      store.begin_batch();
      eng.start_run(intern && dsl != kAuditDsl ? *specs.front() : *specs.back());
      eng.run_all();
      store.end_batch();
    }
    eng.set_durability_observer(nullptr);
    EXPECT_TRUE(recovers_live(store, eng));
    return store.wal();
  };
  const auto interned = drive(true);
  EXPECT_EQ(interned, drive(false));
  EXPECT_NE(interned.find("spec 1\nworkflow audit\n"), std::string::npos);
  EXPECT_EQ(interned.find("spec 2\n"), std::string::npos);
}

TEST(DurableSubmit, PendingAttackMarkReachesTheWal) {
  // A mark injected into a run that has not executed yet lives only in
  // run control; the WAL must carry it without waiting for a commit.
  wfspec::ObjectCatalog catalog;
  const auto pipeline = wfspec::parse_workflow(kPipelineDsl, catalog);
  engine::Engine eng;
  engine::DurableSessionStore store;
  store.snapshot(eng);
  eng.set_durability_observer(&store);
  store.begin_batch();
  const auto run = eng.start_run(pipeline);
  eng.inject_malicious(run, pipeline.task_by_name("b"));
  store.end_batch();
  eng.set_durability_observer(nullptr);
  ASSERT_NE(session_text(eng).find("\ninject 0 1 1\n"), std::string::npos);
  EXPECT_TRUE(recovers_live(store, eng));
}

TEST(DurableSubmit, DuplicatedSubmitRecordIsMaskedLosslessly) {
  OneSubmitRecord fixture;
  auto& store = fixture.store();
  auto& wal = store.mutable_wal();
  const auto scan = storage::scan_wal(wal);
  ASSERT_EQ(scan.records.size(), 2u);  // base + the submit record
  const auto& record = scan.records.back().payload;
  ASSERT_NE(record.find("spec 1\n"), std::string::npos);
  ASSERT_NE(record.find("\nrun 1 1"), std::string::npos);
  storage::wal_append(wal, storage::WalRecordType::kData, record);

  engine::RecoveryReport report;
  const auto recovered = store.recover(report);
  EXPECT_TRUE(report.lossless()) << report.summary();
  EXPECT_EQ(report.wal_records_replayed, 1u);
  EXPECT_EQ(report.wal_duplicates_skipped, 1u);
  EXPECT_EQ(session_text(*recovered.engine),
            session_text(fixture.world.engine()));
}

TEST(DurableSubmit, TornOrTruncatedSubmitRecordLosesExplicitly) {
  for (const bool torn : {true, false}) {
    OneSubmitRecord fixture;
    auto& wal = fixture.store().mutable_wal();
    ASSERT_GT(wal.size(), fixture.wal_before);
    wal.resize(torn ? fixture.wal_before + (wal.size() - fixture.wal_before) / 2
                    : wal.size() - 3);

    engine::RecoveryReport report;
    const auto recovered = fixture.store().recover(report);
    ASSERT_NE(recovered.engine, nullptr);
    EXPECT_TRUE(report.lost_updates) << report.summary();
    EXPECT_FALSE(report.lossless());
    EXPECT_EQ(report.wal_error.kind, storage::WalErrorKind::kTornTail);
    EXPECT_EQ(report.wal_records_replayed, 0u);
    // The whole submit is gone -- never half of it.
    EXPECT_EQ(session_text(*recovered.engine), fixture.session_before);
  }
}

TEST(DurableSubmit, RunLineWithUnknownSpecIsParseFailure) {
  OneSubmitRecord fixture;
  rewrite_last_record(fixture.store().mutable_wal(), [](std::string payload) {
    const auto at = payload.find("\nrun 1 1");
    EXPECT_NE(at, std::string::npos);
    payload.replace(at, 8, "\nrun 1 7");
    return payload;
  });
  engine::RecoveryReport report;
  const auto recovered = fixture.store().recover(report);
  ASSERT_NE(recovered.engine, nullptr);
  EXPECT_TRUE(report.wal_parse_failure) << report.summary();
  EXPECT_TRUE(report.lost_updates);
  EXPECT_EQ(recovered.engine->run_count(), 1u);
}

TEST(DurableSubmit, ObjLineWithDisagreeingNameIsParseFailure) {
  OneSubmitRecord fixture;
  // Object 0 is "x"; a record naming it "q" contradicts the session.
  rewrite_last_record(fixture.store().mutable_wal(), [](std::string payload) {
    EXPECT_EQ(payload.rfind("obj 2 q\n", 0), 0u);
    return "obj 0 q\n" + payload.substr(8);
  });
  engine::RecoveryReport report;
  const auto recovered = fixture.store().recover(report);
  ASSERT_NE(recovered.engine, nullptr);
  EXPECT_TRUE(report.wal_parse_failure) << report.summary();
  EXPECT_TRUE(report.lost_updates);
  EXPECT_EQ(session_text(*recovered.engine), fixture.session_before);
}

TEST(DurableSubmit, EntryOfARunTheMediaLacksIsParseFailure) {
  OneSubmitRecord fixture;
  // Keep only the record's entries: they name run 1, which no run line
  // created.
  rewrite_last_record(fixture.store().mutable_wal(), [](std::string payload) {
    std::string entries;
    std::istringstream lines(payload);
    for (std::string line; std::getline(lines, line);) {
      if (line.rfind("entry ", 0) == 0) entries += line + "\n";
    }
    EXPECT_FALSE(entries.empty());
    entries.pop_back();
    return entries;
  });
  engine::RecoveryReport report;
  const auto recovered = fixture.store().recover(report);
  ASSERT_NE(recovered.engine, nullptr);
  EXPECT_TRUE(report.wal_parse_failure) << report.summary();
  EXPECT_EQ(session_text(*recovered.engine), fixture.session_before);
}

TEST(DurableSubmit, SpecNamingObjectsTheMediaLacksIsParseFailure) {
  OneSubmitRecord fixture;
  // Without its obj lines the audit spec would intern q and r itself,
  // at ids the media never gave them.
  rewrite_last_record(fixture.store().mutable_wal(), [](std::string payload) {
    EXPECT_EQ(payload.rfind("obj 2 q\nobj 3 r\n", 0), 0u);
    return payload.substr(16);
  });
  engine::RecoveryReport report;
  const auto recovered = fixture.store().recover(report);
  ASSERT_NE(recovered.engine, nullptr);
  EXPECT_TRUE(report.wal_parse_failure) << report.summary();
  EXPECT_EQ(session_text(*recovered.engine), fixture.session_before);
}

TEST(DurableSubmit, ControlLineValuesOutOfRangeAreParseFailures) {
  // The audit run's first control line, after its first task committed.
  // Task ids must not be negative, and visit counts and pending
  // incarnations must fit an int: narrowed, 4294967297 would replay as 1
  // and 4294967298 as 2.
  const std::string control = "\ncontrol 1 1 0 1 visits 0:1 pending\n";
  for (const char* edit : {"\ncontrol 1 1 0 1 visits -7:1 0:1 pending\n",
                           "\ncontrol 1 1 0 1 visits 0:4294967297 pending\n",
                           "\ncontrol 1 1 0 1 visits 0:1 pending 1:4294967298\n"}) {
    SCOPED_TRACE(edit);
    OneSubmitRecord fixture;
    rewrite_last_record(fixture.store().mutable_wal(), [&](std::string payload) {
      const auto at = payload.find(control);
      EXPECT_NE(at, std::string::npos) << payload;
      if (at != std::string::npos) payload.replace(at, control.size(), edit);
      return payload;
    });
    engine::RecoveryReport report;
    const auto recovered = fixture.store().recover(report);
    ASSERT_NE(recovered.engine, nullptr);
    EXPECT_TRUE(report.wal_parse_failure) << report.summary();
    EXPECT_TRUE(report.lost_updates);
  }
}

TEST(DurableSubmit, AbortedSubmitBatchKeepsNextSubmitRecoverable) {
  engine::Engine eng;
  wfspec::ObjectCatalog catalog;
  const auto pipeline = wfspec::parse_workflow(kPipelineDsl, catalog);
  engine::DurableSessionStore store;
  store.snapshot(eng);
  eng.set_durability_observer(&store);

  // Each submit below closes its batch as one record (what checkpoint()
  // does while the WAL is smaller than the newest snapshot).
  store.begin_batch();
  eng.start_run(pipeline);
  eng.run_all();
  store.end_batch();
  const auto wal_committed = store.wal();

  // A submit whose step threw: its objects, spec and run reached only
  // the open batch, which the exception path discards.
  const auto audit = wfspec::parse_workflow(kAuditDsl, catalog);
  store.begin_batch();
  eng.start_run(audit);
  eng.run_all();
  store.abort_batch();
  eng.set_durability_observer(nullptr);
  EXPECT_EQ(store.wal(), wal_committed);

  // Restart from the media and submit the same workflow again: the
  // record must re-create the objects the aborted batch had covered.
  engine::RecoveryReport report;
  auto restarted = store.recover(report);
  ASSERT_TRUE(report.clean()) << report.summary();
  ASSERT_EQ(restarted.engine->run_count(), 1u);
  auto& engine = *restarted.engine;
  engine.set_durability_observer(&store);
  restarted.specs.push_back(std::make_unique<wfspec::WorkflowSpec>(
      wfspec::parse_workflow(kAuditDsl, *restarted.catalog)));
  store.begin_batch();
  engine.start_run(*restarted.specs.back());
  engine.run_all();
  store.end_batch();
  engine.set_durability_observer(nullptr);

  EXPECT_TRUE(recovers_live(store, engine));
}

}  // namespace
}  // namespace selfheal
