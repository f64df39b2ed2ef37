// Seeded partition-chaos campaigns for the replicated controller.
//
//   replication_chaos --seeds 25                  # seeds 1..25
//   replication_chaos --seed 42                   # reproduce one campaign
//   replication_chaos --seeds 25 --threads 8      # fan seeds over a pool
//   replication_chaos --replicas 5 --drop-rate 0.1
//   replication_chaos --seeds 25 --json-out replication_campaigns.json
//   replication_chaos --soak-s 600 --json-out soak.json   # nightly soak
//
// Each campaign drives one seeded request storm through a ReplicaGroup
// under network loss, seeded partition windows, and a seeded
// mid-trace leader kill, then gates EVERY replica's session/WAL/store
// bytes against the drive-once oracle (campaign.hpp). The suite JSON
// is byte-identical for every --threads value; failing seeds carry a
// ready-to-run repro line. Exit code 0 iff every campaign passed.
//
// Soak mode (--soak-s S): loops fresh seed batches until S wall
// seconds have elapsed, accumulating totals; the JSON artifact then
// carries the aggregate plus every failing seed's repro, so a nightly
// failure is reproducible from the uploaded file alone.
#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "selfheal/replication/campaign.hpp"
#include "selfheal/util/flags.hpp"
#include "selfheal/util/fsio.hpp"

using namespace selfheal;
using Clock = std::chrono::steady_clock;

namespace {

void emit(const std::string& json_out, const std::string& report) {
  if (json_out.empty()) {
    std::cout << report;
  } else {
    util::write_file_atomic(json_out, report);
  }
}

void print_failures(const replication::ReplicationCampaignSuite& suite) {
  for (const auto& r : suite.results) {
    if (r.passed()) continue;
    std::cout << "  FAIL seed " << r.seed << ": " << r.failure
              << "\n    repro: replication_chaos --seed " << r.seed << "\n";
  }
}

}  // namespace

int run(const util::Flags& flags) {
  const std::uint64_t first_seed = flags.get_count("seed", 1);
  const auto count = flags.get_count("seeds", flags.has("seed") ? 1 : 25);
  const auto threads = flags.get_count("threads", 1);

  auto base = replication::default_replication_campaign(first_seed);
  base.replicas = flags.get_count("replicas", base.replicas);
  base.submissions = flags.get_count("submissions", base.submissions);
  base.drop_rate = flags.get_double("drop-rate", base.drop_rate);
  base.delay_rate = flags.get_double("delay-rate", base.delay_rate);
  base.duplicate_rate = flags.get_double("dup-rate", base.duplicate_rate);
  base.partitions = flags.get_bool("partitions", base.partitions);
  base.node_kills = flags.get_bool("kills", base.node_kills);
  base.snapshot_every = static_cast<std::uint32_t>(
      flags.get_count("snapshot-every", base.snapshot_every));

  const std::string json_out = flags.get("json-out", "");
  const double soak_s = flags.get_double("soak-s", 0.0);
  flags.done();

  if (soak_s <= 0.0) {
    const auto suite =
        replication::run_replication_campaigns(first_seed, count, base, threads);
    emit(json_out, suite.to_json("replication_chaos"));
    std::cout << "replication_chaos: " << suite.passed << "/"
              << suite.results.size() << " campaigns passed ("
              << suite.mid_recovery_failovers << " mid-recovery failovers)\n";
    print_failures(suite);
    return suite.all_passed() ? 0 : 1;
  }

  // Soak: fresh seed batches until the wall-clock budget runs out.
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(soak_s);
  std::uint64_t next_seed = first_seed;
  std::size_t batches = 0, campaigns = 0, passed = 0;
  std::size_t mid_recovery = 0;
  std::vector<std::pair<std::uint64_t, std::string>> failures;
  do {
    const auto suite =
        replication::run_replication_campaigns(next_seed, count, base, threads);
    ++batches;
    campaigns += suite.results.size();
    passed += suite.passed;
    mid_recovery += suite.mid_recovery_failovers;
    for (const auto& r : suite.results) {
      if (!r.passed()) failures.emplace_back(r.seed, r.failure);
    }
    print_failures(suite);
    next_seed += count;
  } while (Clock::now() < deadline);

  std::ostringstream report;
  report << "{\n  \"harness\": \"replication_soak\",\n"
         << "  \"schema_version\": 1,\n  \"batches\": " << batches
         << ",\n  \"campaigns\": " << campaigns << ",\n  \"passed\": " << passed
         << ",\n  \"failed\": " << failures.size()
         << ",\n  \"mid_recovery_failovers\": " << mid_recovery
         << ",\n  \"failing_seeds\": [\n";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    report << "    {\"seed\": " << failures[i].first
           << ", \"repro\": \"replication_chaos --seed " << failures[i].first
           << "\"}" << (i + 1 < failures.size() ? "," : "") << "\n";
  }
  report << "  ]\n}\n";
  emit(json_out, report.str());
  std::cout << "replication_chaos soak: " << passed << "/" << campaigns
            << " campaigns passed over " << batches << " batches\n";
  return failures.empty() ? 0 : 1;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, run); }
