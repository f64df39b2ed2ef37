// Commit-latency and failover bench for the replicated recovery
// controller (BENCH_replication.json; exact-gated by perf_compare.py).
//
//   replication_load --json-out BENCH_replication.json
//   replication_load --replicas 5 --submissions 16
//
// Two sweeps, both measured in TRANSPORT ROUNDS (the fabric's virtual
// clock), so every latency number is a pure function of the seed and
// byte-stable across hosts -- only wall_ms is host wall clock, and it
// is watched (3x warning), never gated.
//
//   * loss_sweep: the same seeded request storm committed through a
//     quorum at increasing drop rates (0%, 5%, 15%, plus delay and
//     duplication). Reports commit p50/p99/max rounds, message counts,
//     elections, and the oracle verdict (every replica byte-identical
//     to the drive-once replay). Commit latency rising with loss is
//     the retransmission cost made visible; all_identical flipping
//     false is a replication bug.
//
//   * failover_sweep: per cluster size, a deterministic scenario that
//     kills the leader mid-recovery (the kill commit index is found by
//     a deterministic forward search, so the scenario never silently
//     degrades into a boring idle-time kill). Reports rounds from the
//     kill to the next committed entry (failover_p50/max) and the
//     recovered_on_new_leader verdict: the remaining recovery steps
//     committed on another node and every replica still matches the
//     oracle.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "selfheal/replication/campaign.hpp"
#include "selfheal/replication/group.hpp"
#include "selfheal/service/loadgen.hpp"
#include "selfheal/util/flags.hpp"
#include "selfheal/util/fsio.hpp"

using namespace selfheal;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::uint64_t kLossSalt = 0x10ad5a17ULL;
constexpr std::uint64_t kFailoverSalt = 0xfa110e5a17ULL;

/// Nearest-rank percentile over round counts: stays integral, so the
/// JSON value is exact-gateable.
std::uint64_t round_percentile(std::vector<std::uint64_t> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(p * n));
  if (rank == 0) rank = 1;
  return values[std::min(rank - 1, values.size() - 1)];
}

const char* json_bool(bool b) { return b ? "true" : "false"; }

struct LossRow {
  std::uint64_t loss_pct = 0;
  std::size_t replicas = 0;
  std::size_t submissions = 0;
  std::uint64_t commits = 0;
  std::uint64_t steps_committed = 0;
  std::uint64_t commit_p50_rounds = 0;
  std::uint64_t commit_p99_rounds = 0;
  std::uint64_t commit_max_rounds = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t elections = 0;
  bool all_identical = false;
  double wall_ms = 0;
};

struct FailoverRow {
  std::size_t replicas = 0;
  std::uint64_t kill_at = 0;  // commit index the search settled on
  std::uint64_t failover_p50_rounds = 0;
  std::uint64_t failover_max_rounds = 0;
  std::uint64_t commits = 0;
  std::uint64_t steps_committed = 0;
  std::uint64_t elections = 0;
  bool mid_recovery_failover = false;
  bool recovered_on_new_leader = false;
  double wall_ms = 0;
};

struct RunOutcome {
  replication::GroupStats stats;
  replication::TransportStats transport;
  std::uint64_t rounds = 0;
  bool all_identical = false;
  double wall_ms = 0;
};

/// Drives one seeded storm through a fresh group, converges the
/// cluster, and gates every replica against the drive-once oracle.
RunOutcome run_storm(const replication::ReplicaGroupConfig& group_config,
                     const std::vector<service::TimedRequest>& trace,
                     const service::TenantEndState& oracle,
                     std::uint64_t kill_at, std::uint64_t restart_after) {
  replication::ReplicaGroup group(group_config);
  if (kill_at > 0) group.schedule_kill_leader(kill_at, restart_after);
  const auto t0 = Clock::now();
  for (const auto& timed : trace) group.drive(timed.request);
  group.heal();
  for (std::size_t i = 0; i < group.replicas(); ++i) {
    const auto id = static_cast<replication::NodeId>(i);
    if (!group.transport().alive(id)) group.restart(id);
  }
  group.sync();
  RunOutcome out;
  out.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0)
                    .count();
  out.stats = group.stats();
  out.transport = group.transport().stats();
  out.rounds = group.transport().round();
  out.all_identical = true;
  for (std::size_t i = 0; i < group.replicas(); ++i) {
    if (!group.capture(static_cast<replication::NodeId>(i))
             .identical(oracle)) {
      out.all_identical = false;
    }
  }
  return out;
}

std::vector<service::TimedRequest> storm_trace(std::uint64_t seed,
                                               std::size_t submissions) {
  service::StormConfig storm;
  storm.seed = seed;
  storm.submissions = submissions;
  storm.attack_p_quiet = 0.15;
  storm.attack_p_burst = 0.9;
  return service::make_tenant_trace(storm, /*tenant=*/0);
}

void write_json(const std::string& path, const std::vector<LossRow>& loss,
                const std::vector<FailoverRow>& failover) {
  std::string out;
  out += "{\n  \"bench\": \"replication_load\",\n  \"schema_version\": 1,\n";
  out += "  \"loss_sweep\": [\n";
  for (std::size_t i = 0; i < loss.size(); ++i) {
    const auto& r = loss[i];
    char buf[768];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"loss_pct\": %llu, \"replicas\": %zu, \"submissions\": %zu, "
        "\"commits\": %llu, \"steps_committed\": %llu, "
        "\"commit_p50_rounds\": %llu, \"commit_p99_rounds\": %llu, "
        "\"commit_max_rounds\": %llu, \"rounds\": %llu, "
        "\"messages_sent\": %llu, \"messages_dropped\": %llu, "
        "\"elections\": %llu, \"all_identical\": %s, \"wall_ms\": %g}%s\n",
        static_cast<unsigned long long>(r.loss_pct), r.replicas,
        r.submissions, static_cast<unsigned long long>(r.commits),
        static_cast<unsigned long long>(r.steps_committed),
        static_cast<unsigned long long>(r.commit_p50_rounds),
        static_cast<unsigned long long>(r.commit_p99_rounds),
        static_cast<unsigned long long>(r.commit_max_rounds),
        static_cast<unsigned long long>(r.rounds),
        static_cast<unsigned long long>(r.messages_sent),
        static_cast<unsigned long long>(r.messages_dropped),
        static_cast<unsigned long long>(r.elections),
        json_bool(r.all_identical), r.wall_ms,
        i + 1 < loss.size() ? "," : "");
    out += buf;
  }
  out += "  ],\n  \"failover_sweep\": [\n";
  for (std::size_t i = 0; i < failover.size(); ++i) {
    const auto& r = failover[i];
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"replicas\": %zu, \"kill_at\": %llu, "
        "\"failover_p50_rounds\": %llu, \"failover_max_rounds\": %llu, "
        "\"commits\": %llu, \"steps_committed\": %llu, \"elections\": %llu, "
        "\"mid_recovery_failover\": %s, \"recovered_on_new_leader\": %s, "
        "\"wall_ms\": %g}%s\n",
        r.replicas, static_cast<unsigned long long>(r.kill_at),
        static_cast<unsigned long long>(r.failover_p50_rounds),
        static_cast<unsigned long long>(r.failover_max_rounds),
        static_cast<unsigned long long>(r.commits),
        static_cast<unsigned long long>(r.steps_committed),
        static_cast<unsigned long long>(r.elections),
        json_bool(r.mid_recovery_failover),
        json_bool(r.recovered_on_new_leader), r.wall_ms,
        i + 1 < failover.size() ? "," : "");
    out += buf;
  }
  out += "  ]\n}\n";
  util::write_file_atomic(path, out);
}

}  // namespace

int run(const util::Flags& flags) {
  const std::uint64_t seed = flags.get_count("seed", 1);
  const auto replicas = flags.get_count("replicas", 3);
  const auto submissions = flags.get_count("submissions", 12);
  const std::string json_out = flags.get("json-out", "");
  flags.done();

  const service::TenantConfig tenant;
  const auto trace = storm_trace(seed, submissions);
  const auto oracle = service::run_drive_once_oracle(tenant, trace);
  if (!oracle.strict_correct) {
    std::cerr << "replication_load: oracle itself is not strict-correct\n";
    return 2;
  }

  // --- loss sweep: same storm, rising drop rate, no kills ---
  std::vector<LossRow> loss_rows;
  bool ok = true;
  for (const std::uint64_t loss_pct : {0ULL, 5ULL, 15ULL}) {
    replication::ReplicaGroupConfig group_config;
    group_config.replicas = replicas;
    group_config.tenant = tenant;
    group_config.transport.seed = seed ^ kLossSalt ^ (loss_pct * 977);
    group_config.transport.drop_rate =
        static_cast<double>(loss_pct) / 100.0;
    group_config.transport.delay_rate = 0.10;
    group_config.transport.duplicate_rate = 0.05;
    const auto run = run_storm(group_config, trace, oracle,
                               /*kill_at=*/0, /*restart_after=*/0);
    LossRow row;
    row.loss_pct = loss_pct;
    row.replicas = replicas;
    row.submissions = submissions;
    row.commits = run.stats.commits;
    row.steps_committed = run.stats.steps_committed;
    row.commit_p50_rounds = round_percentile(run.stats.commit_rounds, 0.50);
    row.commit_p99_rounds = round_percentile(run.stats.commit_rounds, 0.99);
    row.commit_max_rounds = round_percentile(run.stats.commit_rounds, 1.0);
    row.rounds = run.rounds;
    row.messages_sent = run.transport.sent;
    row.messages_dropped = run.transport.dropped;
    row.elections = run.stats.elections;
    row.all_identical = run.all_identical;
    row.wall_ms = run.wall_ms;
    ok = ok && row.all_identical;
    loss_rows.push_back(row);
  }

  // --- failover sweep: kill the leader mid-recovery, per cluster size.
  // The forward search over kill indices is deterministic (first index
  // whose kill lands while the world is mid-recovery), so the row never
  // quietly turns into an idle-time kill when trace shapes shift.
  std::vector<FailoverRow> failover_rows;
  for (const std::size_t cluster : {std::size_t{3}, std::size_t{5}}) {
    replication::ReplicaGroupConfig group_config;
    group_config.replicas = cluster;
    group_config.tenant = tenant;
    group_config.transport.seed = seed ^ kFailoverSalt ^ cluster;
    group_config.transport.drop_rate = 0.05;
    group_config.transport.delay_rate = 0.10;
    group_config.transport.duplicate_rate = 0.05;
    FailoverRow row;
    row.replicas = cluster;
    const std::uint64_t bound =
        static_cast<std::uint64_t>(trace.size()) * 2 + 4;
    for (std::uint64_t kill_at = 2; kill_at <= bound; ++kill_at) {
      const auto run = run_storm(group_config, trace, oracle, kill_at,
                                 /*restart_after=*/3);
      if (!run.stats.mid_recovery_failover) continue;
      row.kill_at = kill_at;
      row.failover_p50_rounds =
          round_percentile(run.stats.failover_rounds, 0.50);
      row.failover_max_rounds =
          round_percentile(run.stats.failover_rounds, 1.0);
      row.commits = run.stats.commits;
      row.steps_committed = run.stats.steps_committed;
      row.elections = run.stats.elections;
      row.mid_recovery_failover = true;
      row.recovered_on_new_leader =
          run.stats.elections >= 1 && run.all_identical;
      row.wall_ms = run.wall_ms;
      break;
    }
    ok = ok && row.mid_recovery_failover && row.recovered_on_new_leader;
    failover_rows.push_back(row);
  }

  for (const auto& r : loss_rows) {
    std::printf(
        "loss %3llu%%  commits %4llu  p50 %3llu  p99 %3llu rounds  "
        "msgs %6llu  identical %s\n",
        static_cast<unsigned long long>(r.loss_pct),
        static_cast<unsigned long long>(r.commits),
        static_cast<unsigned long long>(r.commit_p50_rounds),
        static_cast<unsigned long long>(r.commit_p99_rounds),
        static_cast<unsigned long long>(r.messages_sent),
        json_bool(r.all_identical));
  }
  for (const auto& r : failover_rows) {
    std::printf(
        "failover replicas %zu  kill@%llu  p50 %llu  max %llu rounds  "
        "new-leader %s\n",
        r.replicas, static_cast<unsigned long long>(r.kill_at),
        static_cast<unsigned long long>(r.failover_p50_rounds),
        static_cast<unsigned long long>(r.failover_max_rounds),
        json_bool(r.recovered_on_new_leader));
  }

  if (!json_out.empty()) write_json(json_out, loss_rows, failover_rows);
  return ok ? 0 : 1;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, run); }
