// Randomized chaos campaigns over the self-healing pipeline.
//
//   chaos_campaign --seeds 100                 # seeds 1..100, default mix
//   chaos_campaign --seed 42                   # reproduce one campaign
//   chaos_campaign --seeds 100 --threads 8     # fan seeds over a pool
//   chaos_campaign --seeds 100 --storage-faults  # + storage corruption
//   chaos_campaign --seeds 100 --json-out r.json --metrics-out m.jsonl
//
// The report is byte-identical for every --threads value (campaigns are
// independent and land in per-seed slots).
//
// Every campaign injects IDS imperfection (false positives / negatives /
// duplicates), task-level faults (transient retries, permanent aborts),
// and controller crash/restart cycles, then asserts strict correctness,
// plan byte-identity across restarts, and store byte-identity against a
// crash-free twin. Exit code 0 iff every campaign passed; each failing
// seed is printed with a one-line repro command.
#include <fstream>
#include <iostream>
#include <string>

#include "selfheal/chaos/campaign.hpp"
#include "selfheal/obs/artifacts.hpp"
#include "selfheal/util/flags.hpp"
#include "selfheal/util/fsio.hpp"

using namespace selfheal;

int run(const util::Flags& flags) {
  obs::init_from_flags(flags);

  const std::uint64_t first_seed = flags.get_count("seed", 1);
  const auto count = flags.get_count("seeds", flags.has("seed") ? 1 : 100);

  chaos::CampaignConfig base = chaos::default_campaign(first_seed);
  base.n_workflows = flags.get_count("workflows", base.n_workflows);
  base.n_attacks = flags.get_count("attacks", base.n_attacks);
  base.ids.false_positive_rate =
      flags.get_double("fp-rate", base.ids.false_positive_rate);
  base.ids.coverage = flags.get_double("coverage", base.ids.coverage);
  base.task_faults.transient_rate =
      flags.get_double("transient-rate", base.task_faults.transient_rate);
  base.task_faults.permanent_rate =
      flags.get_double("permanent-rate", base.task_faults.permanent_rate);
  base.crash.enabled = flags.get_bool("crashes", base.crash.enabled);
  base.crash.crash_prob = flags.get_double("crash-prob", base.crash.crash_prob);
  const bool storage_faults = flags.get_bool("storage-faults", false);
  if (storage_faults) {
    // Route crashes through the durable storage layer with the default
    // corruption mix (overridable per rate below).
    base = [&] {
      auto with_storage = chaos::default_storage_campaign(first_seed);
      with_storage.n_workflows = base.n_workflows;
      with_storage.n_attacks = base.n_attacks;
      with_storage.ids = base.ids;
      with_storage.task_faults = base.task_faults;
      with_storage.crash.enabled = base.crash.enabled;
      return with_storage;
    }();
    base.crash.crash_prob =
        flags.get_double("crash-prob", base.crash.crash_prob);
    auto& f = base.storage.faults;
    f.torn_write_rate = flags.get_double("torn-rate", f.torn_write_rate);
    f.bit_flip_rate = flags.get_double("flip-rate", f.bit_flip_rate);
    f.truncation_rate = flags.get_double("truncate-rate", f.truncation_rate);
    f.duplicate_record_rate =
        flags.get_double("duplicate-rate", f.duplicate_record_rate);
    f.crash_before_rename_rate =
        flags.get_double("rename-crash-rate", f.crash_before_rename_rate);
  }

  const auto threads = flags.get_count("threads", 1);
  const std::string json_out = flags.get("json-out", "");
  flags.done();
  const auto suite = chaos::run_campaigns(first_seed, count, base, threads);

  const std::string repro_prefix =
      storage_faults ? "chaos_campaign --storage-faults" : "chaos_campaign";
  const std::string report = suite.to_json(repro_prefix);
  if (!json_out.empty()) {
    util::write_file_atomic(json_out, report);
  } else {
    std::cout << report;
  }

  std::cout << "chaos_campaign: " << suite.passed << "/" << suite.results.size()
            << " campaigns passed\n";
  for (const auto& r : suite.results) {
    if (r.passed()) continue;
    std::cout << "  FAIL seed " << r.seed << ": " << r.failure
              << "\n    repro: " << repro_prefix << " --seed " << r.seed << "\n";
  }

  obs::flush_from_flags(flags);
  return suite.all_passed() ? 0 : 1;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, run); }
