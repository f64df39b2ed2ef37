// Mixed-configuration soak: many random scenarios through the FULL
// controller path with strategies, granularities, batching, loops, and
// benign runs submitted mid-recovery, all verified against the oracle.
// (A 400-seed version of each sweep runs clean; these are the ctest-
// sized slices.)
#include <gtest/gtest.h>

#include "selfheal/recovery/controller.hpp"
#include "selfheal/recovery/correctness.hpp"
#include "selfheal/sim/workload.hpp"

namespace {

using namespace selfheal;

class MixedSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MixedSoak, ControllerPathWithInterleavedSubmissions) {
  const auto seed = GetParam();
  sim::WorkloadConfig workload;
  workload.branch_prob = 0.5;
  workload.shared_object_prob = 0.4;
  workload.loop_prob = (seed % 3 == 0) ? 1.0 : 0.0;
  engine::EngineConfig engine_config;
  engine_config.max_incarnations = 512;
  if (seed % 5 == 0) {
    engine_config.interleave = engine::Interleave::kRandom;
    engine_config.seed = seed;
  }

  auto scenario = sim::make_attack_scenario(seed, 4, 3, workload, engine_config);
  if (scenario.malicious.empty()) GTEST_SKIP();

  recovery::ControllerConfig config;
  config.granularity = (seed % 2) ? recovery::BlockingGranularity::kPerTask
                                  : recovery::BlockingGranularity::kWholeRun;
  if (seed % 3 == 0) {
    config.strategy = recovery::ConcurrencyStrategy::kMultiVersion;
  }
  recovery::SelfHealingController controller(*scenario.engine, config);

  util::Rng rng(seed ^ 0x5511);
  sim::WorkloadGenerator generator(*scenario.catalog, workload);
  for (std::size_t i = 0; i < scenario.malicious.size(); ++i) {
    ids::Alert alert;
    alert.malicious.push_back(scenario.malicious[i]);
    controller.submit_alert(alert);
    if (i % 2 == 0) {
      controller.scan_one();  // partial progress between submissions
      scenario.specs.push_back(std::make_unique<wfspec::WorkflowSpec>(
          generator.generate("late" + std::to_string(i), rng)));
      controller.submit_run(*scenario.specs.back());
    }
  }
  controller.drain();
  ASSERT_EQ(controller.state(), recovery::SystemState::kNormal);

  const auto report = recovery::CorrectnessChecker(*scenario.engine).check();
  EXPECT_TRUE(report.strict_correct()) << "seed " << seed << ": " << report.summary;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixedSoak, ::testing::Range<std::uint64_t>(1, 61));

}  // namespace
