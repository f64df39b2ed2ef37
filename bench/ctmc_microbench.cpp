// Micro-benchmarks of the CTMC substrate: steady-state solvers (sparse
// banded GTH vs the dense GTH parity reference) and the uniformization
// transient, across STG sizes.
// Establishes that the Figures 4-6 harness runs at interactive speed
// even for the largest buffer sizes the paper sweeps (31x31 grids).
#include <benchmark/benchmark.h>

#include "selfheal/ctmc/recovery_stg.hpp"

using namespace selfheal;

namespace {

ctmc::RecoveryStg make_stg(std::size_t buffer) {
  ctmc::RecoveryStgConfig cfg;
  cfg.lambda = 1.0;
  cfg.mu1 = 15.0;
  cfg.xi1 = 20.0;
  cfg.alert_buffer = buffer;
  cfg.recovery_buffer = buffer;
  return ctmc::RecoveryStg(cfg);
}

void BM_SteadyStateGth(benchmark::State& state) {
  const auto stg = make_stg(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(stg.chain().steady_state());
  }
  state.SetComplexityN(static_cast<std::int64_t>(stg.state_count()));
}
BENCHMARK(BM_SteadyStateGth)->Arg(5)->Arg(10)->Arg(15)->Arg(30)->Complexity();

void BM_SteadyStateDenseGth(benchmark::State& state) {
  const auto stg = make_stg(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(stg.chain().steady_state_dense());
  }
}
BENCHMARK(BM_SteadyStateDenseGth)->Arg(5)->Arg(10)->Arg(15);

void BM_TransientStep(benchmark::State& state) {
  const auto stg = make_stg(15);
  const auto pi0 = stg.start_normal();
  const double horizon = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(stg.chain().transient_step(pi0, horizon));
  }
}
BENCHMARK(BM_TransientStep)->Arg(1)->Arg(10)->Arg(100);

void BM_CumulativeTime(benchmark::State& state) {
  const auto stg = make_stg(15);
  const auto pi0 = stg.start_normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(stg.chain().accumulate(pi0, 4.0, 1e-2).l.size());
  }
}
BENCHMARK(BM_CumulativeTime);

void BM_StgConstruction(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_stg(static_cast<std::size_t>(state.range(0)))
                                 .state_count());
  }
}
BENCHMARK(BM_StgConstruction)->Arg(15)->Arg(30);

}  // namespace
