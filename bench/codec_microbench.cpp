// Micro-benchmarks of the shf1 wire codec: encoding a request into its
// frame and decoding the frame back, one frame per iteration, cycling
// through one storm trace's requests (the storm settings of
// bench/service_load and satbench: 300 submissions with their alerts).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "selfheal/service/loadgen.hpp"
#include "selfheal/service/request.hpp"

using namespace selfheal;

namespace {

std::vector<service::Request> storm_requests() {
  service::StormConfig storm;
  storm.seed = 1;
  storm.submissions = 300;
  storm.burst.lambda_quiet = 2.0;
  storm.burst.lambda_burst = 24.0;
  storm.burst.quiet_to_burst = 0.15;
  storm.burst.burst_to_quiet = 1.0;
  std::vector<service::Request> requests;
  for (auto& timed : service::make_tenant_trace(storm, 0)) {
    requests.push_back(std::move(timed.request));
  }
  return requests;
}

void BM_EncodeFrame(benchmark::State& state) {
  const auto requests = storm_requests();
  std::size_t next = 0;
  for (auto _ : state) {
    const std::string frame = service::encode_frame(requests[next]);
    benchmark::DoNotOptimize(frame.data());
    benchmark::ClobberMemory();
    if (++next == requests.size()) next = 0;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["requests"] = static_cast<double>(requests.size());
}
BENCHMARK(BM_EncodeFrame);

void BM_DecodeFrame(benchmark::State& state) {
  std::vector<std::string> frames;
  for (const auto& request : storm_requests()) {
    frames.push_back(service::encode_frame(request));
  }
  std::size_t next = 0;
  for (auto _ : state) {
    const service::Request request = service::decode_frame(frames[next]);
    benchmark::DoNotOptimize(request);
    if (++next == frames.size()) next = 0;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["requests"] = static_cast<double>(frames.size());
}
BENCHMARK(BM_DecodeFrame);

}  // namespace
