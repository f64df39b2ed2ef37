// The shf1 encoders: service::encode_request and service::encode_frame
// must write the bytes of the reference encoder (tests/support) for
// every request the load generator makes and for the edge cases, and a
// few frames are pinned as literal bytes, independently of both.
#include <climits>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "reference_frame.hpp"
#include "selfheal/service/loadgen.hpp"
#include "selfheal/service/request.hpp"

namespace selfheal {
namespace {

using service::AttackMark;
using service::Request;
using service::RequestKind;

Request submit(const std::string& name, const std::string& dsl,
               std::vector<AttackMark> attacks = {}) {
  Request request;
  request.kind = RequestKind::kSubmitRun;
  request.run_name = name;
  request.spec_dsl = dsl;
  request.attacks = std::move(attacks);
  return request;
}

Request of_kind(RequestKind kind) {
  Request request;
  request.kind = kind;
  return request;
}

Request alert(std::uint32_t run) {
  Request request = of_kind(RequestKind::kAlert);
  request.alert_run = run;
  return request;
}

void expect_reference_bytes(const Request& request) {
  EXPECT_EQ(service::encode_request(request),
            testing::reference_encode_request(request));
  EXPECT_EQ(service::encode_frame(request),
            testing::reference_encode_frame(request));
}

TEST(FrameCodec, MatchesTheReferenceOverStormAndCleanTraces) {
  std::size_t traces = 0;
  std::size_t frames = 0;
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    for (const bool storm : {true, false}) {
      service::StormConfig config;
      config.seed = seed;
      if (!storm) config.attack_p_quiet = config.attack_p_burst = 0.0;
      for (const auto& timed : service::make_tenant_trace(config, seed % 3)) {
        const Request& request = timed.request;
        ASSERT_EQ(service::encode_request(request),
                  testing::reference_encode_request(request))
            << "seed " << seed << (storm ? " storm" : " clean");
        ASSERT_EQ(service::encode_frame(request),
                  testing::reference_encode_frame(request))
            << "seed " << seed << (storm ? " storm" : " clean");
        ++frames;
      }
      ++traces;
    }
  }
  EXPECT_EQ(traces, 1000u);
  EXPECT_GT(frames, 64000u);
}

TEST(FrameCodec, MatchesTheReferenceOnEdgeCases) {
  const std::string dsl = "workflow w\ntask a writes x\n";
  expect_reference_bytes(submit("r", ""));
  expect_reference_bytes(submit("r", "\n"));
  expect_reference_bytes(submit("r", "workflow w\ntask a writes x"));
  expect_reference_bytes(submit("r", "workflow w\r\ntask a writes x\r\n"));
  expect_reference_bytes(submit("r", std::string("work\0flow w\n", 12)));
  expect_reference_bytes(submit("", dsl));
  expect_reference_bytes(submit("two words", dsl));
  expect_reference_bytes(submit(
      "r", dsl, {{"a", 0}, {"a", -1}, {"", INT_MAX}, {"b c", INT_MIN}}));
  std::vector<AttackMark> many;
  for (int i = 1; i <= 1500; ++i) many.push_back({"t" + std::to_string(i), i});
  expect_reference_bytes(submit("r", dsl, many));
  for (const std::uint32_t run : {0u, 9u, 10u, 99u, 100u, 4294967295u}) {
    expect_reference_bytes(alert(run));
  }
  // Query and drain ignore the submit fields.
  for (const auto kind : {RequestKind::kQuery, RequestKind::kDrain}) {
    Request request = submit("r", dsl, {{"a", 1}});
    request.kind = kind;
    request.alert_run = 7;
    expect_reference_bytes(request);
  }
  // Payloads on both sides of each change in the length field's width:
  // "submit r\nspec 1\n", the spec line and its newline.
  for (std::size_t width = 100; width <= 1000000; width *= 10) {
    for (std::size_t bytes = width - 2; bytes <= width + 2; ++bytes) {
      const Request request = submit("r", std::string(bytes - 17, 'x'));
      ASSERT_EQ(service::encode_request(request).size(), bytes);
      expect_reference_bytes(request);
    }
  }
}

// The wire format as literal bytes; the checksums were computed apart
// from this repository's CRC32C.
TEST(FrameGolden, SubmitWithTwoAttacks) {
  EXPECT_EQ(service::encode_frame(submit(
                "r0",
                "workflow w\ntask a writes x\ntask b reads x writes y\n"
                "edge a b\n",
                {{"a", 1}, {"b", 2}})),
            "shf1 99 a2e9c580\n"
            "submit r0\n"
            "attack a 1\n"
            "attack b 2\n"
            "spec 4\n"
            "workflow w\n"
            "task a writes x\n"
            "task b reads x writes y\n"
            "edge a b\n");
}

TEST(FrameGolden, SpecWithoutAFinalNewline) {
  EXPECT_EQ(service::encode_frame(submit("r1", "workflow w\ntask a writes x")),
            "shf1 44 9d201f89\n"
            "submit r1\n"
            "spec 2\n"
            "workflow w\n"
            "task a writes x\n");
}

TEST(FrameGolden, EmptyRunNameIsWrittenAsRun) {
  EXPECT_EQ(service::encode_frame(submit("", "workflow w\ntask a writes x\n")),
            "shf1 45 f3cf2627\n"
            "submit run\n"
            "spec 2\n"
            "workflow w\n"
            "task a writes x\n");
}

TEST(FrameGolden, AlertForTheLargestRunIndex) {
  EXPECT_EQ(service::encode_frame(alert(4294967295u)),
            "shf1 17 33815610\nalert 4294967295\n");
}

TEST(FrameGolden, QueryAndDrain) {
  EXPECT_EQ(service::encode_frame(of_kind(RequestKind::kQuery)),
            "shf1 6 116c26e0\nquery\n");
  EXPECT_EQ(service::encode_frame(of_kind(RequestKind::kDrain)),
            "shf1 6 b884ceff\ndrain\n");
}

}  // namespace
}  // namespace selfheal
