// Heap allocations on the tenant step path. A steady-state recovery step
// reuses the controller's scratch, so it allocates only where history
// grows (the log, the dependence index, the store); a request allocates
// for its new run. An encoded shf1 frame is one allocation. This
// executable replaces the global operator new to count calls, so it is
// a test target of its own: the replacement reaches no other test.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "selfheal/service/loadgen.hpp"
#include "selfheal/service/request.hpp"
#include "selfheal/service/world.hpp"

namespace {
thread_local bool g_counting = false;
thread_local std::size_t g_allocations = 0;
}  // namespace

// Every unaligned form is replaced, so each allocation is counted once
// and every block is released by the matching free, in sanitizer
// builds too.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting) ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size) {
  if (void* p = operator new(size, std::nothrow)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

using namespace selfheal;

/// Allocations `fn` makes on this thread.
template <typename Fn>
std::size_t allocations_of(Fn&& fn) {
  const std::size_t before = g_allocations;
  g_counting = true;
  fn();
  g_counting = false;
  return g_allocations - before;
}

struct StepAllocations {
  std::size_t submissions = 0;
  std::size_t scans = 0;
  std::size_t requests = 0;  // allocations in apply()
  std::size_t steps = 0;     // allocations in apply_step()
};

/// Three volatile storm tenants, 300 submissions each, through the
/// drive-once oracle's loop: heal to NORMAL, then apply the next request.
StepAllocations volatile_storm() {
  StepAllocations total;
  for (std::uint64_t tenant = 0; tenant < 3; ++tenant) {
    service::StormConfig storm;
    storm.seed = 1000;
    storm.submissions = 300;
    const auto trace = service::make_tenant_trace(storm, tenant);
    service::TenantConfig config;
    config.durable = false;
    service::TenantWorld world(config);
    const auto heal = [&] {
      while (!world.normal()) {
        total.steps += allocations_of([&] { world.apply_step(); });
      }
    };
    for (const auto& timed : trace) {
      heal();
      total.requests += allocations_of([&] { world.apply(timed.request); });
      if (timed.request.kind == service::RequestKind::kSubmitRun) ++total.submissions;
    }
    heal();
    total.scans += world.stats().scans;
  }
  return total;
}

TEST(StepAllocations, RecoveryStepsAndRequestsStayWithinBudget) {
  const auto total = volatile_storm();
  ASSERT_EQ(total.submissions, 900u);
  ASSERT_GT(total.scans, 100u);  // the storm does recover
  const double per = static_cast<double>(total.submissions);
  const double steps = static_cast<double>(total.steps) / per;
  const double requests = static_cast<double>(total.requests) / per;
  std::printf("allocations per submission: recovery steps %.2f, requests %.2f "
              "(%zu scans)\n", steps, requests, total.scans);
  EXPECT_LE(steps, 6.0);
  EXPECT_LE(requests, 8.24);
}

TEST(FrameAllocations, OnePerEncodedFrame) {
  service::StormConfig storm;
  storm.seed = 1000;
  storm.submissions = 300;
  const auto trace = service::make_tenant_trace(storm, 0);
  const auto allocations = allocations_of([&] {
    for (const auto& timed : trace) (void)service::encode_frame(timed.request);
  });
  EXPECT_EQ(allocations, trace.size());
}

}  // namespace
