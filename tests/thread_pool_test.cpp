#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "selfheal/util/thread_pool.hpp"

namespace {

using selfheal::util::parallel_for_index;

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  // 0 asks for the hardware thread count.
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{8}, std::size_t{0}}) {
    std::vector<std::atomic<int>> hits(257);
    parallel_for_index(threads, hits.size(),
                       [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "threads=" << threads;
  }
}

TEST(ThreadPool, IndexedWritesAreDeterministic) {
  // The determinism contract: results written by index are identical
  // for any thread count.
  const std::size_t n = 100;
  auto run = [n](std::size_t threads) {
    std::vector<double> out(n);
    parallel_for_index(threads, n, [&](std::size_t i) {
      double acc = 0.0;
      for (std::size_t k = 0; k <= i; ++k) acc += static_cast<double>(k * k) * 1e-3;
      out[i] = acc;
    });
    return out;
  };
  const auto serial = run(1);
  for (std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{8},
                              std::size_t{0}}) {
    EXPECT_EQ(run(threads), serial) << "threads=" << threads;
  }
}

TEST(ThreadPool, PropagatesTheFirstException) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    std::vector<std::atomic<int>> hits(128);
    EXPECT_THROW(parallel_for_index(threads, hits.size(),
                                    [&](std::size_t i) {
                                      hits[i].fetch_add(1);
                                      if (i == 17) throw std::runtime_error("boom");
                                    }),
                 std::runtime_error);
    // The throwing index ran; abandoned indices may not have, but no
    // index ran twice.
    EXPECT_EQ(hits[17].load(), 1) << "threads=" << threads;
    for (const auto& h : hits) EXPECT_LE(h.load(), 1) << "threads=" << threads;
  }
  // Only the first of several exceptions escapes, after every thread
  // has joined.
  std::atomic<int> thrown{0};
  EXPECT_THROW(parallel_for_index(4, 64,
                                  [&](std::size_t) {
                                    thrown.fetch_add(1);
                                    throw std::invalid_argument("each");
                                  }),
               std::invalid_argument);
  EXPECT_GE(thrown.load(), 1);
  EXPECT_LE(thrown.load(), 4);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  parallel_for_index(1, 5, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ZeroCountIsANoop) {
  bool ran = false;
  parallel_for_index(4, 0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
  // A count of 1 runs inline on the caller whatever the thread count.
  const auto caller = std::this_thread::get_id();
  int runs = 0;
  parallel_for_index(8, 1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++runs;
  });
  EXPECT_EQ(runs, 1);
}

TEST(ParallelForIndex, CoversAllThreadCounts) {
  // More threads than indices: min(threads, count) executors.
  for (std::size_t threads : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{7}, std::size_t{64}}) {
    std::vector<std::atomic<int>> hits(33);
    parallel_for_index(threads, hits.size(),
                       [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "threads=" << threads;
  }
}

}  // namespace
