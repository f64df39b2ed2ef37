#include "selfheal/util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace selfheal::util {

void parallel_for_index(std::size_t threads, std::size_t count,
                        const std::function<void(std::size_t)>& body) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  if (threads <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;
  const auto run = [&] {
    for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      try {
        body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
        next.store(count);  // abandon the indices nobody has claimed
      }
    }
  };

  const std::size_t executors = std::min(threads, count);
  std::vector<std::thread> helpers;
  helpers.reserve(executors - 1);
  for (std::size_t t = 1; t < executors; ++t) helpers.emplace_back(run);
  run();
  for (auto& helper : helpers) helper.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace selfheal::util
