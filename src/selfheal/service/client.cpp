#include "selfheal/service/client.hpp"

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

namespace selfheal::service {

namespace {

/// Single-assignment completion slot shared between the submitting
/// thread and whichever thread runs the tenant's step.
class ResponseSlot {
 public:
  void fill(const Response& response) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      response_ = response;
      ready_ = true;
    }
    cv_.notify_all();
  }
  [[nodiscard]] bool ready() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ready_;
  }
  /// Blocks until fill(). Only safe when something else is driving the
  /// daemon (worker threads, or another thread pumping inline).
  const Response& wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return ready_; });
    return response_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool ready_ = false;
  Response response_;
};

struct CallResult {
  Ack ack;
  /// Null when the submission was rejected (no completion will fire).
  std::shared_ptr<ResponseSlot> slot;
};

/// Encodes and submits; on acceptance the slot receives the completion.
CallResult send(ServiceDaemon& daemon, TenantId tenant, const Request& request) {
  CallResult result;
  auto slot = std::make_shared<ResponseSlot>();
  const std::string frame = encode_frame(request);
  result.ack = daemon.submit(
      tenant, frame, [slot](const Response& response) { slot->fill(response); });
  if (result.ack.accepted) result.slot = std::move(slot);
  return result;
}

}  // namespace

Response ServiceClient::call(const Request& request) {
  for (;;) {
    CallResult result = send(*daemon_, tenant_, request);
    if (result.ack.accepted) {
      if (!daemon_->running()) {
        // Inline mode: this thread must do the daemon's work itself.
        while (!result.slot->ready() && daemon_->dispatch_once()) {
        }
      }
      return result.slot->wait();
    }
    const auto reason = result.ack.reason;
    if (reason == RejectReason::kQueueFull ||
        reason == RejectReason::kByteBudget) {
      // Backpressure: make room and retry.
      if (daemon_->running()) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      } else if (!daemon_->dispatch_once()) {
        // Nothing to pump and still rejected: the queue is wedged by
        // something that will never clear inline; report the rejection.
        Response response;
        response.ok = false;
        response.kind = request.kind;
        response.error = to_token(reason);
        return response;
      }
      continue;
    }
    Response response;
    response.ok = false;
    response.kind = request.kind;
    response.error = to_token(reason);
    return response;
  }
}

}  // namespace selfheal::service
