// In-process client for the workflow service daemon.
//
// A ServiceClient binds one tenant handle and speaks the real wire
// protocol: call() encodes the Request through encode_frame() and submits
// the frame -- so client traffic exercises exactly the framing, checksum,
// and admission path an external transport would, with no sockets in the
// loop. call() blocks: it retries admission through backpressure
// ("queue_full" / "byte_budget"), pumps the daemon inline when it has no
// workers, and returns the final Response. Permanent rejections
// ("quarantined", "draining", ...) come back as a failed Response carrying
// the reason token, never an exception.
#pragma once

#include "selfheal/service/daemon.hpp"
#include "selfheal/service/request.hpp"

namespace selfheal::service {

class ServiceClient {
 public:
  ServiceClient(ServiceDaemon& daemon, TenantId tenant)
      : daemon_(&daemon), tenant_(tenant) {}

  /// Blocking round trip: retries backpressure rejections (pumping the
  /// daemon inline when it is not started), waits for completion.
  /// Permanent rejections return a Response with ok == false and the
  /// reason token in `error`.
  Response call(const Request& request);

 private:
  ServiceDaemon* daemon_;
  TenantId tenant_;
};

}  // namespace selfheal::service
