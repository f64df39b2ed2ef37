#include "reference_frame.hpp"

#include <cstdio>
#include <sstream>

#include "selfheal/storage/crc32c.hpp"

namespace selfheal::testing {

using service::RequestKind;

std::string reference_encode_request(const service::Request& request) {
  std::ostringstream out;
  switch (request.kind) {
    case RequestKind::kSubmitRun: {
      out << "submit " << (request.run_name.empty() ? "run" : request.run_name)
          << "\n";
      for (const auto& attack : request.attacks) {
        out << "attack " << attack.task << " " << attack.incarnation << "\n";
      }
      std::size_t lines = 0;
      for (const char c : request.spec_dsl) lines += (c == '\n') ? 1 : 0;
      if (!request.spec_dsl.empty() && request.spec_dsl.back() != '\n') ++lines;
      out << "spec " << lines << "\n" << request.spec_dsl;
      if (!request.spec_dsl.empty() && request.spec_dsl.back() != '\n') {
        out << "\n";
      }
      break;
    }
    case RequestKind::kAlert:
      out << "alert " << request.alert_run << "\n";
      break;
    case RequestKind::kQuery:
      out << "query\n";
      break;
    case RequestKind::kDrain:
      out << "drain\n";
      break;
  }
  return out.str();
}

std::string reference_encode_frame(const service::Request& request) {
  const std::string payload = reference_encode_request(request);
  char header[64];
  std::snprintf(header, sizeof(header), "shf1 %zu %08x\n", payload.size(),
                storage::crc32c(payload));
  return std::string(header) + payload;
}

}  // namespace selfheal::testing
