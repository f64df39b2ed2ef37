// The reference shf1 encoder: the ostringstream/snprintf encoder that
// service::encode_request and service::encode_frame replaced. Kept only
// as the specification of the wire bytes: the differential test holds
// the production encoders to it frame for frame.
#pragma once

#include <string>

#include "selfheal/service/request.hpp"

namespace selfheal::testing {

/// The request payload, as service::encode_request must write it.
[[nodiscard]] std::string reference_encode_request(const service::Request& request);

/// The framed request, as service::encode_frame must write it.
[[nodiscard]] std::string reference_encode_frame(const service::Request& request);

}  // namespace selfheal::testing
