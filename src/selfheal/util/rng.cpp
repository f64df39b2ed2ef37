#include "selfheal/util/rng.hpp"

#include <cmath>

namespace selfheal::util {

double Rng::exponential(double rate) noexcept {
  // Inverse CDF; guard against log(0).
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -std::log(u) / rate;
}

}  // namespace selfheal::util
