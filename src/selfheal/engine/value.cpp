#include "selfheal/engine/value.hpp"

namespace selfheal::engine {

namespace {
std::uint64_t hash_string(const std::string& s) {
  // FNV-1a, then strengthened with splitmix64.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return util::splitmix64(h);
}
}  // namespace

Value initial_value(wfspec::ObjectId object) {
  return static_cast<Value>(
      util::mix64(0x1717c0de00000000ULL, static_cast<std::uint64_t>(object)));
}

std::uint64_t task_seed(const std::string& workflow_name, const std::string& task_name) {
  return util::mix64(hash_string(workflow_name), hash_string(task_name));
}

Value compute_output(std::uint64_t seed, wfspec::ObjectId object, int incarnation,
                     std::span<const Value> read_values) {
  std::uint64_t acc = util::mix64(seed, static_cast<std::uint64_t>(object));
  acc = util::mix64(acc, static_cast<std::uint64_t>(incarnation));
  for (const Value v : read_values) {
    acc = util::mix64(acc, static_cast<std::uint64_t>(v));
  }
  return static_cast<Value>(acc);
}

Value corrupt(Value v) {
  // XOR with a constant is an involution and has no fixed points.
  return v ^ static_cast<Value>(0xbadc0ffee0ddf00dULL);
}

std::size_t choose_branch(Value selector_value, std::size_t n_choices) {
  // Re-mix so adjacent selector values spread across branches.
  const auto h = util::splitmix64(static_cast<std::uint64_t>(selector_value));
  return static_cast<std::size_t>(h % n_choices);
}

}  // namespace selfheal::engine
