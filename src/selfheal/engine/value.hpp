// Deterministic task semantics.
//
// Every task's outputs are a pure hash-mix of (workflow name, task name,
// output object, incarnation, values read). This gives the reproduction
// an *oracle*: re-running any workflow over clean inputs yields bit-equal
// results, so "incorrect data" (Axiom 1) is decidable by comparison with
// a clean re-execution, and the strict-correctness criteria of
// Definition 2 are mechanically checkable in tests.
//
// A malicious execution corrupts outputs with a fixed involution so that
// attacks are deterministic too (tests can replay them exactly).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "selfheal/util/rng.hpp"
#include "selfheal/wfspec/object_catalog.hpp"

namespace selfheal::engine {

using Value = std::int64_t;

/// Initial (version 0) value of a data object: a function of the object
/// id only, so independent engines over the same catalog agree.
[[nodiscard]] Value initial_value(wfspec::ObjectId object);

/// Stable 64-bit seed for a task, derived from workflow and task names.
[[nodiscard]] std::uint64_t task_seed(const std::string& workflow_name,
                                      const std::string& task_name);

/// The value a (benign) task writes to `object`, as a function of its
/// seed, the output object, its incarnation (loop visit count), and the
/// values it read, in read-set order.
[[nodiscard]] Value compute_output(std::uint64_t seed, wfspec::ObjectId object,
                                   int incarnation,
                                   std::span<const Value> read_values);
/// The same, for a literal read list.
[[nodiscard]] inline Value compute_output(std::uint64_t seed, wfspec::ObjectId object,
                                          int incarnation,
                                          std::initializer_list<Value> read_values) {
  return compute_output(seed, object, incarnation,
                        std::span<const Value>(read_values.begin(), read_values.size()));
}

/// Attacker corruption: a deterministic involution (corrupt(corrupt(v))
/// == v) that never fixes a value.
[[nodiscard]] Value corrupt(Value v);

/// Branch choice from the selector object's value: an index in
/// [0, n_choices). n_choices must be >= 1.
[[nodiscard]] std::size_t choose_branch(Value selector_value, std::size_t n_choices);

}  // namespace selfheal::engine
