// Strict-correctness checking (Definition 2).
//
// The engine's task semantics are deterministic, so there is an oracle:
// re-execute every run benignly over the SAME commit schedule (each
// run's logical slots in the effective view, advanced one Engine::step_run
// at a time in the replay order of replay_order.hpp) and compare. After
// a correct recovery:
//   * completeness (c1): every data object equals its oracle value --
//     no incorrect data exists;
//   * consistency (c4): each run's effective trace (task, incarnation
//     sequence) equals the oracle's trace -- the repaired execution is a
//     real execution path of the workflow specification;
//   * safety (c2+c3): every effective execution entry's written values
//     equal the oracle's values for that task instance -- no step of the
//     recovery (or of normal processing) produced incorrect data that
//     survived.
#pragma once

#include <string>
#include <vector>

#include "selfheal/engine/engine.hpp"

namespace selfheal::recovery {

struct CorrectnessReport {
  /// False when the check cannot run (some run still in flight).
  bool applicable = true;
  bool complete = true;    // Definition 2 criterion 1
  bool consistent = true;  // Definition 2 criterion 4
  bool safe = true;        // Definition 2 criteria 2+3 (surviving values)
  std::vector<wfspec::ObjectId> mismatched_objects;
  std::string summary;

  [[nodiscard]] bool strict_correct() const {
    return applicable && complete && consistent && safe;
  }
};

class CorrectnessChecker {
 public:
  /// The checker replays the engine's runs benignly on a private oracle
  /// engine. All runs must be complete (inactive).
  explicit CorrectnessChecker(const engine::Engine& engine) : engine_(&engine) {}

  [[nodiscard]] CorrectnessReport check() const;

  /// The oracle's final store values (index = object id), for debugging.
  [[nodiscard]] std::vector<engine::Value> oracle_store() const;

 private:
  /// Builds and runs the benign oracle engine.
  [[nodiscard]] engine::Engine build_oracle() const;

  const engine::Engine* engine_;
};

}  // namespace selfheal::recovery
