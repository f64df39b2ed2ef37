// Traversal algorithms over Digraph: reachability and transitive
// closure.
#pragma once

#include <vector>

#include "selfheal/graph/digraph.hpp"

namespace selfheal::graph {

/// All nodes reachable from `start` (including `start`).
[[nodiscard]] std::vector<bool> reachable_from(const Digraph& g, NodeId start);

/// All nodes that can reach `target` (including `target`).
[[nodiscard]] std::vector<bool> reaching(const Digraph& g, NodeId target);

/// Boolean transitive closure: closure[a][b] == true iff b reachable from a
/// by one or more edges.
[[nodiscard]] std::vector<std::vector<bool>> transitive_closure(const Digraph& g);

}  // namespace selfheal::graph
