// Dominator analysis.
//
// In the paper's control-dependence definition (Section II.D), a task t_j
// is control dependent on t_i when t_j is avoidable (missing from at least
// one execution path) and t_i is a branch node (out-degree > 1) on the
// path from the start node to t_j — i.e. a branch node that *dominates*
// t_j. Dominators give exactly "on every path from start to t_j".
#pragma once

#include <vector>

#include "selfheal/graph/digraph.hpp"

namespace selfheal::graph {

/// Immediate-dominator tree computed with the Cooper-Harvey-Kennedy
/// iterative algorithm. idom(start) == start; unreachable nodes get
/// kInvalidNode.
class Dominators {
 public:
  Dominators(const Digraph& g, NodeId start);

  [[nodiscard]] NodeId idom(NodeId n) const;

  /// True iff every path from the start node to `n` passes through `d`.
  /// dominates(n, n) is true for reachable n.
  [[nodiscard]] bool dominates(NodeId d, NodeId n) const;

  [[nodiscard]] bool reachable(NodeId n) const;

 private:
  NodeId start_;
  std::vector<NodeId> idom_;
  std::vector<int> order_index_;  // reverse-postorder index, -1 if unreachable
};

}  // namespace selfheal::graph
