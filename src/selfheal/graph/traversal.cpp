#include "selfheal/graph/traversal.hpp"

#include <deque>

namespace selfheal::graph {

namespace {
std::vector<bool> bfs(const Digraph& g, NodeId start, bool forward) {
  std::vector<bool> seen(g.node_count(), false);
  if (!g.valid(start)) return seen;
  std::deque<NodeId> queue{start};
  seen[static_cast<std::size_t>(start)] = true;
  while (!queue.empty()) {
    const NodeId n = queue.front();
    queue.pop_front();
    const auto& next = forward ? g.successors(n) : g.predecessors(n);
    for (NodeId m : next) {
      if (!seen[static_cast<std::size_t>(m)]) {
        seen[static_cast<std::size_t>(m)] = true;
        queue.push_back(m);
      }
    }
  }
  return seen;
}
}  // namespace

std::vector<bool> reachable_from(const Digraph& g, NodeId start) {
  return bfs(g, start, /*forward=*/true);
}

std::vector<bool> reaching(const Digraph& g, NodeId target) {
  return bfs(g, target, /*forward=*/false);
}

std::vector<std::vector<bool>> transitive_closure(const Digraph& g) {
  std::vector<std::vector<bool>> closure(g.node_count());
  for (std::size_t n = 0; n < g.node_count(); ++n) {
    auto seen = reachable_from(g, static_cast<NodeId>(n));
    // Reachability includes the start node; the closure relation is
    // "by one or more edges", so drop self unless on a cycle.
    bool self_cycle = false;
    for (NodeId m : g.successors(static_cast<NodeId>(n))) {
      if (static_cast<std::size_t>(m) == n) self_cycle = true;
    }
    if (!self_cycle) {
      // Self stays true only if n participates in a longer cycle.
      bool in_cycle = false;
      for (NodeId m : g.successors(static_cast<NodeId>(n))) {
        if (reachable_from(g, m)[n]) in_cycle = true;
      }
      seen[n] = in_cycle;
    }
    closure[n] = std::move(seen);
  }
  return closure;
}

}  // namespace selfheal::graph
