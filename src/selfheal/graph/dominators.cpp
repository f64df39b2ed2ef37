#include "selfheal/graph/dominators.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace selfheal::graph {

Dominators::Dominators(const Digraph& g, NodeId start)
    : start_(start), idom_(g.node_count(), kInvalidNode),
      order_index_(g.node_count(), -1) {
  if (!g.valid(start)) throw std::out_of_range("Dominators: invalid start node");

  // Reverse postorder via iterative DFS.
  std::vector<NodeId> postorder;
  postorder.reserve(g.node_count());
  std::vector<char> state(g.node_count(), 0);  // 0=unseen 1=open 2=done
  std::vector<std::pair<NodeId, std::size_t>> stack;
  stack.emplace_back(start, 0);
  state[static_cast<std::size_t>(start)] = 1;
  while (!stack.empty()) {
    auto& [n, next] = stack.back();
    const auto& succ = g.successors(n);
    if (next < succ.size()) {
      const NodeId m = succ[next++];
      if (state[static_cast<std::size_t>(m)] == 0) {
        state[static_cast<std::size_t>(m)] = 1;
        stack.emplace_back(m, 0);
      }
    } else {
      state[static_cast<std::size_t>(n)] = 2;
      postorder.push_back(n);
      stack.pop_back();
    }
  }
  std::vector<NodeId> rpo(postorder.rbegin(), postorder.rend());
  for (std::size_t i = 0; i < rpo.size(); ++i) {
    order_index_[static_cast<std::size_t>(rpo[i])] = static_cast<int>(i);
  }

  idom_[static_cast<std::size_t>(start)] = start;
  auto intersect = [&](NodeId a, NodeId b) {
    while (a != b) {
      while (order_index_[static_cast<std::size_t>(a)] >
             order_index_[static_cast<std::size_t>(b)]) {
        a = idom_[static_cast<std::size_t>(a)];
      }
      while (order_index_[static_cast<std::size_t>(b)] >
             order_index_[static_cast<std::size_t>(a)]) {
        b = idom_[static_cast<std::size_t>(b)];
      }
    }
    return a;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (NodeId n : rpo) {
      if (n == start) continue;
      NodeId new_idom = kInvalidNode;
      for (NodeId p : g.predecessors(n)) {
        if (order_index_[static_cast<std::size_t>(p)] < 0) continue;  // unreachable
        if (idom_[static_cast<std::size_t>(p)] == kInvalidNode) continue;
        new_idom = (new_idom == kInvalidNode) ? p : intersect(p, new_idom);
      }
      if (new_idom != kInvalidNode && idom_[static_cast<std::size_t>(n)] != new_idom) {
        idom_[static_cast<std::size_t>(n)] = new_idom;
        changed = true;
      }
    }
  }
}

NodeId Dominators::idom(NodeId n) const {
  return idom_.at(static_cast<std::size_t>(n));
}

bool Dominators::reachable(NodeId n) const {
  return order_index_.at(static_cast<std::size_t>(n)) >= 0;
}

bool Dominators::dominates(NodeId d, NodeId n) const {
  if (!reachable(n) || !reachable(d)) return false;
  NodeId cur = n;
  while (true) {
    if (cur == d) return true;
    if (cur == start_) return false;
    cur = idom_[static_cast<std::size_t>(cur)];
  }
}

}  // namespace selfheal::graph
