#include "selfheal/graph/digraph.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace selfheal::graph {

Digraph::Digraph(std::size_t node_count) : out_(node_count), in_(node_count) {}

NodeId Digraph::add_node() {
  out_.emplace_back();
  in_.emplace_back();
  return static_cast<NodeId>(out_.size() - 1);
}

void Digraph::add_edge(NodeId from, NodeId to) {
  check(from);
  check(to);
  out_[static_cast<std::size_t>(from)].push_back(to);
  in_[static_cast<std::size_t>(to)].push_back(from);
}

const std::vector<NodeId>& Digraph::successors(NodeId n) const {
  check(n);
  return out_[static_cast<std::size_t>(n)];
}

const std::vector<NodeId>& Digraph::predecessors(NodeId n) const {
  check(n);
  return in_[static_cast<std::size_t>(n)];
}

bool Digraph::has_edge(NodeId from, NodeId to) const {
  const auto& succ = successors(from);
  return std::find(succ.begin(), succ.end(), to) != succ.end();
}

std::vector<NodeId> Digraph::sources() const {
  std::vector<NodeId> result;
  for (std::size_t n = 0; n < in_.size(); ++n) {
    if (in_[n].empty()) result.push_back(static_cast<NodeId>(n));
  }
  return result;
}

std::vector<NodeId> Digraph::sinks() const {
  std::vector<NodeId> result;
  for (std::size_t n = 0; n < out_.size(); ++n) {
    if (out_[n].empty()) result.push_back(static_cast<NodeId>(n));
  }
  return result;
}

Digraph Digraph::reversed() const {
  Digraph rev(node_count());
  for (std::size_t n = 0; n < out_.size(); ++n) {
    for (NodeId to : out_[n]) rev.add_edge(to, static_cast<NodeId>(n));
  }
  return rev;
}

void Digraph::check(NodeId n) const {
  if (!valid(n)) {
    throw std::out_of_range("Digraph: invalid node id " + std::to_string(n) +
                            " (node_count=" + std::to_string(out_.size()) + ")");
  }
}

}  // namespace selfheal::graph
