// Generic directed graph over dense integer node ids.
//
// This is the substrate shared by workflow specifications (task graphs),
// recovery plans (partial-order DAGs), and dependency graphs. Nodes are
// 0..node_count()-1; payloads live in the client, keyed by node id.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace selfheal::graph {

using NodeId = std::int32_t;
inline constexpr NodeId kInvalidNode = -1;

class Digraph {
 public:
  Digraph() = default;
  explicit Digraph(std::size_t node_count);

  /// Appends a node and returns its id.
  NodeId add_node();

  /// Adds the edge from -> to. Duplicate edges are allowed (and kept);
  /// use has_edge() first if uniqueness matters to the caller.
  void add_edge(NodeId from, NodeId to);

  [[nodiscard]] std::size_t node_count() const noexcept { return out_.size(); }

  [[nodiscard]] const std::vector<NodeId>& successors(NodeId n) const;
  [[nodiscard]] const std::vector<NodeId>& predecessors(NodeId n) const;

  [[nodiscard]] std::size_t out_degree(NodeId n) const { return successors(n).size(); }

  [[nodiscard]] bool has_edge(NodeId from, NodeId to) const;
  [[nodiscard]] bool valid(NodeId n) const noexcept {
    return n >= 0 && static_cast<std::size_t>(n) < out_.size();
  }

  /// Nodes with in-degree 0 / out-degree 0.
  [[nodiscard]] std::vector<NodeId> sources() const;
  [[nodiscard]] std::vector<NodeId> sinks() const;

  /// A copy of this graph with all edges reversed.
  [[nodiscard]] Digraph reversed() const;

 private:
  void check(NodeId n) const;

  std::vector<std::vector<NodeId>> out_;
  std::vector<std::vector<NodeId>> in_;
};

}  // namespace selfheal::graph
