#include <gtest/gtest.h>

#include <algorithm>

#include "selfheal/graph/digraph.hpp"
#include "selfheal/graph/dominators.hpp"
#include "selfheal/graph/dot.hpp"
#include "selfheal/graph/traversal.hpp"

namespace {

using namespace selfheal::graph;

// The paper's Figure 1 first workflow: t1 -> t2 -> {t3 -> t4, t5} -> t6.
// Node ids: t1=0, t2=1, t3=2, t4=3, t5=4, t6=5.
Digraph figure1_workflow() {
  Digraph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 5);
  g.add_edge(1, 4);
  g.add_edge(4, 5);
  return g;
}

TEST(Digraph, DegreesAndEdges) {
  const auto g = figure1_workflow();
  EXPECT_EQ(g.node_count(), 6u);
  EXPECT_EQ(g.out_degree(1), 2u);
  EXPECT_EQ(g.in_degree(5), 2u);
  EXPECT_TRUE(g.has_edge(1, 4));
  EXPECT_FALSE(g.has_edge(4, 1));
}

TEST(Digraph, SourcesAndSinks) {
  const auto g = figure1_workflow();
  EXPECT_EQ(g.sources(), std::vector<NodeId>{0});
  EXPECT_EQ(g.sinks(), std::vector<NodeId>{5});
}

TEST(Digraph, ReversedSwapsDegrees) {
  const auto g = figure1_workflow();
  const auto rev = g.reversed();
  EXPECT_EQ(rev.in_degree(1), g.out_degree(1));
  EXPECT_TRUE(rev.has_edge(4, 1));
}

TEST(Digraph, InvalidNodeThrows) {
  Digraph g(2);
  EXPECT_THROW(g.add_edge(0, 5), std::out_of_range);
  EXPECT_THROW((void)g.successors(-1), std::out_of_range);
}

TEST(Traversal, ReachabilityForward) {
  const auto g = figure1_workflow();
  const auto from_t3 = reachable_from(g, 2);
  EXPECT_TRUE(from_t3[2]);
  EXPECT_TRUE(from_t3[3]);
  EXPECT_TRUE(from_t3[5]);
  EXPECT_FALSE(from_t3[4]);
  EXPECT_FALSE(from_t3[0]);
}

TEST(Traversal, ReachabilityBackward) {
  const auto g = figure1_workflow();
  const auto to_t4 = reaching(g, 3);
  EXPECT_TRUE(to_t4[0]);
  EXPECT_TRUE(to_t4[1]);
  EXPECT_TRUE(to_t4[2]);
  EXPECT_FALSE(to_t4[4]);
  EXPECT_FALSE(to_t4[5]);
}

TEST(Traversal, TopologicalOrderRespectsEdges) {
  const auto g = figure1_workflow();
  const auto order = topological_order(g);
  ASSERT_TRUE(order.has_value());
  ASSERT_EQ(order->size(), 6u);
  auto pos = [&](NodeId n) {
    return std::find(order->begin(), order->end(), n) - order->begin();
  };
  EXPECT_LT(pos(0), pos(1));
  EXPECT_LT(pos(1), pos(4));
  EXPECT_LT(pos(2), pos(3));
  EXPECT_LT(pos(3), pos(5));
}

TEST(Traversal, CycleDetection) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_FALSE(has_cycle(g));
  g.add_edge(2, 0);
  EXPECT_TRUE(has_cycle(g));
  EXPECT_FALSE(topological_order(g).has_value());
}

TEST(Traversal, EnumeratePathsAcyclic) {
  const auto g = figure1_workflow();
  const auto paths = enumerate_paths(g, 0);
  // Exactly the paper's P1 (t1 t2 t3 t4 t6) and P2 (t1 t2 t5 t6).
  ASSERT_EQ(paths.size(), 2u);
  const std::vector<NodeId> p1{0, 1, 2, 3, 5};
  const std::vector<NodeId> p2{0, 1, 4, 5};
  EXPECT_TRUE((paths[0] == p1 && paths[1] == p2) || (paths[0] == p2 && paths[1] == p1));
}

TEST(Traversal, EnumeratePathsWithLoopUnrolling) {
  // start -> a -> b -> a (cycle), b -> end.
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 1);
  g.add_edge(2, 3);
  const auto once = enumerate_paths(g, 0, 1);
  ASSERT_EQ(once.size(), 1u);  // only the non-repeating unrolling
  const auto twice = enumerate_paths(g, 0, 2);
  EXPECT_GT(twice.size(), once.size());
}

TEST(Traversal, EnumeratePathsHonoursCap) {
  // Diamond chain with 2^10 paths, capped at 100.
  Digraph g(21);
  for (int i = 0; i < 10; ++i) {
    // i*2 -> i*2+1 and i*2 -> i*2+2? Build simple: each stage splits/rejoins.
  }
  // Simpler: K stages, stage i has nodes (2i+1, 2i+2) both from 2i-? Use a
  // chain of diamonds: n0 -> {n1,n2} -> n3 -> {n4,n5} -> n6 ...
  Digraph d(1);
  NodeId prev = 0;
  for (int i = 0; i < 10; ++i) {
    const NodeId left = d.add_node();
    const NodeId right = d.add_node();
    const NodeId join = d.add_node();
    d.add_edge(prev, left);
    d.add_edge(prev, right);
    d.add_edge(left, join);
    d.add_edge(right, join);
    prev = join;
  }
  const auto paths = enumerate_paths(d, 0, 1, 100);
  EXPECT_EQ(paths.size(), 100u);
}

TEST(Traversal, TransitiveClosure) {
  const auto g = figure1_workflow();
  const auto closure = transitive_closure(g);
  EXPECT_TRUE(closure[0][5]);
  EXPECT_TRUE(closure[1][3]);
  EXPECT_FALSE(closure[4][3]);
  EXPECT_FALSE(closure[0][0]);  // acyclic: not self-reaching
}

TEST(Traversal, TransitiveClosureWithCycle) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(1, 2);
  const auto closure = transitive_closure(g);
  EXPECT_TRUE(closure[0][0]);  // on a cycle
  EXPECT_TRUE(closure[1][1]);
  EXPECT_FALSE(closure[2][2]);
}

TEST(Dominators, Figure1Dominance) {
  const auto g = figure1_workflow();
  const Dominators dom(g, 0);
  // t2 dominates everything downstream.
  EXPECT_TRUE(dom.dominates(1, 2));
  EXPECT_TRUE(dom.dominates(1, 3));
  EXPECT_TRUE(dom.dominates(1, 4));
  EXPECT_TRUE(dom.dominates(1, 5));
  // t3 dominates t4 but not t6 (t6 reachable via t5).
  EXPECT_TRUE(dom.dominates(2, 3));
  EXPECT_FALSE(dom.dominates(2, 5));
  EXPECT_FALSE(dom.dominates(4, 5));
  // Reflexive on reachable nodes.
  EXPECT_TRUE(dom.dominates(3, 3));
}

TEST(Dominators, IdomChain) {
  const auto g = figure1_workflow();
  const Dominators dom(g, 0);
  EXPECT_EQ(dom.idom(0), 0);
  EXPECT_EQ(dom.idom(1), 0);
  EXPECT_EQ(dom.idom(2), 1);
  EXPECT_EQ(dom.idom(3), 2);
  EXPECT_EQ(dom.idom(4), 1);
  EXPECT_EQ(dom.idom(5), 1);  // join node: idom is the branch t2
}

TEST(Dominators, UnreachableNodes) {
  Digraph g(3);
  g.add_edge(0, 1);  // node 2 disconnected
  const Dominators dom(g, 0);
  EXPECT_TRUE(dom.reachable(1));
  EXPECT_FALSE(dom.reachable(2));
  EXPECT_FALSE(dom.dominates(0, 2));
}

TEST(Dominators, LoopDominance) {
  // 0 -> 1 -> 2 -> 1, 2 -> 3: 1 dominates 2 and 3 despite the back edge.
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 1);
  g.add_edge(2, 3);
  const Dominators dom(g, 0);
  EXPECT_TRUE(dom.dominates(1, 2));
  EXPECT_TRUE(dom.dominates(1, 3));
  EXPECT_TRUE(dom.dominates(2, 3));
}

TEST(Dot, ContainsNodesEdgesAndStyles) {
  const auto g = figure1_workflow();
  const auto dot = to_dot(g, "wf", [](NodeId n) {
    DotNodeStyle s;
    s.label = "t" + std::to_string(n + 1);
    if (n == 0) {
      s.annotation = "B";
      s.color = "red";
    }
    return s;
  });
  EXPECT_NE(dot.find("digraph \"wf\""), std::string::npos);
  EXPECT_NE(dot.find("t1 (B)"), std::string::npos);
  EXPECT_NE(dot.find("fillcolor=\"red\""), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
}

}  // namespace
