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
  EXPECT_EQ(g.predecessors(5).size(), 2u);
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
  EXPECT_EQ(rev.predecessors(1).size(), g.out_degree(1));
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
