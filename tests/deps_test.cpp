#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "figure1.hpp"
#include "selfheal/deps/dependency.hpp"

namespace {

using namespace selfheal;
using deps::DepKind;
using deps::DependencyAnalyzer;
using selfheal::testing::Figure1;

using Ids = std::vector<engine::InstanceId>;

/// The index's out-parameter queries, returned by value.
Ids closure_of(const DependencyAnalyzer& deps, const Ids& seeds) {
  Ids out;
  deps.flow_closure(seeds, out);
  return out;
}
Ids controlled_by(const DependencyAnalyzer& deps, engine::InstanceId branch) {
  Ids out;
  deps.controlled_by(branch, out);
  return out;
}
Ids frontier_of(const DependencyAnalyzer& deps) {
  Ids out;
  deps.tainted_frontier(out);
  return out;
}

/// Finds the instance of (run, task) in the log (first incarnation).
engine::InstanceId inst(const engine::Engine& eng, engine::RunId run,
                        wfspec::TaskId task) {
  const auto found = eng.log().find_original(run, task, 1);
  EXPECT_TRUE(found.has_value());
  return *found;
}

TEST(DependencyAnalyzer, PaperExampleTasks) {
  // Section II.C: t_x: x = a + b then t_b: b = x - 1 gives t_x ->_f t_b
  // (b reads x) and t_x ->_a t_b (t_b overwrites b after t_x read it).
  wfspec::ObjectCatalog catalog;
  wfspec::WorkflowSpec wf("paper-iic", catalog);
  const auto tx = wf.add_task("tx", {"a", "b"}, {"x"});
  const auto tb = wf.add_task("tb", {"x"}, {"b"});
  wf.add_edge(tx, tb);
  wf.validate();
  engine::Engine eng;
  const auto r = eng.start_run(wf);
  eng.run_all();

  const DependencyAnalyzer deps(eng.log(), eng.specs_by_run());
  const auto ix = inst(eng, r, tx);
  const auto ib = inst(eng, r, tb);
  EXPECT_TRUE(deps.depends(ix, ib, DepKind::kFlow));
  EXPECT_TRUE(deps.depends(ix, ib, DepKind::kAnti));
  EXPECT_FALSE(deps.depends(ix, ib, DepKind::kOutput));
  EXPECT_FALSE(deps.depends(ib, ix, DepKind::kFlow));
}

TEST(DependencyAnalyzer, FlowMaskingByIntermediateWriter) {
  // w1 writes x; w2 overwrites x; r reads x: r depends on w2, NOT w1.
  wfspec::ObjectCatalog catalog;
  wfspec::WorkflowSpec wf("mask", catalog);
  const auto w1 = wf.add_task("w1", {}, {"x"});
  const auto w2 = wf.add_task("w2", {}, {"x"});
  const auto r = wf.add_task("r", {"x"}, {"y"});
  wf.add_edge(w1, w2);
  wf.add_edge(w2, r);
  wf.validate();
  engine::Engine eng;
  const auto run = eng.start_run(wf);
  eng.run_all();

  const DependencyAnalyzer deps(eng.log(), eng.specs_by_run());
  EXPECT_FALSE(deps.depends(inst(eng, run, w1), inst(eng, run, r), DepKind::kFlow));
  EXPECT_TRUE(deps.depends(inst(eng, run, w2), inst(eng, run, r), DepKind::kFlow));
  // Consecutive writers of x: output dependence.
  EXPECT_TRUE(deps.depends(inst(eng, run, w1), inst(eng, run, w2), DepKind::kOutput));
}

TEST(DependencyAnalyzer, Figure1FlowEdges) {
  const Figure1 fig;
  const auto eng = fig.run_attacked();
  const DependencyAnalyzer deps(eng.log(), eng.specs_by_run());

  const auto i1 = inst(eng, 0, fig.t1);
  const auto i2 = inst(eng, 0, fig.t2);
  const auto i4 = inst(eng, 0, fig.t4);
  const auto i8 = inst(eng, 1, fig.t8);
  const auto i10 = inst(eng, 1, fig.t10);

  EXPECT_TRUE(deps.depends(i1, i2, DepKind::kFlow));   // o1
  EXPECT_TRUE(deps.depends(i2, i4, DepKind::kFlow));   // o2
  EXPECT_TRUE(deps.depends(i1, i8, DepKind::kFlow));   // o1 cross-workflow
  EXPECT_TRUE(deps.depends(i8, i10, DepKind::kFlow));  // p2
  // t9 reads only p1 (from t7): no flow from the infected chain.
  const auto i9 = inst(eng, 1, fig.t9);
  EXPECT_FALSE(deps.depends(i8, i9, DepKind::kFlow));
}

TEST(DependencyAnalyzer, Figure1FlowClosureIsThePaperDamageSet) {
  // "tasks t2, t4, t8 and t10 calculate wrong results" -- the closure of
  // B = {t1} under flow dependence.
  const Figure1 fig;
  const auto eng = fig.run_attacked();
  const DependencyAnalyzer deps(eng.log(), eng.specs_by_run());

  const auto closure = closure_of(deps, {inst(eng, 0, fig.t1)});
  std::set<std::string> names;
  for (const auto id : closure) {
    const auto& e = eng.log().entry(id);
    names.insert(eng.spec_of(e.run).task(e.task).name);
  }
  EXPECT_EQ(names, (std::set<std::string>{"t1", "t2", "t4", "t8", "t10"}));
}

TEST(DependencyAnalyzer, Figure1ControlEdges) {
  const Figure1 fig;
  const auto eng = fig.run_attacked();
  const DependencyAnalyzer deps(eng.log(), eng.specs_by_run());

  const auto i2 = inst(eng, 0, fig.t2);
  const auto controlled = controlled_by(deps, i2);
  std::set<wfspec::TaskId> tasks;
  for (const auto id : controlled) tasks.insert(eng.log().entry(id).task);
  // In the attacked execution t3 and t4 executed under t2's decision; t5
  // did not execute, t6 is unavoidable.
  EXPECT_EQ(tasks, (std::set<wfspec::TaskId>{fig.t3, fig.t4}));
}

TEST(DependencyAnalyzer, AntiDependenceReadersBeforeNextWriter) {
  // r1 reads x; r2 reads x; w writes x: r1 ->_a w and r2 ->_a w.
  wfspec::ObjectCatalog catalog;
  wfspec::WorkflowSpec wf("anti", catalog);
  const auto r1 = wf.add_task("r1", {"x"}, {"a"});
  const auto r2 = wf.add_task("r2", {"x"}, {"b"});
  const auto w = wf.add_task("w", {"a", "b"}, {"x"});
  wf.add_edge(r1, r2);
  wf.add_edge(r2, w);
  wf.validate();
  engine::Engine eng;
  const auto run = eng.start_run(wf);
  eng.run_all();
  const DependencyAnalyzer deps(eng.log(), eng.specs_by_run());
  EXPECT_TRUE(deps.depends(inst(eng, run, r1), inst(eng, run, w), DepKind::kAnti));
  EXPECT_TRUE(deps.depends(inst(eng, run, r2), inst(eng, run, w), DepKind::kAnti));
  EXPECT_FALSE(deps.depends(inst(eng, run, r1), inst(eng, run, r2), DepKind::kAnti));
}

TEST(DependencyAnalyzer, EdgesFromAndTo) {
  const Figure1 fig;
  const auto eng = fig.run_attacked();
  const DependencyAnalyzer deps(eng.log(), eng.specs_by_run());
  const auto i1 = inst(eng, 0, fig.t1);
  std::size_t out = 0;
  deps.for_each_out_edge(i1, [&](deps::DependencyAnalyzer::EdgeIndex idx) {
    EXPECT_EQ(deps.edge(idx).from, i1);
    ++out;
  });
  EXPECT_GE(out, 2u);  // t2 and t8 read o1
  const auto i2 = inst(eng, 0, fig.t2);
  bool flow_from_t1 = false;
  for (const auto& e : deps.in_edges(i2)) {
    if (e.from == i1 && e.kind == DepKind::kFlow) flow_from_t1 = true;
  }
  EXPECT_TRUE(flow_from_t1);
}

TEST(DependencyAnalyzer, EffectiveViewAfterRecoveryEntries) {
  // After undo+redo of t1, dependences must flow from the REDO entry.
  const Figure1 fig;
  auto eng = fig.run_attacked();
  const auto bad = Figure1::malicious_instance(eng);
  eng.apply_undo(bad);
  const auto rid = eng.apply_redo(bad);

  const DependencyAnalyzer deps(eng.log(), eng.specs_by_run());
  const auto i2 = inst(eng, 0, fig.t2);
  EXPECT_TRUE(deps.depends(rid, i2, DepKind::kFlow));
  EXPECT_FALSE(deps.depends(bad, i2, DepKind::kFlow));
}

TEST(DependencyAnalyzer, DotRendersNodesAndColouredEdges) {
  const Figure1 fig;
  const auto eng = fig.run_attacked();
  const DependencyAnalyzer deps(eng.log(), eng.specs_by_run());
  const auto dot = deps::to_dot(deps, eng.log(), eng.specs_by_run());
  EXPECT_NE(dot.find("digraph dependences"), std::string::npos);
  EXPECT_NE(dot.find("t1"), std::string::npos);
  EXPECT_NE(dot.find("#ffb3b3"), std::string::npos);  // malicious highlight
  EXPECT_NE(dot.find("color=blue"), std::string::npos);   // flow
  EXPECT_NE(dot.find("color=gray"), std::string::npos);   // control
  EXPECT_NE(dot.find("label=\"o1\""), std::string::npos);  // carrying object
}

TEST(DependencyAnalyzer, DepKindNames) {
  EXPECT_STREQ(deps::to_string(DepKind::kFlow), "flow");
  EXPECT_STREQ(deps::to_string(DepKind::kAnti), "anti");
  EXPECT_STREQ(deps::to_string(DepKind::kOutput), "output");
  EXPECT_STREQ(deps::to_string(DepKind::kControl), "control");
}

// --- Closure machinery: epoch stamps, CSR accessors, incremental sync. ---

TEST(DependencyAnalyzer, ClosureEmptySeeds) {
  const Figure1 fig;
  const auto eng = fig.run_attacked();
  const DependencyAnalyzer deps(eng.log(), eng.specs_by_run());
  EXPECT_TRUE(closure_of(deps, {}).empty());
}

TEST(DependencyAnalyzer, ClosureEpochStampReuseAcrossCalls) {
  // The visited array is reused with a bumped epoch per call: repeated
  // and interleaved closures from different seeds must not leak visits
  // into each other.
  const Figure1 fig;
  const auto eng = fig.run_attacked();
  const DependencyAnalyzer deps(eng.log(), eng.specs_by_run());
  const auto seed_a = inst(eng, 0, fig.t1);
  const auto seed_b = inst(eng, 1, fig.t7);
  const auto first_a = closure_of(deps, {seed_a});
  const auto first_b = closure_of(deps, {seed_b});
  EXPECT_NE(first_a, first_b);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(closure_of(deps, {seed_a}), first_a);
    EXPECT_EQ(closure_of(deps, {seed_b}), first_b);
  }
  // Duplicate seeds collapse; the result contains the seeds and is
  // sorted by instance id.
  const auto duped = closure_of(deps, {seed_a, seed_a, seed_a});
  EXPECT_EQ(duped, first_a);
  EXPECT_TRUE(std::is_sorted(duped.begin(), duped.end()));
}

TEST(DependencyAnalyzer, SelfReadWriteProducesNoSelfEdge) {
  // A task reading AND writing the same object must not generate a
  // self-edge (the anti dependence reader->writer is itself); closures
  // from it must terminate and contain it.
  wfspec::ObjectCatalog catalog;
  wfspec::WorkflowSpec wf("selfrw", catalog);
  const auto init = wf.add_task("init", {}, {"x"});
  const auto bump = wf.add_task("bump", {"x"}, {"x"});
  wf.add_edge(init, bump);
  wf.validate();
  engine::Engine eng;
  const auto run = eng.start_run(wf);
  eng.run_all();
  const DependencyAnalyzer deps(eng.log(), eng.specs_by_run());
  for (const auto& e : deps.edges()) EXPECT_NE(e.from, e.to);
  const auto ib = inst(eng, run, bump);
  const auto closure = closure_of(deps, {ib});
  EXPECT_EQ(closure, std::vector<engine::InstanceId>{ib});
}

TEST(DependencyAnalyzer, CsrAccessorsMatchAScanOfEveryEdge) {
  const Figure1 fig;
  auto eng = fig.run_attacked();
  DependencyAnalyzer deps(eng.log(), eng.specs_by_run());
  const auto check = [&deps] {
    for (engine::InstanceId i = 0;
         i < static_cast<engine::InstanceId>(deps.instance_count()); ++i) {
      // In-edges: the span view is a contiguous slice of edges() holding
      // exactly the edges that target i, in insertion order.
      std::vector<deps::DepEdge> to_scan;
      for (const auto& e : deps.edges()) {
        if (e.to == i) to_scan.push_back(e);
      }
      const auto to_span = deps.in_edges(i);
      EXPECT_EQ(std::vector<deps::DepEdge>(to_span.begin(), to_span.end()), to_scan);
      // Out-edges: the chain walk reaches each edge leaving i exactly
      // once.
      std::vector<deps::DependencyAnalyzer::EdgeIndex> from_scan;
      for (std::size_t k = 0; k < deps.edges().size(); ++k) {
        if (deps.edges()[k].from == i) {
          from_scan.push_back(static_cast<deps::DependencyAnalyzer::EdgeIndex>(k));
        }
      }
      std::vector<deps::DependencyAnalyzer::EdgeIndex> via_visitor;
      deps.for_each_out_edge(
          i, [&](deps::DependencyAnalyzer::EdgeIndex idx) { via_visitor.push_back(idx); });
      std::sort(via_visitor.begin(), via_visitor.end());
      EXPECT_EQ(via_visitor, from_scan);
    }
  };
  check();
  // An incremental refresh appends edges to the chains.
  eng.start_run(fig.wf2);
  eng.run_all();
  ASSERT_TRUE(deps.refresh(eng.log(), eng.specs_by_run()));
  check();
}

TEST(DependencyAnalyzer, IncrementalRefreshMatchesRebuildAfterAppends) {
  const Figure1 fig;
  engine::Engine eng;
  eng.start_run(fig.wf1);
  eng.run_all();
  DependencyAnalyzer incremental(eng.log(), eng.specs_by_run());

  // Append-only growth: the refresh must take the incremental path and
  // land on a graph byte-identical to a scratch rebuild.
  eng.start_run(fig.wf2);
  eng.run_all();
  EXPECT_TRUE(incremental.refresh(eng.log(), eng.specs_by_run()));
  const DependencyAnalyzer rebuilt(eng.log(), eng.specs_by_run());
  EXPECT_EQ(incremental.edges(), rebuilt.edges());
  EXPECT_EQ(incremental.instance_count(), rebuilt.instance_count());

  // No-op refresh (nothing new) also stays incremental.
  EXPECT_TRUE(incremental.refresh(eng.log(), eng.specs_by_run()));
  EXPECT_EQ(incremental.edges(), rebuilt.edges());
}

TEST(DependencyAnalyzer, RefreshAfterRecoveryEntriesSplices) {
  const Figure1 fig;
  auto eng = fig.run_attacked();
  DependencyAnalyzer incremental(eng.log(), eng.specs_by_run());

  // A recovery round rewrites the effective schedule: the undo evicts
  // the malicious entry and the redo takes over its slot. refresh() must
  // apply it as an incremental suffix splice (returning true) and land
  // on a graph byte-identical to a scratch rebuild.
  const auto bad = Figure1::malicious_instance(eng);
  eng.apply_undo(bad);
  const auto rid = eng.apply_redo(bad);
  EXPECT_TRUE(incremental.refresh(eng.log(), eng.specs_by_run()));
  const DependencyAnalyzer rebuilt(eng.log(), eng.specs_by_run());
  EXPECT_EQ(incremental.edges(), rebuilt.edges());
  const auto i2 = inst(eng, 0, fig.t2);
  EXPECT_TRUE(incremental.depends(rid, i2, DepKind::kFlow));
  EXPECT_FALSE(incremental.depends(bad, i2, DepKind::kFlow));
}

TEST(DependencyAnalyzer, ReadThenWriteMasksEarlierReadsFromTheNextWriter) {
  // a writes x, r reads x, b reads and writes x, then w writes x. b's
  // write ends the reads of x that w could overwrite, b's own read
  // included: w gets an output edge from b and no anti edge. Once b is
  // undone, the splice re-ingests w with its anti edge from r.
  wfspec::ObjectCatalog catalog;
  wfspec::WorkflowSpec wf("rw", catalog);
  const auto a = wf.add_task("a", {}, {"x"});
  const auto r = wf.add_task("r", {"x"}, {"y"});
  const auto b = wf.add_task("b", {"x"}, {"x"});
  wf.add_edge(a, r);
  wf.add_edge(r, b);
  wf.validate();
  wfspec::WorkflowSpec later("later", catalog);
  const auto w = later.add_task("w", {}, {"x"});
  later.validate();

  engine::Engine eng;
  const auto run = eng.start_run(wf);
  eng.run_all();
  const auto run2 = eng.start_run(later);
  eng.run_all();
  DependencyAnalyzer deps(eng.log(), eng.specs_by_run());
  const auto ir = inst(eng, run, r);
  const auto ib = inst(eng, run, b);
  const auto iw = inst(eng, run2, w);
  const auto anti_into = [](const DependencyAnalyzer& graph, engine::InstanceId to) {
    std::vector<engine::InstanceId> from;
    for (const auto& e : graph.in_edges(to)) {
      if (e.kind == DepKind::kAnti) from.push_back(e.from);
    }
    return from;
  };
  EXPECT_EQ(anti_into(deps, ib), std::vector<engine::InstanceId>{ir});
  EXPECT_TRUE(anti_into(deps, iw).empty());
  EXPECT_TRUE(deps.depends(ib, iw, DepKind::kOutput));

  eng.apply_undo(ib);
  ASSERT_TRUE(deps.refresh(eng.log(), eng.specs_by_run()));
  const DependencyAnalyzer rebuilt(eng.log(), eng.specs_by_run());
  EXPECT_EQ(deps.edges(), rebuilt.edges());
  EXPECT_EQ(anti_into(deps, iw), std::vector<engine::InstanceId>{ir});
}

TEST(DependencyAnalyzer, SpliceOfAReadWriteEntryKeepsTheNextWritersAntiEdges) {
  // a writes x, r reads x, b reads and writes x. Undoing b evicts both of
  // its records of x, so the next writer of x gets its anti edge from r
  // alone -- the reads since a's write -- exactly as a rebuild gives it.
  wfspec::ObjectCatalog catalog;
  wfspec::WorkflowSpec wf("rw", catalog);
  const auto a = wf.add_task("a", {}, {"x"});
  const auto r = wf.add_task("r", {"x"}, {"y"});
  const auto b = wf.add_task("b", {"x"}, {"x"});
  wf.add_edge(a, r);
  wf.add_edge(r, b);
  wf.validate();
  wfspec::WorkflowSpec later("later", catalog);
  const auto w = later.add_task("w", {}, {"x"});
  later.validate();

  engine::Engine eng;
  const auto run = eng.start_run(wf);
  eng.run_all();
  DependencyAnalyzer incremental(eng.log(), eng.specs_by_run());
  eng.apply_undo(inst(eng, run, b));
  ASSERT_TRUE(incremental.refresh(eng.log(), eng.specs_by_run()));
  const auto run2 = eng.start_run(later);
  eng.run_all();
  ASSERT_TRUE(incremental.refresh(eng.log(), eng.specs_by_run()));

  const DependencyAnalyzer rebuilt(eng.log(), eng.specs_by_run());
  EXPECT_EQ(incremental.edges(), rebuilt.edges());
  const auto anti_into = [](const DependencyAnalyzer& deps, engine::InstanceId to) {
    std::vector<engine::InstanceId> from;
    for (const auto& e : deps.in_edges(to)) {
      if (e.kind == DepKind::kAnti) from.push_back(e.from);
    }
    return from;
  };
  const auto iw = inst(eng, run2, w);
  EXPECT_EQ(anti_into(incremental, iw), anti_into(rebuilt, iw));
  EXPECT_EQ(anti_into(rebuilt, iw), std::vector<engine::InstanceId>{inst(eng, run, r)});
}

TEST(DependencyAnalyzer, StreamingTaintTracksLiveMaliciousClosure) {
  const Figure1 fig;
  auto eng = fig.run_attacked();
  DependencyAnalyzer deps(eng.log(), eng.specs_by_run());

  // While the attack is live, the materialized taint frontier IS the
  // flow closure of the malicious set: same members, same order.
  const auto bad = Figure1::malicious_instance(eng);
  EXPECT_EQ(deps.taint_source_count(), 1u);
  EXPECT_TRUE(deps.tainted(bad));
  EXPECT_TRUE(deps.frontier_covers({bad}));
  EXPECT_EQ(frontier_of(deps), closure_of(deps, {bad}));

  // A seed set that is not exactly the live malicious set must refuse
  // the fast path (missing seed / non-source seed).
  EXPECT_FALSE(deps.frontier_covers({}));
  const auto clean = inst(eng, 0, fig.t3);
  EXPECT_FALSE(deps.frontier_covers({clean}));

  // Recovery retracts: after undo+redo of the malicious instance the
  // splice drops every stale tag -- no sources, empty frontier.
  eng.apply_undo(bad);
  eng.apply_redo(bad);
  EXPECT_TRUE(deps.refresh(eng.log(), eng.specs_by_run()));
  EXPECT_EQ(deps.taint_source_count(), 0u);
  EXPECT_FALSE(deps.tainted(bad));
  EXPECT_TRUE(frontier_of(deps).empty());
}

TEST(DependencyAnalyzer, DotLabelsUseOwningRunCatalog) {
  // Two runs over specs with DISTINCT catalogs: the same interned object
  // id names different objects in each, so edge labels must resolve
  // through the catalog of the run owning the edge -- not (as the old
  // rendering did) spec_of_run.front()'s.
  wfspec::ObjectCatalog catalog1;
  wfspec::WorkflowSpec wf1("first", catalog1);
  const auto a1 = wf1.add_task("a1", {}, {"alpha"});
  const auto b1 = wf1.add_task("b1", {"alpha"}, {"beta"});
  wf1.add_edge(a1, b1);
  wf1.validate();

  wfspec::ObjectCatalog catalog2;
  wfspec::WorkflowSpec wf2("second", catalog2);
  const auto a2 = wf2.add_task("a2", {}, {"gamma"});
  const auto b2 = wf2.add_task("b2", {"gamma"}, {"delta"});
  wf2.add_edge(a2, b2);
  wf2.validate();

  engine::Engine eng;
  eng.start_run(wf1);
  const auto r2 = eng.start_run(wf2);
  eng.run_all();
  const DependencyAnalyzer deps(eng.log(), eng.specs_by_run());
  const auto dot = deps::to_dot(deps, eng.log(), eng.specs_by_run());

  // Run 2's internal flow edge (a2 -> b2) carries "gamma" in ITS catalog.
  const auto ia2 = inst(eng, r2, a2);
  const auto ib2 = inst(eng, r2, b2);
  ASSERT_TRUE(deps.depends(ia2, ib2, DepKind::kFlow));
  const std::string edge_prefix =
      "i" + std::to_string(ia2) + " -> i" + std::to_string(ib2);
  const auto pos = dot.find(edge_prefix);
  ASSERT_NE(pos, std::string::npos);
  const auto line_end = dot.find('\n', pos);
  const auto line = dot.substr(pos, line_end - pos);
  EXPECT_NE(line.find("label=\"gamma\""), std::string::npos) << line;
}

}  // namespace
