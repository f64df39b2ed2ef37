#include <gtest/gtest.h>

#include <algorithm>

#include "figure1.hpp"
#include "selfheal/wfspec/object_catalog.hpp"
#include "selfheal/wfspec/parser.hpp"
#include "selfheal/wfspec/workflow_spec.hpp"

namespace {

using namespace selfheal;
using wfspec::ObjectCatalog;
using wfspec::TaskId;
using wfspec::WorkflowSpec;

TEST(ObjectCatalog, InternsAndResolves) {
  ObjectCatalog catalog;
  const auto x = catalog.intern("x");
  const auto y = catalog.intern("y");
  EXPECT_NE(x, y);
  EXPECT_EQ(catalog.intern("x"), x);  // idempotent
  EXPECT_EQ(catalog.name(x), "x");
  EXPECT_EQ(catalog.size(), 2u);
  EXPECT_EQ(catalog.find("y"), y);
  EXPECT_FALSE(catalog.find("z").has_value());
  EXPECT_THROW((void)catalog.name(99), std::out_of_range);
}

WorkflowSpec make_figure1_wf1(ObjectCatalog& catalog) {
  WorkflowSpec wf("wf1", catalog);
  const auto t1 = wf.add_task("t1", {}, {"o1"});
  const auto t2 = wf.add_task("t2", {"o1"}, {"o2"});
  const auto t3 = wf.add_task("t3", {"c3"}, {"o3"});
  const auto t4 = wf.add_task("t4", {"o3", "o2"}, {"o4"});
  const auto t5 = wf.add_task("t5", {"o2"}, {"o5"});
  const auto t6 = wf.add_task("t6", {"o5"}, {"o6"});
  wf.add_edge(t1, t2);
  wf.add_edge(t2, t3);
  wf.add_edge(t2, t5);
  wf.add_edge(t3, t4);
  wf.add_edge(t4, t6);
  wf.add_edge(t5, t6);
  wf.validate();
  return wf;
}

TEST(WorkflowSpec, BuildAndLookup) {
  ObjectCatalog catalog;
  const auto wf = make_figure1_wf1(catalog);
  EXPECT_EQ(wf.task_count(), 6u);
  EXPECT_EQ(wf.name(), "wf1");
  const auto t2 = wf.task_by_name("t2");
  EXPECT_EQ(wf.task(t2).name, "t2");
  EXPECT_TRUE(wf.is_branch(t2));
  EXPECT_FALSE(wf.is_branch(wf.task_by_name("t1")));
  EXPECT_THROW((void)wf.task_by_name("nope"), std::out_of_range);
}

TEST(WorkflowSpec, BranchSelectorDefaultsToFirstRead) {
  ObjectCatalog catalog;
  const auto wf = make_figure1_wf1(catalog);
  const auto t2 = wf.task_by_name("t2");
  ASSERT_TRUE(wf.task(t2).selector.has_value());
  EXPECT_EQ(*wf.task(t2).selector, *catalog.find("o1"));
}

TEST(WorkflowSpec, StartAndEnds) {
  ObjectCatalog catalog;
  const auto wf = make_figure1_wf1(catalog);
  EXPECT_EQ(wf.start(), wf.task_by_name("t1"));
  const auto ends = wf.ends();
  ASSERT_EQ(ends.size(), 1u);
  EXPECT_EQ(ends[0], wf.task_by_name("t6"));
}

TEST(WorkflowSpec, UnavoidableNodes) {
  // Section II.D: t1, t2, t6 lie on every execution path; t3, t4, t5
  // do not.
  ObjectCatalog catalog;
  const auto wf = make_figure1_wf1(catalog);
  EXPECT_TRUE(wf.unavoidable(wf.task_by_name("t1")));
  EXPECT_TRUE(wf.unavoidable(wf.task_by_name("t2")));
  EXPECT_TRUE(wf.unavoidable(wf.task_by_name("t6")));
  EXPECT_FALSE(wf.unavoidable(wf.task_by_name("t3")));
  EXPECT_FALSE(wf.unavoidable(wf.task_by_name("t4")));
  EXPECT_FALSE(wf.unavoidable(wf.task_by_name("t5")));
}

TEST(WorkflowSpec, ControlDependencePaperExamples) {
  // Section II.D: t2 ->_c t3, t2 ->_c t4 and t2 ->_c t5; nothing is
  // control dependent on non-branch nodes, and unavoidable nodes are not
  // control dependent on anything.
  ObjectCatalog catalog;
  const auto wf = make_figure1_wf1(catalog);
  const auto t2 = wf.task_by_name("t2");
  EXPECT_TRUE(wf.control_dependent(t2, wf.task_by_name("t3")));
  EXPECT_TRUE(wf.control_dependent(t2, wf.task_by_name("t4")));
  EXPECT_TRUE(wf.control_dependent(t2, wf.task_by_name("t5")));
  EXPECT_FALSE(wf.control_dependent(t2, wf.task_by_name("t6")));  // unavoidable
  EXPECT_FALSE(wf.control_dependent(wf.task_by_name("t1"), wf.task_by_name("t3")));
  EXPECT_FALSE(wf.control_dependent(wf.task_by_name("t3"), wf.task_by_name("t4")));
}

TEST(WorkflowSpec, ControlDependenceIsTransitive) {
  // Nested branches: b1 -> {b2 -> {x, y} -> j2, z} -> j1.
  ObjectCatalog catalog;
  WorkflowSpec wf("nested", catalog);
  const auto b1 = wf.add_task("b1", {"s"}, {"a"});
  const auto b2 = wf.add_task("b2", {"a"}, {"b"});
  const auto x = wf.add_task("x", {"b"}, {"ox"});
  const auto y = wf.add_task("y", {"b"}, {"oy"});
  const auto j2 = wf.add_task("j2", {"ox"}, {"oj2"});
  const auto z = wf.add_task("z", {"a"}, {"oz"});
  const auto j1 = wf.add_task("j1", {"oj2", "oz"}, {"out"});
  wf.add_edge(b1, b2);
  wf.add_edge(b1, z);
  wf.add_edge(b2, x);
  wf.add_edge(b2, y);
  wf.add_edge(x, j2);
  wf.add_edge(y, j2);
  wf.add_edge(j2, j1);
  wf.add_edge(z, j1);
  wf.validate();
  EXPECT_TRUE(wf.control_dependent(b2, x));
  EXPECT_TRUE(wf.control_dependent(b1, b2));
  EXPECT_TRUE(wf.control_dependent(b1, x));  // transitivity via b2
  EXPECT_TRUE(wf.control_dependent(b1, j2));
  EXPECT_FALSE(wf.control_dependent(b2, j1));  // j1 unavoidable
  const auto dominants = wf.dominant_nodes(x);
  EXPECT_EQ(dominants.size(), 2u);
  EXPECT_NE(std::find(dominants.begin(), dominants.end(), b1), dominants.end());
  EXPECT_NE(std::find(dominants.begin(), dominants.end(), b2), dominants.end());
  EXPECT_TRUE(wf.dominant_nodes(j1).empty());
}

TEST(WorkflowSpec, ValidationRejectsBadShapes) {
  ObjectCatalog catalog;
  {
    WorkflowSpec wf("two-starts", catalog);
    wf.add_task("a", {}, {"x"});
    wf.add_task("b", {}, {"y"});
    EXPECT_THROW(wf.validate(), std::logic_error);
  }
  {
    WorkflowSpec wf("no-end", catalog);
    const auto a = wf.add_task("a", {}, {"x"});
    const auto b = wf.add_task("b", {"x"}, {"y"});
    wf.add_edge(a, b);
    wf.add_edge(b, a);  // pure cycle: no sink, and two 0-indegree? none
    EXPECT_THROW(wf.validate(), std::logic_error);
  }
  {
    WorkflowSpec wf("branch-no-reads", catalog);
    const auto a = wf.add_task("a", {}, {"x"});  // branch but reads nothing
    const auto b = wf.add_task("b", {"x"}, {});
    const auto c = wf.add_task("c", {"x"}, {});
    wf.add_edge(a, b);
    wf.add_edge(a, c);
    EXPECT_THROW(wf.validate(), std::logic_error);
  }
}

TEST(WorkflowSpec, QueriesRequireValidation) {
  ObjectCatalog catalog;
  WorkflowSpec wf("raw", catalog);
  const auto a = wf.add_task("a", {}, {"x"});
  EXPECT_FALSE(wf.validated());
  EXPECT_THROW((void)wf.unavoidable(a), std::logic_error);
  EXPECT_THROW((void)wf.control_dependent(a, a), std::logic_error);
  wf.validate();
  EXPECT_TRUE(wf.validated());
  EXPECT_TRUE(wf.unavoidable(a));
}

TEST(WorkflowSpec, DuplicateEdgeRejected) {
  ObjectCatalog catalog;
  WorkflowSpec wf("dup", catalog);
  const auto a = wf.add_task("a", {}, {"x"});
  const auto b = wf.add_task("b", {"x"}, {});
  wf.add_edge(a, b);
  EXPECT_THROW(wf.add_edge(a, b), std::invalid_argument);
}

TEST(WorkflowSpec, SelectorMustBeRead) {
  ObjectCatalog catalog;
  WorkflowSpec wf("sel", catalog);
  const auto a = wf.add_task("a", {"x"}, {"y"});
  catalog.intern("z");
  EXPECT_THROW(wf.set_selector(a, "z"), std::invalid_argument);
  EXPECT_THROW(wf.set_selector(a, "never-interned"), std::invalid_argument);
  wf.set_selector(a, "x");
  EXPECT_EQ(*wf.task(a).selector, *catalog.find("x"));
}

TEST(WorkflowSpec, DotContainsTasks) {
  ObjectCatalog catalog;
  const auto wf = make_figure1_wf1(catalog);
  const auto dot = wf.to_dot();
  EXPECT_NE(dot.find("t1"), std::string::npos);
  EXPECT_NE(dot.find("diamond"), std::string::npos);  // branch node shape
}

TEST(Parser, RoundTripsFigure1) {
  ObjectCatalog catalog;
  const auto wf = make_figure1_wf1(catalog);
  const auto dsl = wfspec::to_dsl(wf);
  ObjectCatalog catalog2;
  const auto wf2 = wfspec::parse_workflow(dsl, catalog2);
  EXPECT_EQ(wf2.task_count(), wf.task_count());
  EXPECT_EQ(wf2.name(), wf.name());
  EXPECT_TRUE(wf2.is_branch(wf2.task_by_name("t2")));
  EXPECT_EQ(wfspec::to_dsl(wf2), dsl);  // fixed point
}

TEST(Parser, ParsesInlineWorkflow) {
  const std::string text = R"(
# a comment
workflow order
task a writes x
task b reads x writes y selector x
task c reads y
task d reads x
edge a b
edge b c d
)";
  ObjectCatalog catalog;
  const auto wf = wfspec::parse_workflow(text, catalog);
  EXPECT_EQ(wf.task_count(), 4u);
  EXPECT_TRUE(wf.is_branch(wf.task_by_name("b")));
  EXPECT_EQ(*wf.task(wf.task_by_name("b")).selector, *catalog.find("x"));
  EXPECT_EQ(wf.ends().size(), 2u);
}

TEST(Parser, ErrorsCarryLineNumbers) {
  ObjectCatalog catalog;
  try {
    (void)wfspec::parse_workflow("workflow w\nbogus line here\n", catalog);
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  EXPECT_THROW((void)wfspec::parse_workflow("task t before workflow\n", catalog),
               std::invalid_argument);
  EXPECT_THROW((void)wfspec::parse_workflow("workflow w\nedge a b\n", catalog),
               std::invalid_argument);
  EXPECT_THROW((void)wfspec::parse_workflow("", catalog), std::invalid_argument);
}

TEST(Figure1Fixture, ChoicesDivergeByConstruction) {
  selfheal::testing::Figure1 fig;
  const auto seed = engine::task_seed(fig.wf1.name(), "t1");
  const auto o1 = *fig.catalog.find("o1");
  const auto clean = engine::compute_output(seed, o1, 1, {});
  EXPECT_EQ(engine::choose_branch(clean, 2), 1u);                    // -> t5
  EXPECT_EQ(engine::choose_branch(engine::corrupt(clean), 2), 0u);   // -> t3
}

}  // namespace
