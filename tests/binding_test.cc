#include "core/binding.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "testing/fixtures.h"

namespace hirel {
namespace {

using testing::FlyingFixture;

Item ItemOf(const HierarchicalRelation& r, TupleId id) {
  return r.ItemAt(id).ToItem();
}

TEST(BindingTest, SelfBoundTupleWinsOutright) {
  FlyingFixture f;
  // Peter has a tuple of his own; it binds strongest, overriding all
  // others (Section 2.1).
  Binding b = ComputeBinding(*f.flies, {f.peter}).value();
  EXPECT_TRUE(b.self_bound);
  ASSERT_EQ(b.binders.size(), 1u);
  EXPECT_EQ(ItemOf(*f.flies, b.binders[0]), (Item{f.peter}));
}

TEST(BindingTest, OffPathSingleBinderThroughChain) {
  FlyingFixture f;
  // Paul: penguin- preempts bird+.
  Binding b = ComputeBinding(*f.flies, {f.paul}).value();
  EXPECT_FALSE(b.self_bound);
  ASSERT_EQ(b.binders.size(), 1u);
  EXPECT_EQ(ItemOf(*f.flies, b.binders[0]), (Item{f.penguin}));
}

TEST(BindingTest, OffPathPamela) {
  FlyingFixture f;
  // "Pamela has three tuples in the relation that are applicable. However
  // ... Pamela has only one immediate predecessor, namely that all Amazing
  // Flying Penguins are flying creatures."
  Binding b = ComputeBinding(*f.flies, {f.pamela}).value();
  ASSERT_EQ(b.binders.size(), 1u);
  EXPECT_EQ(ItemOf(*f.flies, b.binders[0]), (Item{f.afp}));
}

TEST(BindingTest, OffPathPatriciaMultipleInheritanceNoConflict) {
  FlyingFixture f;
  // Patricia is an AFP and a galapagos penguin; nothing is asserted about
  // galapagos penguins, so the AFP tuple is her only immediate predecessor.
  Binding b = ComputeBinding(*f.flies, {f.patricia}).value();
  ASSERT_EQ(b.binders.size(), 1u);
  EXPECT_EQ(ItemOf(*f.flies, b.binders[0]), (Item{f.afp}));
}

TEST(BindingTest, NoApplicableTuples) {
  FlyingFixture f;
  NodeId rex = f.animal->AddInstance(Value::String("rex")).value();
  Binding b = ComputeBinding(*f.flies, {rex}).value();
  EXPECT_FALSE(b.self_bound);
  EXPECT_TRUE(b.binders.empty());
}

TEST(BindingTest, ClassItemBinding) {
  FlyingFixture f;
  // The class item "penguin" is self-bound; "galapagos_penguin" inherits
  // from penguin-.
  Binding self = ComputeBinding(*f.flies, {f.penguin}).value();
  EXPECT_TRUE(self.self_bound);
  Binding inherited = ComputeBinding(*f.flies, {f.galapagos}).value();
  ASSERT_EQ(inherited.binders.size(), 1u);
  EXPECT_EQ(ItemOf(*f.flies, inherited.binders[0]), (Item{f.penguin}));
}

TEST(BindingTest, NoPreemptionModeReturnsAllApplicable) {
  FlyingFixture f;
  InferenceOptions options;
  options.preemption = PreemptionMode::kNone;
  Binding b = ComputeBinding(*f.flies, {f.paul}, options).value();
  EXPECT_EQ(b.binders.size(), 2u);  // bird+ and penguin-
}

TEST(BindingTest, OnPathPatriciaConflicts) {
  // Appendix: "on-path preemption would suggest that since Patricia is a
  // Galapagos penguin, it may or may not be able to fly, in spite of its
  // being an amazing flying penguin": the path penguin -> galapagos ->
  // patricia avoids the asserted AFP item, so penguin- also binds.
  FlyingFixture f;
  InferenceOptions options;
  options.preemption = PreemptionMode::kOnPath;
  Binding b = ComputeBinding(*f.flies, {f.patricia}, options).value();
  std::vector<Item> binder_items;
  for (TupleId id : b.binders) binder_items.push_back(ItemOf(*f.flies, id));
  EXPECT_EQ(b.binders.size(), 2u);
  EXPECT_NE(std::find(binder_items.begin(), binder_items.end(),
                      Item{f.penguin}),
            binder_items.end());
  EXPECT_NE(std::find(binder_items.begin(), binder_items.end(), Item{f.afp}),
            binder_items.end());
}

TEST(BindingTest, OnPathPamelaDoesNotConflict) {
  // Pamela is only an AFP: every path from penguin to pamela passes
  // through the asserted AFP item, so penguin- is preempted even on-path.
  FlyingFixture f;
  InferenceOptions options;
  options.preemption = PreemptionMode::kOnPath;
  Binding b = ComputeBinding(*f.flies, {f.pamela}, options).value();
  ASSERT_EQ(b.binders.size(), 1u);
  EXPECT_EQ(ItemOf(*f.flies, b.binders[0]), (Item{f.afp}));
}

TEST(BindingTest, OnPathSearchLimitSurfaces) {
  FlyingFixture f;
  InferenceOptions options;
  options.preemption = PreemptionMode::kOnPath;
  options.on_path_search_limit = 1;
  Result<Binding> b = ComputeBinding(*f.flies, {f.patricia}, options);
  EXPECT_TRUE(b.status().IsResourceExhausted());
}

TEST(BindingTest, PreferenceEdgeBreaksTie) {
  // Two incomparable classes assert opposite truths about a shared
  // instance; a preference edge resolves the tie (Appendix).
  Database db;
  Hierarchy* h = db.CreateHierarchy("things").value();
  NodeId a = h->AddClass("a").value();
  NodeId b = h->AddClass("b").value();
  NodeId x = h->AddInstance(Value::String("x"), a).value();
  ASSERT_TRUE(h->AddEdge(b, x).ok());
  HierarchicalRelation* r =
      db.CreateRelation("r", {{"v", "things"}}).value();
  ASSERT_TRUE(r->Insert({a}, Truth::kPositive).ok());
  ASSERT_TRUE(r->Insert({b}, Truth::kNegative).ok());

  Binding before = ComputeBinding(*r, {x}).value();
  EXPECT_EQ(before.binders.size(), 2u);  // conflict-shaped

  ASSERT_TRUE(h->AddPreferenceEdge(a, b).ok());  // b binds more strongly
  Binding after = ComputeBinding(*r, {x}).value();
  ASSERT_EQ(after.binders.size(), 1u);
  EXPECT_EQ(r->tuple(after.binders[0]).item, (Item{b}));
}

TEST(BindingTest, ExcludedTuplesAreInvisible) {
  FlyingFixture f;
  // Excluding the AFP tuple re-exposes penguin- for Pamela.
  std::optional<TupleId> afp_id = f.flies->FindItem({f.afp});
  ASSERT_TRUE(afp_id.has_value());
  std::vector<bool> exclude(*afp_id + 1, false);
  exclude[*afp_id] = true;
  Binding b =
      ComputeBindingExcluding(*f.flies, {f.pamela}, exclude).value();
  ASSERT_EQ(b.binders.size(), 1u);
  EXPECT_EQ(ItemOf(*f.flies, b.binders[0]), (Item{f.penguin}));
}

TEST(BindingTest, TupleBindingGraphForPatricia) {
  FlyingFixture f;
  // Fig. 1d: bird+ -> penguin- -> afp+ -> patricia.
  TupleBindingGraph g = BuildTupleBindingGraph(*f.flies, {f.patricia});
  ASSERT_EQ(g.nodes.size(), 3u);
  ASSERT_EQ(g.immediate_predecessors.size(), 1u);
  EXPECT_EQ(ItemOf(*f.flies, g.nodes[g.immediate_predecessors[0]]),
            (Item{f.afp}));
  // Chain edges: bird -> penguin, penguin -> afp, afp -> item.
  auto index_of = [&](const Item& item) {
    for (size_t i = 0; i < g.nodes.size(); ++i) {
      if (ItemOf(*f.flies, g.nodes[i]) == item) return i;
    }
    return size_t{999};
  };
  size_t bird_i = index_of({f.bird});
  size_t penguin_i = index_of({f.penguin});
  size_t afp_i = index_of({f.afp});
  EXPECT_EQ(g.edges[bird_i], (std::vector<size_t>{penguin_i}));
  EXPECT_EQ(g.edges[penguin_i], (std::vector<size_t>{afp_i}));
  EXPECT_EQ(g.edges[afp_i],
            (std::vector<size_t>{TupleBindingGraph::kItemNode}));
}

TEST(BindingTest, TupleBindingGraphSelfBound) {
  FlyingFixture f;
  TupleBindingGraph g = BuildTupleBindingGraph(*f.flies, {f.peter});
  ASSERT_EQ(g.immediate_predecessors.size(), 1u);
  EXPECT_EQ(ItemOf(*f.flies, g.nodes[g.immediate_predecessors[0]]),
            (Item{f.peter}));
}

}  // namespace
}  // namespace hirel
