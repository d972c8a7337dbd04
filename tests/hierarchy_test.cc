#include "hierarchy/hierarchy.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"

namespace hirel {
namespace {

Value S(const char* s) { return Value::String(s); }

TEST(HierarchyTest, RootIsCreatedWithName) {
  Hierarchy h("animal");
  EXPECT_EQ(h.name(), "animal");
  EXPECT_TRUE(h.is_class(h.root()));
  EXPECT_EQ(h.NodeName(h.root()), "animal");
  EXPECT_EQ(h.num_classes(), 1u);
  EXPECT_EQ(h.FindClass("animal").value(), h.root());
}

TEST(HierarchyTest, AddClassUnderRootAndParent) {
  Hierarchy h("animal");
  NodeId bird = h.AddClass("bird").value();
  NodeId penguin = h.AddClass("penguin", bird).value();
  EXPECT_TRUE(h.Subsumes(h.root(), bird));
  EXPECT_TRUE(h.Subsumes(bird, penguin));
  EXPECT_EQ(h.num_classes(), 3u);
}

TEST(HierarchyTest, DuplicateClassNameRejected) {
  Hierarchy h("animal");
  ASSERT_TRUE(h.AddClass("bird").ok());
  EXPECT_TRUE(h.AddClass("bird").status().IsAlreadyExists());
  EXPECT_TRUE(h.AddClass("").status().IsInvalidArgument());
}

TEST(HierarchyTest, AddInstanceAndLookup) {
  Hierarchy h("animal");
  NodeId bird = h.AddClass("bird").value();
  NodeId tweety = h.AddInstance(S("tweety"), bird).value();
  EXPECT_TRUE(h.is_instance(tweety));
  EXPECT_EQ(h.FindInstance(S("tweety")).value(), tweety);
  EXPECT_EQ(h.InstanceValue(tweety), S("tweety"));
  EXPECT_EQ(h.NodeName(tweety), "tweety");
  EXPECT_TRUE(h.AddInstance(S("tweety")).status().IsAlreadyExists());
}

TEST(HierarchyTest, InstancesCannotHaveChildren) {
  Hierarchy h("animal");
  NodeId tweety = h.AddInstance(S("tweety")).value();
  EXPECT_TRUE(h.AddClass("sub", tweety).status().IsInvalidArgument());
  NodeId bird = h.AddClass("bird").value();
  EXPECT_TRUE(h.AddEdge(tweety, bird).IsInvalidArgument());
}

TEST(HierarchyTest, FindByNameResolvesClassOrInstance) {
  Hierarchy h("animal");
  NodeId bird = h.AddClass("bird").value();
  NodeId tweety = h.AddInstance(S("tweety"), bird).value();
  EXPECT_EQ(h.FindByName("bird").value(), bird);
  EXPECT_EQ(h.FindByName("tweety").value(), tweety);
  EXPECT_TRUE(h.FindByName("nessie").status().IsNotFound());
}

TEST(HierarchyTest, InternFindsOrAdds) {
  Hierarchy h("size");
  NodeId a = h.Intern(Value::Int(3000));
  NodeId b = h.Intern(Value::Int(3000));
  NodeId c = h.Intern(Value::Int(2000));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(h.num_instances(), 2u);
}

TEST(HierarchyTest, MultipleInheritanceViaAddEdge) {
  Hierarchy h("animal");
  NodeId royal = h.AddClass("royal").value();
  NodeId indian = h.AddClass("indian").value();
  NodeId appu = h.AddInstance(S("appu"), royal).value();
  ASSERT_TRUE(h.AddEdge(indian, appu).ok());
  EXPECT_TRUE(h.Subsumes(royal, appu));
  EXPECT_TRUE(h.Subsumes(indian, appu));
  EXPECT_FALSE(h.Comparable(royal, indian));
}

TEST(HierarchyTest, TypeIrredundancyRejectsCycles) {
  Hierarchy h("x");
  NodeId a = h.AddClass("a").value();
  NodeId b = h.AddClass("b", a).value();
  EXPECT_TRUE(h.AddEdge(b, a).IsIntegrityViolation());
}

TEST(HierarchyTest, RedundantEdgeDroppedInOffPathMode) {
  Hierarchy h("x");
  NodeId a = h.AddClass("a").value();
  NodeId b = h.AddClass("b", a).value();
  NodeId c = h.AddClass("c", b).value();
  // a already reaches c through b.
  ASSERT_TRUE(h.AddEdge(a, c).ok());
  EXPECT_FALSE(h.dag().HasEdge(a, c));
  EXPECT_FALSE(h.dag().HasRedundantEdge());
}

TEST(HierarchyTest, RedundantEdgeKeptInOnPathMode) {
  Hierarchy h("x", HierarchyOptions{.keep_redundant_edges = true});
  NodeId a = h.AddClass("a").value();
  NodeId b = h.AddClass("b", a).value();
  NodeId c = h.AddClass("c", b).value();
  ASSERT_TRUE(h.AddEdge(a, c).ok());
  EXPECT_TRUE(h.dag().HasEdge(a, c));
  // Exact duplicate is still a no-op.
  EXPECT_TRUE(h.AddEdge(a, c).ok());
}

TEST(HierarchyTest, MeetOfComparableNodes) {
  Hierarchy h("x");
  NodeId a = h.AddClass("a").value();
  NodeId b = h.AddClass("b", a).value();
  NodeId c = h.AddClass("c").value();
  EXPECT_EQ(h.Meet(a, b), b);
  EXPECT_EQ(h.Meet(b, a), b);
  EXPECT_EQ(h.Meet(a, a), a);
  EXPECT_EQ(h.Meet(b, c), kInvalidNode);
}

TEST(HierarchyTest, MaximalCommonDescendantsComparablePair) {
  Hierarchy h("x");
  NodeId a = h.AddClass("a").value();
  NodeId b = h.AddClass("b", a).value();
  EXPECT_EQ(h.MaximalCommonDescendants(a, b), (std::vector<NodeId>{b}));
}

TEST(HierarchyTest, MaximalCommonDescendantsOverlap) {
  Hierarchy h("x");
  NodeId a = h.AddClass("a").value();
  NodeId b = h.AddClass("b").value();
  NodeId m = h.AddClass("m", a).value();
  ASSERT_TRUE(h.AddEdge(b, m).ok());
  NodeId i = h.AddInstance(S("i"), m).value();
  (void)i;
  EXPECT_EQ(h.MaximalCommonDescendants(a, b), (std::vector<NodeId>{m}));
}

TEST(HierarchyTest, MaximalCommonDescendantsDisjoint) {
  Hierarchy h("x");
  NodeId a = h.AddClass("a").value();
  NodeId b = h.AddClass("b").value();
  EXPECT_TRUE(h.MaximalCommonDescendants(a, b).empty());
}

TEST(HierarchyTest, MaximalCommonDescendantsMultiple) {
  Hierarchy h("x");
  NodeId a = h.AddClass("a").value();
  NodeId b = h.AddClass("b").value();
  NodeId m1 = h.AddClass("m1", a).value();
  NodeId m2 = h.AddClass("m2", a).value();
  ASSERT_TRUE(h.AddEdge(b, m1).ok());
  ASSERT_TRUE(h.AddEdge(b, m2).ok());
  std::vector<NodeId> mcd = h.MaximalCommonDescendants(a, b);
  EXPECT_EQ(mcd, (std::vector<NodeId>{m1, m2}));
}

TEST(HierarchyTest, AtomsUnder) {
  Hierarchy h("animal");
  NodeId bird = h.AddClass("bird").value();
  NodeId penguin = h.AddClass("penguin", bird).value();
  NodeId tweety = h.AddInstance(S("tweety"), bird).value();
  NodeId paul = h.AddInstance(S("paul"), penguin).value();
  NodeId rex = h.AddInstance(S("rex")).value();  // not a bird
  (void)rex;
  std::vector<NodeId> atoms = h.AtomsUnder(bird);
  EXPECT_EQ(atoms, (std::vector<NodeId>{tweety, paul}));
  EXPECT_EQ(h.CountAtomsUnder(bird), 2u);
  EXPECT_EQ(h.CountAtomsUnder(h.root()), 3u);
  EXPECT_EQ(h.AtomsUnder(paul), (std::vector<NodeId>{paul}));
}

TEST(HierarchyTest, PreferenceEdgesAffectBindsBelowOnly) {
  Hierarchy h("x");
  NodeId a = h.AddClass("a").value();
  NodeId b = h.AddClass("b").value();
  ASSERT_TRUE(h.AddPreferenceEdge(a, b).ok());
  EXPECT_FALSE(h.Subsumes(a, b));
  EXPECT_TRUE(h.BindsBelow(a, b));
  EXPECT_FALSE(h.BindsBelow(b, a));
  EXPECT_EQ(h.num_preference_edges(), 1u);
}

TEST(HierarchyTest, PreferenceCycleRejected) {
  Hierarchy h("x");
  NodeId a = h.AddClass("a").value();
  NodeId b = h.AddClass("b").value();
  ASSERT_TRUE(h.AddPreferenceEdge(a, b).ok());
  EXPECT_TRUE(h.AddPreferenceEdge(b, a).IsIntegrityViolation());
  // Also via subsumption: c subsumes d, so preferring c over d would cycle.
  NodeId c = h.AddClass("c").value();
  NodeId d = h.AddClass("d", c).value();
  EXPECT_TRUE(h.AddPreferenceEdge(d, c).IsIntegrityViolation());
}

// Preference adjacency is sized by the first AddPreferenceEdge; nodes
// outside it read as edgeless.

TEST(HierarchyTest, PreferenceEdgeAddedAfterManyNodes) {
  Hierarchy h("x");
  std::vector<NodeId> nodes;
  for (int i = 0; i < 50; ++i) {
    nodes.push_back(h.AddClass("c" + std::to_string(i)).value());
  }
  for (NodeId n : nodes) {
    EXPECT_TRUE(h.PreferenceSuccessors(n).empty());
    EXPECT_TRUE(h.PreferencePredecessors(n).empty());
  }
  ASSERT_TRUE(h.AddPreferenceEdge(nodes[3], nodes[40]).ok());
  EXPECT_EQ(h.PreferenceSuccessors(nodes[3]),
            (std::vector<NodeId>{nodes[40]}));
  EXPECT_EQ(h.PreferencePredecessors(nodes[40]),
            (std::vector<NodeId>{nodes[3]}));
  EXPECT_TRUE(h.PreferenceSuccessors(nodes[40]).empty());
  EXPECT_TRUE(h.PreferencePredecessors(nodes[3]).empty());
  EXPECT_TRUE(h.BindsBelow(nodes[3], nodes[40]));
  EXPECT_FALSE(h.BindsBelow(nodes[40], nodes[3]));
  EXPECT_TRUE(h.AddPreferenceEdge(nodes[3], nodes[40]).IsAlreadyExists());
}

TEST(HierarchyTest, NodeAddedAfterFirstPreferenceEdge) {
  Hierarchy h("x");
  NodeId a = h.AddClass("a").value();
  NodeId b = h.AddClass("b").value();
  ASSERT_TRUE(h.AddPreferenceEdge(a, b).ok());
  NodeId c = h.AddClass("c").value();
  NodeId i = h.AddInstance(Value::Int(7), c).value();
  EXPECT_TRUE(h.PreferenceSuccessors(c).empty());
  EXPECT_TRUE(h.PreferencePredecessors(i).empty());
  EXPECT_EQ(h.BindingAncestors(i).size(), 3u);  // i, c, root
  ASSERT_TRUE(h.AddPreferenceEdge(b, c).ok());
  EXPECT_EQ(h.PreferencePredecessors(c), (std::vector<NodeId>{b}));
  EXPECT_TRUE(h.BindsBelow(a, i));  // a -> b -> c -> i
  std::vector<NodeId> up = h.BindingAncestors(i);
  EXPECT_NE(std::find(up.begin(), up.end(), a), up.end());
  EXPECT_EQ(h.num_preference_edges(), 2u);
}

TEST(HierarchyTest, EliminateNodeWithAndWithoutPreferenceEdges) {
  Hierarchy h("x");
  NodeId a = h.AddClass("a").value();
  NodeId b = h.AddClass("b").value();
  NodeId c = h.AddClass("c").value();
  // No preference edge anywhere yet: the adjacency is unsized.
  ASSERT_TRUE(h.EliminateNode(c).ok());
  ASSERT_TRUE(h.AddPreferenceEdge(a, b).ok());
  NodeId d = h.AddClass("d").value();  // beyond the sized adjacency
  ASSERT_TRUE(h.EliminateNode(d).ok());
  EXPECT_EQ(h.num_preference_edges(), 1u);
  ASSERT_TRUE(h.EliminateNode(b).ok());  // drops a -> b
  EXPECT_EQ(h.num_preference_edges(), 0u);
  EXPECT_TRUE(h.PreferenceSuccessors(a).empty());
  EXPECT_TRUE(h.PreferencePredecessors(b).empty());
}

TEST(HierarchyTest, CopyKeepsPreferenceAdjacency) {
  Hierarchy h("x");
  NodeId a = h.AddClass("a").value();
  NodeId b = h.AddClass("b").value();
  ASSERT_TRUE(h.AddPreferenceEdge(a, b).ok());
  Hierarchy copy = h;
  NodeId c = copy.AddClass("c").value();
  ASSERT_TRUE(copy.AddPreferenceEdge(b, c).ok());
  EXPECT_TRUE(copy.BindsBelow(a, c));
  EXPECT_EQ(copy.PreferenceSuccessors(a), (std::vector<NodeId>{b}));
  EXPECT_EQ(h.num_preference_edges(), 1u);
  EXPECT_TRUE(h.PreferenceSuccessors(b).empty());
  EXPECT_TRUE(h.BindsBelow(a, b));
}

TEST(HierarchyTest, EliminateNodePreservesSubsumption) {
  Hierarchy h("animal");
  NodeId bird = h.AddClass("bird").value();
  NodeId penguin = h.AddClass("penguin", bird).value();
  NodeId paul = h.AddInstance(S("paul"), penguin).value();
  ASSERT_TRUE(h.EliminateNode(penguin).ok());
  EXPECT_TRUE(h.Subsumes(bird, paul));
  EXPECT_TRUE(h.FindClass("penguin").status().IsNotFound());
  EXPECT_EQ(h.num_classes(), 2u);
  // Name can be reused after elimination.
  EXPECT_TRUE(h.AddClass("penguin", bird).ok());
}

TEST(HierarchyTest, EliminateRootRejected) {
  Hierarchy h("animal");
  EXPECT_TRUE(h.EliminateNode(h.root()).IsInvalidArgument());
}

TEST(HierarchyTest, ClassesAndInstancesEnumeration) {
  Hierarchy h("animal");
  NodeId bird = h.AddClass("bird").value();
  h.AddInstance(S("tweety"), bird).value();
  EXPECT_EQ(h.Classes().size(), 2u);
  EXPECT_EQ(h.Instances().size(), 1u);
  EXPECT_EQ(h.Nodes().size(), 3u);
}


// ----- Pruning predicates -----------------------------------------------------

/// The overlap cone of n as a sorted node list.
std::vector<NodeId> Cone(const Hierarchy& h, NodeId n) {
  std::vector<NodeId> out;
  for (uint32_t i : h.OverlapCone(n).ToVector()) out.push_back(i);
  return out;
}

/// Checks both pruning predicates against the primitive they stand in for,
/// over every ordered pair of live nodes: a is in n's overlap cone iff
/// MCD(a, n) is non-empty, and LeafDisjoint(a, n) implies MCD(a, n) empty.
void ExpectPredicatesMatchMcd(const Hierarchy& h) {
  std::vector<NodeId> nodes = h.Nodes();
  for (NodeId n : nodes) {
    DynamicBitset cone = h.OverlapCone(n);
    for (NodeId a : nodes) {
      bool overlap = !h.MaximalCommonDescendants(a, n).empty();
      EXPECT_EQ(cone.Test(a), overlap)
          << h.NodeName(a) << " in cone of " << h.NodeName(n);
      if (h.LeafDisjoint(a, n)) {
        EXPECT_FALSE(overlap) << h.NodeName(a) << " vs " << h.NodeName(n);
      }
    }
  }
}

TEST(HierarchyTest, OverlapConeInTreeIsAncestorsAndDescendants) {
  Hierarchy h("animal");
  NodeId bird = h.AddClass("bird").value();
  NodeId fish = h.AddClass("fish").value();
  NodeId canary = h.AddClass("canary", bird).value();
  NodeId penguin = h.AddClass("penguin", bird).value();
  ASSERT_TRUE(h.AddInstance(S("tweety"), canary).ok());
  NodeId paul = h.AddInstance(S("paul"), penguin).value();
  ASSERT_TRUE(h.AddInstance(S("nemo"), fish).ok());
  for (NodeId n : h.Nodes()) {
    std::vector<NodeId> expected = h.dag().Ancestors(n);
    for (NodeId d : h.dag().Descendants(n)) expected.push_back(d);
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());
    EXPECT_EQ(Cone(h, n), expected) << h.NodeName(n);
  }
  EXPECT_EQ(Cone(h, penguin),
            (std::vector<NodeId>{h.root(), bird, penguin, paul}));
  ExpectPredicatesMatchMcd(h);
}

TEST(HierarchyTest, OverlapConeInDagHoldsOtherParentsOfSharedDescendants) {
  Hierarchy h("x");
  NodeId a = h.AddClass("a").value();
  NodeId b = h.AddClass("b").value();
  NodeId c = h.AddClass("c").value();
  NodeId m = h.AddClass("m", a).value();
  ASSERT_TRUE(h.AddEdge(b, m).ok());
  NodeId i = h.AddInstance(S("i"), m).value();
  ASSERT_TRUE(h.AddInstance(S("j"), c).ok());
  // b is neither an ancestor nor a descendant of a, but shares m with it.
  EXPECT_EQ(Cone(h, a), (std::vector<NodeId>{h.root(), a, b, m, i}));
  EXPECT_EQ(Cone(h, b), (std::vector<NodeId>{h.root(), a, b, m, i}));
  EXPECT_EQ(Cone(h, i), (std::vector<NodeId>{h.root(), a, b, m, i}));
  EXPECT_FALSE(h.OverlapCone(a).Test(c));
  ExpectPredicatesMatchMcd(h);
}

TEST(HierarchyTest, LeafDisjointOnlyForIncomparableLeafPairs) {
  Hierarchy h("x");
  NodeId a = h.AddClass("a").value();
  NodeId b = h.AddClass("b").value();
  NodeId m = h.AddClass("m", a).value();
  ASSERT_TRUE(h.AddEdge(b, m).ok());
  NodeId i = h.AddInstance(S("i"), m).value();
  NodeId j = h.AddInstance(S("j")).value();
  NodeId empty = h.AddClass("empty").value();  // a childless class
  NodeId d = h.AddClass("d").value();
  ASSERT_TRUE(h.AddInstance(S("k"), d).ok());
  // Comparable pairs, including a node with itself.
  EXPECT_FALSE(h.LeafDisjoint(a, m));
  EXPECT_FALSE(h.LeafDisjoint(m, a));
  EXPECT_FALSE(h.LeafDisjoint(a, i));
  EXPECT_FALSE(h.LeafDisjoint(i, i));
  // Incomparable classes that share a child.
  EXPECT_FALSE(h.LeafDisjoint(a, b));
  // A leaf (instance or childless class) against an incomparable class.
  EXPECT_TRUE(h.LeafDisjoint(j, a));
  EXPECT_TRUE(h.LeafDisjoint(a, j));
  EXPECT_TRUE(h.LeafDisjoint(i, j));
  EXPECT_TRUE(h.LeafDisjoint(empty, b));
  // Disjoint but both with children: the test cannot tell.
  EXPECT_FALSE(h.LeafDisjoint(a, d));
  EXPECT_TRUE(h.MaximalCommonDescendants(a, d).empty());
  ExpectPredicatesMatchMcd(h);
}

TEST(HierarchyTest, PruningPredicatesTrackEdits) {
  Hierarchy h("x");
  NodeId a = h.AddClass("a").value();
  NodeId b = h.AddClass("b").value();
  NodeId c = h.AddClass("c").value();
  NodeId i = h.AddInstance(S("i"), a).value();
  EXPECT_TRUE(h.LeafDisjoint(i, b));
  EXPECT_TRUE(h.LeafDisjoint(c, a));
  EXPECT_FALSE(h.OverlapCone(b).Test(a));

  // AddEdge: i becomes a shared child of a and b.
  ASSERT_TRUE(h.AddEdge(b, i).ok());
  EXPECT_FALSE(h.LeafDisjoint(i, b));
  EXPECT_TRUE(h.OverlapCone(b).Test(a));
  EXPECT_EQ(h.MaximalCommonDescendants(a, b), (std::vector<NodeId>{i}));
  // A child under c ends c's leaf status.
  NodeId k = h.AddInstance(S("k"), c).value();
  EXPECT_FALSE(h.LeafDisjoint(c, a));
  EXPECT_TRUE(h.LeafDisjoint(k, a));
  ExpectPredicatesMatchMcd(h);

  // EliminateNode: a's child i stays under b only.
  ASSERT_TRUE(h.EliminateNode(a).ok());
  EXPECT_EQ(Cone(h, b), (std::vector<NodeId>{h.root(), b, i}));
  ExpectPredicatesMatchMcd(h);
  // Eliminating c reconnects k to the root; c's leaf k stays a leaf.
  ASSERT_TRUE(h.EliminateNode(c).ok());
  EXPECT_TRUE(h.LeafDisjoint(k, b));
  EXPECT_EQ(Cone(h, k), (std::vector<NodeId>{h.root(), k}));
  ExpectPredicatesMatchMcd(h);
}

TEST(HierarchyTest, PruningPredicatesIgnorePreferenceEdges) {
  Hierarchy h("x");
  NodeId a = h.AddClass("a").value();
  NodeId b = h.AddClass("b").value();
  NodeId i = h.AddInstance(S("i"), a).value();
  NodeId j = h.AddInstance(S("j"), b).value();
  ASSERT_TRUE(h.AddPreferenceEdge(a, b).ok());
  ASSERT_TRUE(h.BindsBelow(a, j));
  // MCD is subsumption-only, so a preference edge creates no overlap.
  EXPECT_TRUE(h.MaximalCommonDescendants(a, b).empty());
  EXPECT_FALSE(h.OverlapCone(a).Test(b));
  EXPECT_FALSE(h.OverlapCone(b).Test(a));
  EXPECT_TRUE(h.LeafDisjoint(j, a));
  EXPECT_TRUE(h.LeafDisjoint(i, b));
  ExpectPredicatesMatchMcd(h);
}

TEST(HierarchyTest, PruningPredicatesMatchMcdOnRandomDags) {
  for (uint64_t seed = 0; seed < 12; ++seed) {
    HierarchyOptions options;
    options.keep_redundant_edges = seed % 3 == 0;
    Hierarchy h("x", options);
    Random rng(seed);
    std::vector<NodeId> classes{h.root()};
    auto maybe_second_parent = [&](NodeId node) {
      if (rng.Bernoulli(0.4)) {
        // May be redundant or cyclic; both are rejected or ignored.
        (void)h.AddEdge(classes[rng.Index(classes.size())], node);
      }
    };
    for (int c = 0; c < 14; ++c) {
      NodeId node = h.AddClass("c" + std::to_string(c),
                               classes[rng.Index(classes.size())])
                        .value();
      maybe_second_parent(node);
      classes.push_back(node);
    }
    for (int i = 0; i < 20; ++i) {
      std::string name = "i" + std::to_string(i);
      NodeId node =
          h.AddInstance(S(name.c_str()), classes[rng.Index(classes.size())])
              .value();
      maybe_second_parent(node);
    }
    SCOPED_TRACE(seed);
    ExpectPredicatesMatchMcd(h);
  }
}

}  // namespace
}  // namespace hirel
