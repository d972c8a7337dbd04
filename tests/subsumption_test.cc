#include "core/subsumption.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "catalog/database.h"
#include "common/random.h"
#include "common/str_util.h"
#include "core/subsumption_cache.h"
#include "reference_subsumption.h"
#include "testing/fixtures.h"

namespace hirel {
namespace {

using testing::FlyingFixture;
using testing::RespectsFixture;

TEST(SubsumptionTest, NodesInTopologicalOrder) {
  FlyingFixture f;
  SubsumptionGraph g = BuildSubsumptionGraph(*f.flies);
  ASSERT_EQ(g.nodes.size(), 4u);
  // bird+ must precede penguin-, which precedes afp+, which precedes
  // peter+.
  std::vector<Item> order;
  for (TupleId id : g.nodes) order.push_back(f.flies->ItemAt(id).ToItem());
  EXPECT_EQ(order[0], (Item{f.bird}));
  EXPECT_EQ(order[1], (Item{f.penguin}));
  EXPECT_EQ(order[2], (Item{f.afp}));
  EXPECT_EQ(order[3], (Item{f.peter}));
}

TEST(SubsumptionTest, HasseEdgesOnly) {
  FlyingFixture f;
  SubsumptionGraph g = BuildSubsumptionGraph(*f.flies);
  // Chain: 0 -> 1 -> 2 -> 3, no transitive shortcuts.
  EXPECT_EQ(g.successors[0], (std::vector<size_t>{1}));
  EXPECT_EQ(g.successors[1], (std::vector<size_t>{2}));
  EXPECT_EQ(g.successors[2], (std::vector<size_t>{3}));
  EXPECT_TRUE(g.successors[3].empty());
}

TEST(SubsumptionTest, UniversalNodeCapsSources) {
  FlyingFixture f;
  SubsumptionGraph g = BuildSubsumptionGraph(*f.flies);
  ASSERT_EQ(g.sources.size(), 1u);
  EXPECT_EQ(g.sources[0], 0u);
  EXPECT_EQ(g.predecessors[0],
            (std::vector<size_t>{SubsumptionGraph::kUniversalNode}));
  EXPECT_EQ(g.predecessors[1], (std::vector<size_t>{0}));
}

TEST(SubsumptionTest, Fig6aRespectsGraph) {
  RespectsFixture f;
  SubsumptionGraph g = BuildSubsumptionGraph(*f.respects);
  ASSERT_EQ(g.nodes.size(), 3u);
  // Two incomparable sources: (obsequious, teacher)+ and (student,
  // incoherent)-; both cover (obsequious, incoherent)+.
  EXPECT_EQ(g.sources.size(), 2u);
  // The resolver tuple is last in topological order, with both sources as
  // immediate predecessors.
  Item resolver{f.obsequious, f.incoherent};
  EXPECT_EQ(f.respects->tuple(g.nodes[2]).item, resolver);
  EXPECT_EQ(g.predecessors[2].size(), 2u);
}

TEST(SubsumptionTest, EmptyRelation) {
  FlyingFixture f;
  f.flies->Clear();
  SubsumptionGraph g = BuildSubsumptionGraph(*f.flies);
  EXPECT_TRUE(g.nodes.empty());
  EXPECT_TRUE(g.sources.empty());
}

TEST(SubsumptionTest, ToStringMentionsUniversalTuple) {
  FlyingFixture f;
  SubsumptionGraph g = BuildSubsumptionGraph(*f.flies);
  std::string s = SubsumptionGraphToString(*f.flies, g);
  EXPECT_NE(s.find("universal"), std::string::npos);
  EXPECT_NE(s.find("(bird)"), std::string::npos);
}

// ----- Differential oracle --------------------------------------------------

/// Renders `graph` and the n² reference build of `relation` and expects
/// them byte-identical.
void ExpectMatchesReference(const HierarchicalRelation& relation,
                            const SubsumptionGraph& graph,
                            const std::string& context) {
  EXPECT_EQ(SubsumptionGraphToString(relation, graph),
            SubsumptionGraphToString(
                relation, testing::ReferenceSubsumptionGraph(relation)))
      << context;
}

/// Random databases with multiple inheritance, 1–3 attributes, erased
/// tuples (dead slots), later inserts, and preference edges added after
/// construction: the index-driven build and the cache's patches must
/// render exactly like the pairwise reference at every stage.
TEST(SubsumptionOracleTest, BuildAndPatchMatchPairwiseReference) {
  for (size_t arity = 1; arity <= 3; ++arity) {
    for (double extra_parent_p : {0.25, 0.5}) {
      for (uint64_t seed = 0; seed < 12; ++seed) {
        testing::RandomFixtureOptions options;
        options.num_attributes = arity;
        options.extra_parent_p = extra_parent_p;
        options.num_classes = 10;
        options.num_instances = 16;
        options.num_tuples = 24;
        testing::RandomDatabase rdb(seed, options);
        HierarchicalRelation* rel = rdb.relation();
        SubsumptionCache& cache = rdb.db().subsumption_cache();
        Random rng(seed * 31 + arity);
        std::string context = StrCat("arity ", arity, " p ", extra_parent_p,
                                     " seed ", seed);

        ExpectMatchesReference(*rel, BuildSubsumptionGraph(*rel),
                               context + " built");
        cache.Get(*rel);

        // Dead slots.
        for (size_t k = rel->size() / 3; k > 0; --k) {
          std::vector<TupleId> ids = rel->TupleIds();
          ASSERT_TRUE(rel->Erase(ids[rng.Index(ids.size())]).ok());
        }
        ExpectMatchesReference(*rel, BuildSubsumptionGraph(*rel),
                               context + " built after erase");
        ExpectMatchesReference(*rel, cache.Get(*rel),
                               context + " cached after erase");

        // Preference edges on every hierarchy; cyclic ones are refused.
        for (size_t a = 0; a < arity; ++a) {
          Hierarchy* h = rdb.hierarchy(a);
          std::vector<NodeId> nodes = h->Nodes();
          for (int e = 0; e < 4; ++e) {
            (void)h->AddPreferenceEdge(nodes[rng.Index(nodes.size())],
                                       nodes[rng.Index(nodes.size())]);
          }
        }
        ExpectMatchesReference(*rel, BuildSubsumptionGraph(*rel),
                               context + " built after PREFER");
        ExpectMatchesReference(*rel, cache.Get(*rel),
                               context + " cached after PREFER");

        // Inserts placed under the preference edges.
        for (int k = 0; k < 6; ++k) {
          Item item(arity);
          for (size_t a = 0; a < arity; ++a) {
            std::vector<NodeId> nodes = rdb.hierarchy(a)->Nodes();
            item[a] = nodes[rng.Index(nodes.size())];
          }
          (void)rel->Insert(item, rng.Bernoulli(0.4) ? Truth::kNegative
                                                     : Truth::kPositive);
        }
        ExpectMatchesReference(*rel, BuildSubsumptionGraph(*rel),
                               context + " built after insert");
        ExpectMatchesReference(*rel, cache.Get(*rel),
                               context + " cached after insert");
      }
    }
  }
}

/// A relation whose every item is comparable (a chain) is the Σ|Up|
/// worst case; the cover subtraction must still leave only the n-1 chain
/// edges.
TEST(SubsumptionOracleTest, ChainKeepsOnlyCoverEdges) {
  Database db;
  Hierarchy* h = db.CreateHierarchy("d").value();
  std::vector<NodeId> chain{h->root()};
  for (int i = 0; i < 40; ++i) {
    chain.push_back(h->AddClass(StrCat("c", i), chain.back()).value());
  }
  HierarchicalRelation* rel =
      db.CreateRelation("r", {{"a", "d"}}).value();
  for (size_t i = 0; i < chain.size(); i += 2) {
    ASSERT_TRUE(rel->Insert({chain[i]}, Truth::kPositive).ok());
  }
  SubsumptionGraph g = BuildSubsumptionGraph(*rel);
  size_t edges = 0;
  for (const auto& list : g.successors) edges += list.size();
  EXPECT_EQ(edges, g.nodes.size() - 1);
  ExpectMatchesReference(*rel, g, "chain");
}

}  // namespace
}  // namespace hirel
