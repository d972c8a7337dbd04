// Differential test for the pruned algebra read kernels: SelectEquals skips
// tuples outside the selected node's overlap cone, the join pair loop
// skips pairs that Hierarchy::LeafDisjoint proves disjoint, and the
// derived-relation MCD closure (which also supplies the set operations'
// cross MCDs) pairs only items that
// overlap in every attribute, found through join nodes
// (Hierarchy::JoinAncestors). Every prune must only drop work whose
// maximal-common-descendant set is empty, so results must equal the
// unpruned loops kept below: every tuple clamped through
// Hierarchy::MaximalCommonDescendants, every pair through
// ItemMaximalCommonDescendants.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "algebra/join.h"
#include "algebra/select.h"
#include "algebra/setops.h"
#include "common/random.h"
#include "common/str_util.h"
#include "core/conflict.h"
#include "core/inference.h"
#include "io/text_dump.h"
#include "testing/fixtures.h"

namespace hirel {
namespace {

using TruthFn = std::function<Result<Truth>(const Item&)>;

// ----- Unpruned reference kernels ---------------------------------------

/// The MCD closure with every incomparable pair, added items included,
/// sent through ItemMaximalCommonDescendants. Fails when an added item
/// would take the set past `max_items`.
Status ReferenceClose(const Schema& schema, std::vector<Item>& items,
                      size_t max_items = 100'000) {
  std::unordered_set<Item, ItemHash> seen(items.begin(), items.end());
  items.assign(seen.begin(), seen.end());
  for (size_t i = 0; i < items.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (ItemComparable(schema, items[i], items[j])) continue;
      for (Item& mcd :
           ItemMaximalCommonDescendants(schema, items[i], items[j])) {
        if (!seen.insert(mcd).second) continue;
        if (items.size() >= max_items) {
          return Status::ResourceExhausted(
              "maximal-common-descendant closure exceeds item cap");
        }
        items.push_back(std::move(mcd));
      }
    }
  }
  return Status::OK();
}

/// ReferenceClose followed by serial truth assignment.
Result<HierarchicalRelation> ReferenceDerive(std::string name,
                                             const Schema& schema,
                                             std::vector<Item> items,
                                             const TruthFn& truth_of) {
  HIREL_RETURN_IF_ERROR(ReferenceClose(schema, items));
  HierarchicalRelation result(std::move(name), schema);
  for (const Item& item : items) {
    HIREL_ASSIGN_OR_RETURN(Truth truth, truth_of(item));
    HIREL_RETURN_IF_ERROR(result.Insert(item, truth).status());
  }
  return result;
}

Result<HierarchicalRelation> ReferenceSelect(
    const HierarchicalRelation& relation, size_t attr, NodeId node) {
  const Hierarchy* h = relation.schema().hierarchy(attr);
  std::vector<Item> candidates;
  for (TupleId id : relation.TupleIds()) {
    Item item = relation.ItemAt(id).ToItem();
    for (NodeId m : h->MaximalCommonDescendants(item[attr], node)) {
      Item clamped = item;
      clamped[attr] = m;
      candidates.push_back(std::move(clamped));
    }
  }
  return ReferenceDerive(
      StrCat(relation.name(), "_select_", h->NodeName(node)),
      relation.schema(), std::move(candidates),
      [&](const Item& item) { return InferTruth(relation, item, {}); });
}

Result<HierarchicalRelation> ReferenceSetOp(
    const HierarchicalRelation& left, const HierarchicalRelation& right,
    const char* op_name, const std::function<bool(bool, bool)>& combine) {
  const Schema& schema = left.schema();
  std::vector<Item> lefts;
  for (TupleId id : left.TupleIds()) {
    lefts.push_back(left.ItemAt(id).ToItem());
  }
  std::vector<Item> rights;
  for (TupleId id : right.TupleIds()) {
    rights.push_back(right.ItemAt(id).ToItem());
  }
  std::vector<Item> candidates = lefts;
  candidates.insert(candidates.end(), rights.begin(), rights.end());
  for (const Item& a : lefts) {
    for (const Item& b : rights) {
      if (ItemComparable(schema, a, b)) continue;
      for (Item& mcd : ItemMaximalCommonDescendants(schema, a, b)) {
        candidates.push_back(std::move(mcd));
      }
    }
  }
  return ReferenceDerive(
      StrCat(left.name(), "_", op_name, "_", right.name()), schema,
      std::move(candidates), [&](const Item& item) -> Result<Truth> {
        HIREL_ASSIGN_OR_RETURN(Truth lt, InferTruth(left, item, {}));
        HIREL_ASSIGN_OR_RETURN(Truth rt, InferTruth(right, item, {}));
        return combine(lt == Truth::kPositive, rt == Truth::kPositive)
                   ? Truth::kPositive
                   : Truth::kNegative;
      });
}

/// Natural join over relations whose only shared attribute names are the
/// join attributes (so the tail needs no renaming).
Result<HierarchicalRelation> ReferenceNaturalJoin(
    const HierarchicalRelation& left, const HierarchicalRelation& right) {
  const Schema& ls = left.schema();
  const Schema& rs = right.schema();
  std::vector<std::pair<size_t, size_t>> on;
  std::vector<size_t> left_of(rs.size(), SIZE_MAX);
  Schema schema;
  for (size_t i = 0; i < ls.size(); ++i) {
    HIREL_RETURN_IF_ERROR(schema.Append(ls.name(i), ls.hierarchy(i)));
    Result<size_t> j = rs.IndexOf(ls.name(i));
    if (!j.ok()) continue;
    on.emplace_back(i, *j);
    left_of[*j] = i;
  }
  std::vector<size_t> tail(rs.size(), SIZE_MAX);
  for (size_t j = 0; j < rs.size(); ++j) {
    if (left_of[j] != SIZE_MAX) continue;
    tail[j] = schema.size();
    HIREL_RETURN_IF_ERROR(schema.Append(rs.name(j), rs.hierarchy(j)));
  }
  std::vector<Item> candidates;
  for (TupleId lid : left.TupleIds()) {
    Item litem = left.ItemAt(lid).ToItem();
    for (TupleId rid : right.TupleIds()) {
      Item ritem = right.ItemAt(rid).ToItem();
      std::vector<Item> partial(1, Item(schema.size()));
      for (size_t i = 0; i < ls.size(); ++i) partial[0][i] = litem[i];
      for (size_t j = 0; j < rs.size(); ++j) {
        if (tail[j] != SIZE_MAX) partial[0][tail[j]] = ritem[j];
      }
      for (const auto& [li, ri] : on) {
        std::vector<Item> next;
        for (NodeId m : ls.hierarchy(li)->MaximalCommonDescendants(
                 litem[li], ritem[ri])) {
          for (Item item : partial) {
            item[li] = m;
            next.push_back(std::move(item));
          }
        }
        partial = std::move(next);
      }
      for (Item& item : partial) candidates.push_back(std::move(item));
    }
  }
  return ReferenceDerive(
      StrCat(left.name(), "_join_", right.name()), schema,
      std::move(candidates), [&](const Item& item) -> Result<Truth> {
        Item litem(item.begin(), item.begin() + ls.size());
        Item ritem(rs.size());
        for (size_t j = 0; j < rs.size(); ++j) {
          ritem[j] = left_of[j] != SIZE_MAX ? item[left_of[j]] : item[tail[j]];
        }
        HIREL_ASSIGN_OR_RETURN(Truth lt, InferTruth(left, litem, {}));
        HIREL_ASSIGN_OR_RETURN(Truth rt, InferTruth(right, ritem, {}));
        return (lt == Truth::kPositive && rt == Truth::kPositive)
                   ? Truth::kPositive
                   : Truth::kNegative;
      });
}

std::string Render(const Result<HierarchicalRelation>& r) {
  if (!r.ok()) return StrCat("error: ", r.status().ToString());
  return FormatRelation(*r);
}

// ----- Comparison helpers ------------------------------------------------

void ExpectSelectsMatch(const HierarchicalRelation& r, const std::string& ctx) {
  for (size_t attr = 0; attr < r.schema().size(); ++attr) {
    const Hierarchy* h = r.schema().hierarchy(attr);
    for (NodeId node : h->Nodes()) {
      EXPECT_EQ(Render(SelectEquals(r, attr, node)),
                Render(ReferenceSelect(r, attr, node)))
          << ctx << " select " << r.schema().name(attr) << " = "
          << h->NodeName(node);
    }
  }
}

void ExpectSetOpsMatch(const HierarchicalRelation& r,
                       const HierarchicalRelation& s, const std::string& ctx) {
  std::string want_union = Render(
      ReferenceSetOp(r, s, "union", [](bool a, bool b) { return a || b; }));
  std::string want_intersect = Render(ReferenceSetOp(
      r, s, "intersect", [](bool a, bool b) { return a && b; }));
  std::string want_difference = Render(ReferenceSetOp(
      r, s, "difference", [](bool a, bool b) { return a && !b; }));
  EXPECT_EQ(Render(Union(r, s)), want_union) << ctx;
  EXPECT_EQ(Render(Intersect(r, s)), want_intersect) << ctx;
  EXPECT_EQ(Render(Difference(r, s)), want_difference) << ctx;
}

void ExpectJoinMatches(const HierarchicalRelation& r,
                       const HierarchicalRelation& s, const std::string& ctx) {
  EXPECT_EQ(Render(NaturalJoin(r, s)), Render(ReferenceNaturalJoin(r, s)))
      << ctx;
}

/// Fills `rel` with random tuples over its schema's hierarchies, then drops
/// the newest tuples until it satisfies the ambiguity constraint.
void FillConsistent(HierarchicalRelation& rel, Random& rng, size_t tuples) {
  const Schema& schema = rel.schema();
  for (size_t t = 0; t < tuples; ++t) {
    Item item(schema.size());
    for (size_t i = 0; i < schema.size(); ++i) {
      std::vector<NodeId> nodes = schema.hierarchy(i)->Nodes();
      item[i] = nodes[rng.Index(nodes.size())];
    }
    (void)rel.Insert(item,
                     rng.Bernoulli(0.4) ? Truth::kNegative : Truth::kPositive);
  }
  while (!CheckAmbiguity(rel).ok()) {
    std::vector<TupleId> ids = rel.TupleIds();
    ASSERT_FALSE(ids.empty());
    ASSERT_TRUE(rel.Erase(ids.back()).ok());
  }
}

TEST(PrunedKernelsTest, MatchUnprunedLoopsOnRandomDatabases) {
  for (uint64_t seed = 0; seed < 12; ++seed) {
    testing::RandomFixtureOptions options;
    options.num_attributes = 2;
    options.num_classes = 10;
    options.num_instances = 16;
    options.num_tuples = 8;
    options.extra_parent_p = 0.4;
    testing::RandomDatabase rdb(seed, options);
    Database& db = rdb.db();
    const HierarchicalRelation& r = *rdb.relation();
    Random rng(seed * 131 + 17);
    HierarchicalRelation* s =
        db.CreateRelation("s", {{"a0", "domain0"}, {"a1", "domain1"}})
            .value();
    FillConsistent(*s, rng, 6);
    // Joins with r on a1 only; z is a fresh non-join attribute.
    HierarchicalRelation* t =
        db.CreateRelation("t", {{"a1", "domain1"}, {"z", "domain0"}})
            .value();
    FillConsistent(*t, rng, 6);

    std::string ctx = StrCat("seed ", seed);
    ExpectSelectsMatch(r, ctx);
    ExpectSelectsMatch(*s, ctx);
    ExpectSetOpsMatch(r, *s, ctx);
    ExpectSetOpsMatch(*s, r, ctx);
    ExpectJoinMatches(r, *t, ctx);
    ExpectJoinMatches(*t, r, ctx);
  }
}

// Two incomparable classes, mammal and pet, share the multi-parent class
// house_mammal. Neither is a leaf, so LeafDisjoint cannot decide the pair
// and the kernels fall back to the full MCD computation, which must clamp
// onto house_mammal.
TEST(PrunedKernelsTest, MatchUnprunedLoopsOnSharedMultiParentChild) {
  Database db;
  Hierarchy* animal = db.CreateHierarchy("animal").value();
  NodeId mammal = animal->AddClass("mammal").value();
  NodeId pet = animal->AddClass("pet").value();
  NodeId house = animal->AddClass("house_mammal", mammal).value();
  ASSERT_TRUE(animal->AddEdge(pet, house).ok());
  NodeId fish = animal->AddClass("fish").value();
  ASSERT_TRUE(animal->AddInstance(Value::String("cat"), house).ok());
  ASSERT_TRUE(animal->AddInstance(Value::String("whale"), mammal).ok());
  ASSERT_TRUE(animal->AddInstance(Value::String("parrot"), pet).ok());
  NodeId nemo = animal->AddInstance(Value::String("nemo"), fish).value();
  ASSERT_TRUE(animal->AddEdge(pet, nemo).ok());
  Hierarchy* color = db.CreateHierarchy("color").value();
  NodeId dark = color->AddClass("dark").value();
  NodeId black = color->AddInstance(Value::String("black"), dark).value();
  NodeId white = color->AddInstance(Value::String("white")).value();

  HierarchicalRelation* likes =
      db.CreateRelation("likes", {{"who", "animal"}}).value();
  ASSERT_TRUE(likes->Insert({mammal}, Truth::kPositive).ok());
  ASSERT_TRUE(likes->Insert({pet}, Truth::kNegative).ok());
  ASSERT_TRUE(likes->Insert({house}, Truth::kPositive).ok());
  ASSERT_TRUE(likes->Insert({nemo}, Truth::kPositive).ok());
  ASSERT_TRUE(CheckAmbiguity(*likes).ok());
  HierarchicalRelation* feeds =
      db.CreateRelation("feeds", {{"who", "animal"}}).value();
  ASSERT_TRUE(feeds->Insert({pet}, Truth::kPositive).ok());
  ASSERT_TRUE(feeds->Insert({fish}, Truth::kNegative).ok());
  ASSERT_TRUE(feeds->Insert({nemo}, Truth::kPositive).ok());  // pet and fish
  ASSERT_TRUE(CheckAmbiguity(*feeds).ok());
  HierarchicalRelation* coat =
      db.CreateRelation("coat", {{"who", "animal"}, {"shade", "color"}})
          .value();
  ASSERT_TRUE(coat->Insert({mammal, dark}, Truth::kPositive).ok());
  ASSERT_TRUE(coat->Insert({pet, white}, Truth::kPositive).ok());
  ASSERT_TRUE(coat->Insert({nemo, black}, Truth::kPositive).ok());

  // The fallback really clamps: selecting pet from likes keeps the
  // mammal tuple, clamped onto house_mammal.
  HierarchicalRelation selected = SelectEquals(*likes, 0, pet).value();
  EXPECT_TRUE(selected.FindItem({house}).has_value());

  ExpectSelectsMatch(*likes, "likes");
  ExpectSelectsMatch(*coat, "coat");
  ExpectSetOpsMatch(*likes, *feeds, "likes/feeds");
  ExpectSetOpsMatch(*feeds, *likes, "feeds/likes");
  ExpectJoinMatches(*likes, *coat, "likes/coat");
  ExpectJoinMatches(*coat, *feeds, "coat/feeds");
}

// ----- The MCD closure against the all-pairs reference -------------------

std::vector<Item> Sorted(std::vector<Item> items) {
  std::sort(items.begin(), items.end());
  return items;
}

/// What ExpectClosureMatches saw, so callers can check that their cases
/// exercise the closure.
struct ClosureShape {
  size_t distinct = 0;  // distinct input items
  size_t closed = 0;    // size of the closed set
  bool needs_second_round = false;  // an added item had to pair again
};

/// Closes `items` with the kernel and the reference and expects the same
/// set. When the closure adds items, it also expects the same status at
/// `max_items` equal to the closed size, one below it and one above it.
ClosureShape ExpectClosureMatches(const Schema& schema,
                                  const std::vector<Item>& items,
                                  const std::string& ctx) {
  ClosureShape shape;
  std::vector<Item> want = items;
  EXPECT_TRUE(ReferenceClose(schema, want).ok()) << ctx;
  std::vector<Item> got = items;
  Status status = CloseUnderMaximalCommonDescendants(schema, got);
  EXPECT_TRUE(status.ok()) << ctx << ": " << status.ToString();
  EXPECT_EQ(Sorted(got), Sorted(want)) << ctx;

  std::unordered_set<Item, ItemHash> distinct(items.begin(), items.end());
  shape.distinct = distinct.size();
  shape.closed = want.size();
  // One round: the inputs and the MCDs of their pairs.
  std::unordered_set<Item, ItemHash> one_round = distinct;
  for (const Item& a : distinct) {
    for (const Item& b : distinct) {
      for (Item& mcd : ItemMaximalCommonDescendants(schema, a, b)) {
        one_round.insert(std::move(mcd));
      }
    }
  }
  shape.needs_second_round = want.size() > one_round.size();

  if (shape.closed == shape.distinct) return shape;
  for (size_t cap : {shape.closed - 1, shape.closed, shape.closed + 1}) {
    std::vector<Item> capped_want = items;
    std::vector<Item> capped_got = items;
    Status want_status = ReferenceClose(schema, capped_want, cap);
    Status got_status =
        CloseUnderMaximalCommonDescendants(schema, capped_got, cap);
    EXPECT_EQ(got_status.ToString(), want_status.ToString())
        << ctx << " max_items " << cap;
    EXPECT_EQ(got_status.ok(), cap >= shape.closed)
        << ctx << " max_items " << cap;
  }
  return shape;
}

/// `count` items with uniformly drawn components.
std::vector<Item> RandomItems(const Schema& schema, Random& rng,
                              size_t count) {
  std::vector<Item> items;
  for (size_t t = 0; t < count; ++t) {
    Item item(schema.size());
    for (size_t i = 0; i < schema.size(); ++i) {
      std::vector<NodeId> nodes = schema.hierarchy(i)->Nodes();
      item[i] = nodes[rng.Index(nodes.size())];
    }
    items.push_back(std::move(item));
  }
  return items;
}

TEST(ClosureOracleTest, MatchesAllPairsOnRandomDags) {
  size_t added = 0;
  size_t second_rounds = 0;
  for (size_t attributes = 1; attributes <= 3; ++attributes) {
    for (double p : {0.25, 0.5}) {
      for (uint64_t seed = 0; seed < 100; ++seed) {
        testing::RandomFixtureOptions options;
        options.num_attributes = attributes;
        options.num_classes = 10;
        options.num_instances = 12;
        options.num_tuples = 0;
        options.extra_parent_p = p;
        testing::RandomDatabase rdb(seed, options);
        const Schema& schema = rdb.relation()->schema();
        Random rng(seed * 7919 + attributes);
        // Half the seeds also carry preference edges, which bias binding
        // order but create no overlap.
        if (seed % 2 == 1) {
          for (size_t i = 0; i < attributes; ++i) {
            Hierarchy* h = rdb.hierarchy(i);
            std::vector<NodeId> nodes = h->Nodes();
            for (int e = 0; e < 4; ++e) {
              (void)h->AddPreferenceEdge(nodes[rng.Index(nodes.size())],
                                         nodes[rng.Index(nodes.size())]);
            }
          }
        }
        std::vector<Item> items =
            RandomItems(schema, rng, 4 + rng.Index(10));
        ClosureShape shape = ExpectClosureMatches(
            schema, items,
            StrCat(attributes, " attribute(s), p ", p, ", seed ", seed));
        if (shape.closed > shape.distinct) ++added;
        if (shape.needs_second_round) ++second_rounds;
      }
    }
  }
  // The cases must exercise the closure, including items that only arise
  // from pairing an added item again.
  EXPECT_GT(added, 150u);
  EXPECT_GE(second_rounds, 4u);
}

TEST(ClosureOracleTest, MatchesAllPairsOnRandomTreesAtTwoAttributes) {
  size_t added = 0;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    testing::RandomFixtureOptions options;
    options.num_attributes = 2;
    options.num_classes = 8;
    options.num_instances = 10;
    options.num_tuples = 0;
    options.extra_parent_p = 0;
    testing::RandomDatabase rdb(seed, options);
    const Schema& schema = rdb.relation()->schema();
    ASSERT_TRUE(rdb.hierarchy(0)->JoinAncestors()->None());
    ASSERT_TRUE(rdb.hierarchy(1)->JoinAncestors()->None());
    Random rng(seed + 101);
    std::vector<Item> items = RandomItems(schema, rng, 4 + rng.Index(10));
    ClosureShape shape =
        ExpectClosureMatches(schema, items, StrCat("tree seed ", seed));
    if (shape.closed > shape.distinct) ++added;
  }
  EXPECT_GT(added, 20u);
}

// Two trees: (a, B) and (A, b) with a < A and b < B meet at (a, b), although
// neither hierarchy has a join node.
TEST(ClosureOracleTest, TreesAtTwoAttributesMeetComponentWise) {
  Database db;
  Hierarchy* left = db.CreateHierarchy("left").value();
  NodeId big_a = left->AddClass("A").value();
  NodeId small_a = left->AddClass("a", big_a).value();
  Hierarchy* right = db.CreateHierarchy("right").value();
  NodeId big_b = right->AddClass("B").value();
  NodeId small_b = right->AddClass("b", big_b).value();
  Schema schema({{"l", left}, {"r", right}});
  std::vector<Item> items{{small_a, big_b}, {big_a, small_b}};
  ASSERT_TRUE(CloseUnderMaximalCommonDescendants(schema, items).ok());
  EXPECT_EQ(Sorted(items),
            Sorted({{small_a, big_b}, {big_a, small_b}, {small_a, small_b}}));
  ExpectClosureMatches(schema, {{small_a, big_b}, {big_a, small_b}}, "A/B");
}

// A chain of join nodes: m joins a and b, x joins a and c, y joins b and c,
// and n joins m, x and y. The inputs' pairwise MCDs are m, x and y; n is
// the MCD of (m, c) and only appears once m is paired again.
TEST(ClosureOracleTest, AddedJoinNodesPairAgain) {
  Database db;
  Hierarchy* h = db.CreateHierarchy("h").value();
  NodeId a = h->AddClass("a").value();
  NodeId b = h->AddClass("b").value();
  NodeId c = h->AddClass("c").value();
  NodeId m = h->AddClass("m", a).value();
  ASSERT_TRUE(h->AddEdge(b, m).ok());
  NodeId x = h->AddClass("x", a).value();
  ASSERT_TRUE(h->AddEdge(c, x).ok());
  NodeId y = h->AddClass("y", b).value();
  ASSERT_TRUE(h->AddEdge(c, y).ok());
  NodeId n = h->AddClass("n", m).value();
  ASSERT_TRUE(h->AddEdge(x, n).ok());
  ASSERT_TRUE(h->AddEdge(y, n).ok());
  Schema schema({{"v", h}});

  std::vector<Item> items{{a}, {b}, {c}};
  ASSERT_TRUE(CloseUnderMaximalCommonDescendants(schema, items).ok());
  EXPECT_EQ(Sorted(items), Sorted({{a}, {b}, {c}, {m}, {x}, {y}, {n}}));
  ClosureShape shape = ExpectClosureMatches(schema, {{a}, {b}, {c}}, "chain");
  EXPECT_TRUE(shape.needs_second_round);

  // The cap counts the closed set: seven items fit in seven, not six.
  std::vector<Item> capped{{a}, {b}, {c}};
  Status status = CloseUnderMaximalCommonDescendants(schema, capped, 6);
  EXPECT_TRUE(status.IsResourceExhausted());
  EXPECT_EQ(status.message(),
            "maximal-common-descendant closure exceeds item cap");
}

// Preference edges bias binding order only: a tree with preference edges
// still has no join node, and a preference edge between overlapping classes
// does not make them comparable for the closure.
TEST(ClosureOracleTest, PreferenceEdgesNeitherJoinNorOrder) {
  Database db;
  Hierarchy* animal = db.CreateHierarchy("animal").value();
  NodeId mammal = animal->AddClass("mammal").value();
  NodeId pet = animal->AddClass("pet").value();
  NodeId dog = animal->AddClass("dog", mammal).value();
  NodeId parrot = animal->AddClass("parrot", pet).value();
  ASSERT_TRUE(animal->AddPreferenceEdge(mammal, pet).ok());
  ASSERT_TRUE(animal->AddPreferenceEdge(dog, parrot).ok());
  EXPECT_TRUE(animal->JoinAncestors()->None());
  Schema schema({{"who", animal}});
  std::vector<Item> items{{mammal}, {pet}, {dog}, {parrot}};
  ASSERT_TRUE(CloseUnderMaximalCommonDescendants(schema, items).ok());
  EXPECT_EQ(items.size(), 4u);

  // A shared subclass makes mammal and pet overlap; the preference edge
  // between them must not hide their MCD.
  NodeId house = animal->AddClass("house_mammal", mammal).value();
  ASSERT_TRUE(animal->AddEdge(pet, house).ok());
  EXPECT_TRUE(animal->JoinAncestors()->Test(mammal));
  EXPECT_TRUE(animal->JoinAncestors()->Test(pet));
  EXPECT_FALSE(animal->JoinAncestors()->Test(dog));
  items = {{mammal}, {pet}};
  ASSERT_TRUE(CloseUnderMaximalCommonDescendants(schema, items).ok());
  EXPECT_EQ(Sorted(items), Sorted({{mammal}, {pet}, {house}}));
  ExpectClosureMatches(schema, {{mammal}, {pet}, {dog}, {parrot}},
                       "preferences");
}

}  // namespace
}  // namespace hirel
