// Differential test for the pruned algebra read kernels: SelectEquals skips
// tuples outside the selected node's overlap cone, and the pairwise loops
// (the derived-relation MCD closure, the set-op cross pairs, the join pair
// loop) skip pairs that Hierarchy::LeafDisjoint proves disjoint. Both prunes
// must only drop work whose maximal-common-descendant set is empty, so the
// rendered result must be byte-identical to the unpruned loops kept below:
// every tuple clamped through Hierarchy::MaximalCommonDescendants, every
// pair through ItemMaximalCommonDescendants.

#include <gtest/gtest.h>

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

/// The MCD closure with every incomparable pair sent through
/// ItemMaximalCommonDescendants, followed by serial truth assignment.
Result<HierarchicalRelation> ReferenceDerive(std::string name,
                                             const Schema& schema,
                                             std::vector<Item> items,
                                             const TruthFn& truth_of) {
  std::unordered_set<Item, ItemHash> seen(items.begin(), items.end());
  items.assign(seen.begin(), seen.end());
  for (size_t i = 0; i < items.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (ItemComparable(schema, items[i], items[j])) continue;
      for (Item& mcd :
           ItemMaximalCommonDescendants(schema, items[i], items[j])) {
        if (seen.insert(mcd).second) items.push_back(std::move(mcd));
      }
    }
  }
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

}  // namespace
}  // namespace hirel
