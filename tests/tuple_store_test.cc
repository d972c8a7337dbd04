// TupleStore contracts: stable ids across churn, copies that keep ids and
// dead slots, ascending and exact subsumption scans, chunked iteration,
// byte accounting, tuple views that stay put across reads, and a seeded
// differential oracle against a std::map reference model.

#include "core/tuple_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/str_util.h"
#include "core/hierarchical_relation.h"
#include "testing/fixtures.h"

namespace hirel {
namespace {

/// Ids are sequential append positions, never reused across erase/insert
/// churn, and upserts keep the original tuple's id.
TEST(TupleStoreTest, TupleIdsAreStableAcrossChurn) {
  Database db;
  Hierarchy* h =
      testing::BuildTreeHierarchy(db, "d", /*depth=*/1, /*fanout=*/1,
                                  /*instances_per_leaf=*/64);
  HierarchicalRelation r("r", Schema({{"v", h}}));
  std::vector<NodeId> atoms = h->Instances();

  std::vector<TupleId> ids;
  for (size_t i = 0; i < 8; ++i) {
    ids.push_back(r.Insert({atoms[i]}, Truth::kPositive).value());
    EXPECT_EQ(ids.back(), static_cast<TupleId>(i));
  }
  // Erase a middle run; survivors keep their ids.
  ASSERT_TRUE(r.Erase(ids[2]).ok());
  ASSERT_TRUE(r.EraseItem({atoms[5]}).ok());
  EXPECT_EQ(r.TupleIds(), (std::vector<TupleId>{0, 1, 3, 4, 6, 7}));
  EXPECT_EQ(r.FindItem({atoms[4]}), std::optional<TupleId>(4));
  EXPECT_FALSE(r.FindItem({atoms[5]}).has_value());

  // New inserts continue the sequence: erased ids are never reused, even
  // for the very item that was erased.
  EXPECT_EQ(r.Insert({atoms[5]}, Truth::kNegative).value(), TupleId{8});
  EXPECT_EQ(r.Insert({atoms[8]}, Truth::kPositive).value(), TupleId{9});

  // Upsert on a live item flips truth in place, keeping the id.
  EXPECT_EQ(r.Upsert({atoms[0]}, Truth::kNegative).value(), TupleId{0});
  EXPECT_EQ(r.TruthOf(0), Truth::kNegative);
  EXPECT_EQ(r.size(), 8u);

  // Clear resets the id space.
  r.Clear();
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(r.Insert({atoms[3]}, Truth::kPositive).value(), TupleId{0});
}

TEST(TupleStoreTest, DuplicateAndContradictionPolicyHolds) {
  Database db;
  Hierarchy* h = testing::BuildTreeHierarchy(db, "d", 1, 1, 4);
  HierarchicalRelation r("r", Schema({{"v", h}}));
  NodeId atom = h->Instances()[0];
  ASSERT_TRUE(r.Insert({atom}, Truth::kPositive).ok());
  EXPECT_TRUE(r.Insert({atom}, Truth::kPositive).status().IsAlreadyExists());
  EXPECT_TRUE(
      r.Insert({atom}, Truth::kNegative).status().IsIntegrityViolation());
}

TEST(TupleStoreTest, CopyPreservesIdsDeadSlotsAndVersion) {
  Database db;
  Hierarchy* h = testing::BuildTreeHierarchy(db, "d", 1, 1, 8);
  HierarchicalRelation r("r", Schema({{"v", h}}));
  std::vector<NodeId> atoms = h->Instances();
  for (size_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(r.Insert({atoms[i]}, Truth::kPositive).ok());
  }
  ASSERT_TRUE(r.Erase(1).ok());
  ASSERT_TRUE(r.Erase(4).ok());

  HierarchicalRelation copy = r;
  EXPECT_EQ(copy.version(), r.version());
  EXPECT_EQ(copy.TupleIds(), r.TupleIds());
  EXPECT_EQ(copy.ToString(), r.ToString());
  // The copy's next id continues past the dead slots, like the original's.
  EXPECT_EQ(copy.Insert({atoms[6]}, Truth::kPositive).value(), TupleId{6});
}

/// TupleIds lists exactly the surviving ids, ascending, after holes are
/// punched through a large slot population.
TEST(TupleStoreTest, LiveIdsSkipHolesInAscendingOrder) {
  Database db;
  constexpr size_t kTuples = 3000;
  Hierarchy* h = testing::BuildTreeHierarchy(db, "d", 1, 1, kTuples);
  HierarchicalRelation r("r", Schema({{"v", h}}));
  for (NodeId atom : h->Instances()) {
    ASSERT_TRUE(r.Insert({atom}, Truth::kPositive).ok());
  }
  // Punch deterministic holes, including a fully dead stretch.
  for (TupleId id = 0; id < kTuples; id += 7) {
    ASSERT_TRUE(r.Erase(id).ok());
  }
  for (TupleId id = 1100; id < 2000; ++id) {
    if (r.alive(id)) {
      ASSERT_TRUE(r.Erase(id).ok());
    }
  }

  std::vector<TupleId> survivors;
  for (TupleId id = 0; id < kTuples; ++id) {
    if (id % 7 != 0 && (id < 1100 || id >= 2000)) survivors.push_back(id);
  }
  EXPECT_EQ(r.TupleIds(), survivors);
}

/// Under random insert/upsert/erase churn, both subsumption scans return
/// ascending ids and exactly the live tuples a brute-force ItemSubsumes
/// pass over TupleIds() finds.
TEST(TupleStoreTest, SubsumptionScansAreAscendingAndExact) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Database db;
    Hierarchy* h =
        testing::BuildTreeHierarchy(db, "d", /*depth=*/2, /*fanout=*/3,
                                    /*instances_per_leaf=*/12);
    Schema schema({{"v", h}});
    HierarchicalRelation r("r", schema);

    std::vector<NodeId> nodes = h->Instances();
    std::vector<NodeId> classes = h->Classes();
    nodes.insert(nodes.end(), classes.begin() + 1, classes.end());

    Random rng(seed);
    for (size_t step = 0; step < 200; ++step) {
      Item item{nodes[rng.Index(nodes.size())]};
      Truth truth = rng.Bernoulli(0.3) ? Truth::kNegative : Truth::kPositive;
      switch (rng.Uniform(4)) {
        case 0:
        case 1:
          (void)r.Insert(item, truth);
          break;
        case 2:
          ASSERT_TRUE(r.Upsert(item, truth).ok());
          break;
        case 3:
          (void)r.EraseItem(item);
          break;
      }
    }

    for (NodeId probe : nodes) {
      Item item{probe};
      std::vector<TupleId> subsuming, subsumed;
      for (TupleId id : r.TupleIds()) {
        if (ItemSubsumes(schema, r.ItemAt(id), item)) subsuming.push_back(id);
        if (ItemSubsumes(schema, item, r.ItemAt(id))) subsumed.push_back(id);
      }
      EXPECT_EQ(r.TuplesSubsuming(item), subsuming)
          << "seed " << seed << " node " << probe;
      EXPECT_EQ(r.TuplesSubsumedBy(item), subsumed)
          << "seed " << seed << " node " << probe;
    }
  }

  // Two attributes whose first is flat: nearly every tuple sits on the
  // vendor root, so attribute 0 alone would yield every tuple as a
  // candidate and the scans must draw from attribute 1 instead. The
  // binding scans run before and after preference edges on both
  // attributes.
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Database db;
    Hierarchy* vendor =
        testing::BuildTreeHierarchy(db, "vendor", /*depth=*/0, /*fanout=*/1,
                                    /*instances_per_leaf=*/4);
    Hierarchy* product =
        testing::BuildTreeHierarchy(db, "product", /*depth=*/2, /*fanout=*/3,
                                    /*instances_per_leaf=*/6);
    Schema schema({{"vendor", vendor}, {"product", product}});
    HierarchicalRelation r("r", schema);
    std::vector<NodeId> vendors = vendor->Nodes();
    std::vector<NodeId> products = product->Nodes();

    Random rng(seed + 100);
    for (size_t step = 0; step < 300; ++step) {
      NodeId v = rng.Bernoulli(0.9) ? vendor->root()
                                    : vendors[rng.Index(vendors.size())];
      Item item{v, products[rng.Index(products.size())]};
      if (rng.Uniform(4) == 0) {
        (void)r.EraseItem(item);
      } else {
        (void)r.Insert(item, Truth::kPositive);
      }
    }

    auto check = [&](const std::string& stage) {
      for (NodeId v : vendors) {
        for (NodeId p : products) {
          Item item{v, p};
          std::vector<TupleId> subsuming, subsumed, above, below;
          for (TupleId id : r.TupleIds()) {
            ItemView other = r.ItemAt(id);
            if (ItemSubsumes(schema, other, item)) subsuming.push_back(id);
            if (ItemSubsumes(schema, item, other)) subsumed.push_back(id);
            if (ItemBindsBelow(schema, other, item)) above.push_back(id);
            if (ItemBindsBelow(schema, item, other)) below.push_back(id);
          }
          std::string at = StrCat(stage, " seed ", seed, " item ",
                                  ItemToString(schema, item));
          EXPECT_EQ(r.TuplesSubsuming(item), subsuming) << at;
          EXPECT_EQ(r.TuplesSubsumedBy(item), subsumed) << at;
          EXPECT_EQ(r.TuplesBindingAbove(item), above) << at;
          EXPECT_EQ(r.TuplesBindingBelow(item), below) << at;
        }
      }
    };
    check("no preference edges");
    for (int e = 0; e < 3; ++e) {
      (void)vendor->AddPreferenceEdge(vendors[rng.Index(vendors.size())],
                                      vendors[rng.Index(vendors.size())]);
      (void)product->AddPreferenceEdge(products[rng.Index(products.size())],
                                       products[rng.Index(products.size())]);
    }
    ASSERT_GT(vendor->num_preference_edges() +
                  product->num_preference_edges(),
              0u);
    check("preference edges");
  }
}

/// tuple(id) and ItemAt(id) return views into the store's arena: repeated
/// reads, reads of other tuples, scans and lookups all leave them in place
/// and unchanged.
TEST(TupleStoreTest, TupleReturnsAStableReferenceAcrossReads) {
  Database db;
  Hierarchy* h = testing::BuildTreeHierarchy(db, "d", 1, 2, 16);
  HierarchicalRelation r("r", Schema({{"v", h}}));
  std::vector<NodeId> atoms = h->Instances();
  for (NodeId atom : atoms) {
    ASSERT_TRUE(r.Insert({atom}, Truth::kPositive).ok());
  }
  ASSERT_TRUE(r.Insert({h->Classes()[1]}, Truth::kNegative).ok());

  TupleView first = r.tuple(3);
  const Item copy = first.item.ToItem();
  EXPECT_EQ(r.tuple(3).item.data(), first.item.data());
  EXPECT_EQ(r.ItemAt(3).data(), first.item.data());
  for (TupleId id : r.TupleIds()) (void)r.tuple(id);
  (void)r.TuplesSubsuming(first.item);
  (void)r.TuplesSubsumedBy(Item{h->Classes()[1]});
  (void)r.FindItem({atoms[7]});
  (void)r.ToString();
  EXPECT_EQ(r.tuple(3).item.data(), first.item.data());
  EXPECT_EQ(first.item, copy);
  EXPECT_EQ(first.item, (Item{atoms[3]}));
  EXPECT_EQ(first.truth, Truth::kPositive);
}

/// ApproxBytes must account for index structures, not just payloads: the
/// reported footprint is the sum of the ColumnInfo breakdown, and that
/// breakdown includes nonzero item-index and component-index lines.
TEST(TupleStoreTest, ApproxBytesIncludesIndexes) {
  Database db;
  Hierarchy* h = testing::BuildTreeHierarchy(db, "d", 1, 1, 512);
  HierarchicalRelation r("r", Schema({{"v", h}}));
  for (NodeId atom : h->Instances()) {
    ASSERT_TRUE(r.Insert({atom}, Truth::kPositive).ok());
  }
  std::vector<StorageColumnInfo> info = r.ColumnInfo();
  size_t total = 0;
  size_t item_index = 0;
  size_t component_index = 0;
  for (const StorageColumnInfo& line : info) {
    total += line.bytes;
    if (line.name == "item-index") item_index = line.bytes;
    if (line.name == "component-index") component_index = line.bytes;
  }
  EXPECT_EQ(r.ApproxBytes(), total);
  EXPECT_GT(item_index, 0u);
  EXPECT_GT(component_index, 0u);
  // Payload alone underestimates: the full footprint is strictly larger
  // than the raw per-tuple data.
  EXPECT_GT(r.ApproxBytes(), r.size() * sizeof(NodeId));
}

// ----- Differential oracle ---------------------------------------------------

/// Reference model of a TupleStore: the live tuples by id plus the next id.
struct ModelStore {
  size_t capacity = 0;
  std::map<TupleId, std::pair<Item, Truth>> live;

  std::optional<TupleId> Find(const Item& item) const {
    for (const auto& [id, tuple] : live) {
      if (tuple.first == item) return id;
    }
    return std::nullopt;
  }
};

/// Compares every read of `store` with the model: size, capacity, LiveIds,
/// tuple(id), Find on each probe, and, when `scans` is
/// set, the four subsumption/binding scans on each probe against a brute
/// force pass over the model.
void ExpectStoreMatches(const TupleStore& store, const ModelStore& model,
                        const Schema& schema, const std::vector<Item>& probes,
                        bool scans, const std::string& at) {
  ASSERT_EQ(store.capacity(), model.capacity) << at;
  ASSERT_EQ(store.size(), model.live.size()) << at;
  std::vector<TupleId> ids;
  for (const auto& [id, tuple] : model.live) ids.push_back(id);
  EXPECT_EQ(store.LiveIds(), ids) << at;
  for (const auto& [id, tuple] : model.live) {
    ASSERT_TRUE(store.alive(id)) << at << " id " << id;
    EXPECT_EQ(store.tuple(id).item, tuple.first) << at << " id " << id;
    EXPECT_EQ(store.tuple(id).truth, tuple.second) << at << " id " << id;
  }
  for (const Item& probe : probes) {
    std::string where = StrCat(at, " probe ", ItemToString(schema, probe));
    EXPECT_EQ(store.Find(probe), model.Find(probe)) << where;
    if (!scans) continue;
    std::vector<TupleId> subsuming, subsumed, above, below;
    for (const auto& [id, tuple] : model.live) {
      const Item& other = tuple.first;
      if (ItemSubsumes(schema, other, probe)) subsuming.push_back(id);
      if (ItemSubsumes(schema, probe, other)) subsumed.push_back(id);
      if (ItemBindsBelow(schema, other, probe)) above.push_back(id);
      if (ItemBindsBelow(schema, probe, other)) below.push_back(id);
    }
    EXPECT_EQ(store.TuplesSubsuming(schema, probe), subsuming) << where;
    EXPECT_EQ(store.TuplesSubsumedBy(schema, probe), subsumed) << where;
    EXPECT_EQ(store.TuplesBindingAbove(schema, probe), above) << where;
    EXPECT_EQ(store.TuplesBindingBelow(schema, probe), below) << where;
  }
}

/// Seeded random Append / Erase / SetTruth / Clear / copy / move sequences
/// at arity 1-3, checked against the model after every step (scans every
/// 150 steps and at the end). Small per-attribute hierarchies make posting
/// lists long and items collide, so pooled lists grow, shrink and compact
/// and the item table reuses erased slots; half-way through, preference
/// edges are added so the binding scans differ from the subsumption ones.
TEST(TupleStoreOracleTest, RandomOpsMatchAReferenceModel) {
  // Per arity: tree depth, fanout and instances per leaf of each
  // attribute's hierarchy (193, 15 and 7 nodes).
  const size_t shapes[3][3] = {{2, 3, 20}, {2, 2, 2}, {1, 2, 2}};
  constexpr size_t kSteps = 1200;
  for (size_t arity = 1; arity <= 3; ++arity) {
    for (uint64_t seed = 0; seed < 3; ++seed) {
      Database db;
      std::vector<Hierarchy*> hierarchies;
      std::vector<Attribute> attrs;
      for (size_t i = 0; i < arity; ++i) {
        const size_t* shape = shapes[arity - 1];
        hierarchies.push_back(testing::BuildTreeHierarchy(
            db, StrCat("h", i), shape[0], shape[1], shape[2]));
        attrs.push_back({StrCat("a", i), hierarchies.back()});
      }
      Schema schema(attrs);
      Random rng(seed * 10 + arity);
      auto random_item = [&]() {
        Item item;
        for (Hierarchy* h : hierarchies) {
          std::vector<NodeId> nodes = h->Nodes();
          item.push_back(nodes[rng.Index(nodes.size())]);
        }
        return item;
      };
      auto random_live = [&](const ModelStore& model) {
        auto it = model.live.begin();
        std::advance(it, rng.Index(model.live.size()));
        return it->first;
      };

      TupleStore store(arity);
      ModelStore model;
      for (size_t step = 0; step < kSteps; ++step) {
        std::string at = StrCat("arity ", arity, " seed ", seed, " step ",
                                step);
        Truth truth =
            rng.Bernoulli(0.3) ? Truth::kNegative : Truth::kPositive;
        uint64_t op = rng.Uniform(100);
        if (op < 50) {
          Item item = random_item();
          if (!model.Find(item).has_value()) {
            ASSERT_EQ(store.Append(item, truth), model.capacity) << at;
            model.live[static_cast<TupleId>(model.capacity++)] = {item,
                                                                 truth};
          }
        } else if (op < 75) {
          if (!model.live.empty()) {
            TupleId id = random_live(model);
            store.Erase(id);
            model.live.erase(id);
          }
        } else if (op < 83) {
          if (!model.live.empty()) {
            TupleId id = random_live(model);
            store.SetTruth(id, truth);
            model.live[id].second = truth;
          }
        } else if (op < 90) {
          // Re-append an erased slot's item straight from its arena view.
          if (model.capacity > model.live.size()) {
            TupleId dead;
            do {
              dead = static_cast<TupleId>(rng.Index(model.capacity));
            } while (model.live.count(dead) > 0);
            Item item = store.ItemAt(dead).ToItem();
            if (!model.Find(item).has_value()) {
              ASSERT_EQ(store.Append(store.ItemAt(dead), truth),
                        model.capacity)
                  << at;
              model.live[static_cast<TupleId>(model.capacity++)] = {item,
                                                                   truth};
            }
          }
        } else if (op < 95) {
          TupleStore copy(store);
          ExpectStoreMatches(copy, model, schema, {}, false, at + " copy");
          store = std::move(copy);
        } else if (op < 99) {
          TupleStore moved(std::move(store));
          store = moved;
        } else if (rng.Bernoulli(0.3)) {
          store.Clear();
          model = ModelStore();
        }

        if (step == kSteps / 2) {
          for (Hierarchy* h : hierarchies) {
            std::vector<NodeId> nodes = h->Nodes();
            for (int e = 0; e < 3; ++e) {
              (void)h->AddPreferenceEdge(nodes[rng.Index(nodes.size())],
                                         nodes[rng.Index(nodes.size())]);
            }
          }
        }

        std::vector<Item> probes;
        for (int p = 0; p < 8; ++p) probes.push_back(random_item());
        for (const auto& [id, tuple] : model.live) {
          if (rng.Bernoulli(0.1)) probes.push_back(tuple.first);
        }
        bool scans = step % 150 == 149 || step + 1 == kSteps;
        ExpectStoreMatches(store, model, schema, probes, scans, at);
        if (::testing::Test::HasFailure()) return;
      }
      size_t preference_edges = 0;
      for (Hierarchy* h : hierarchies) {
        preference_edges += h->num_preference_edges();
      }
      EXPECT_GT(preference_edges, 0u);
    }
  }
}

}  // namespace
}  // namespace hirel
