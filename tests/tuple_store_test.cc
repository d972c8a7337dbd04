// TupleStore contracts: stable ids across churn, copies that keep ids and
// dead slots, ascending and exact subsumption scans, chunked iteration,
// byte accounting, and tuple references that stay put across reads.

#include "core/tuple_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
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

/// Concatenating chunk scans in chunk order reproduces LiveIds exactly,
/// with a slot population larger than one chunk and holes punched in it.
TEST(TupleStoreTest, ChunkScansCoverExactlyTheLiveIds) {
  Database db;
  constexpr size_t kTuples = 3000;  // ~3 chunks of 1024
  Hierarchy* h = testing::BuildTreeHierarchy(db, "d", 1, 1, kTuples);
  HierarchicalRelation r("r", Schema({{"v", h}}));
  for (NodeId atom : h->Instances()) {
    ASSERT_TRUE(r.Insert({atom}, Truth::kPositive).ok());
  }
  // Punch deterministic holes, including a fully dead stretch that empties
  // most of the middle chunk.
  for (TupleId id = 0; id < kTuples; id += 7) {
    ASSERT_TRUE(r.Erase(id).ok());
  }
  for (TupleId id = 1100; id < 2000; ++id) {
    if (r.alive(id)) {
      ASSERT_TRUE(r.Erase(id).ok());
    }
  }

  EXPECT_EQ(r.num_chunks(), (kTuples + 1023) / 1024);
  std::vector<TupleId> chunked;
  for (size_t c = 0; c < r.num_chunks(); ++c) {
    r.ForEachLiveInChunk(c, [&](TupleId id) { chunked.push_back(id); });
  }
  EXPECT_EQ(chunked, r.TupleIds());
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
            const Item& other = r.ItemAt(id);
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

/// tuple(id) and ItemAt(id) return references into the store: repeated
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

  const HTuple& first = r.tuple(3);
  const HTuple copy = first;
  EXPECT_EQ(&r.tuple(3), &first);
  EXPECT_EQ(&r.ItemAt(3), &first.item);
  for (TupleId id : r.TupleIds()) (void)r.tuple(id);
  (void)r.TuplesSubsuming(first.item);
  (void)r.TuplesSubsumedBy(Item{h->Classes()[1]});
  (void)r.FindItem({atoms[7]});
  (void)r.ToString();
  EXPECT_EQ(&r.tuple(3), &first);
  EXPECT_EQ(first, copy);
  EXPECT_EQ(first.item, (Item{atoms[3]}));
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

}  // namespace
}  // namespace hirel
