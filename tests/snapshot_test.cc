#include "io/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "core/explicate.h"
#include "core/inference.h"
#include "legacy_data.h"
#include "testing/fixtures.h"

namespace hirel {
namespace {

using testing::ElephantFixture;
using testing::FlyingFixture;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(SnapshotTest, SerializeDeserializeRoundTrip) {
  FlyingFixture f;
  std::string data = SerializeDatabase(f.db).value();
  std::unique_ptr<Database> loaded = DeserializeDatabase(data).value();

  Hierarchy* animal = loaded->GetHierarchy("animal").value();
  EXPECT_EQ(animal->num_classes(), f.animal->num_classes());
  EXPECT_EQ(animal->num_instances(), f.animal->num_instances());

  HierarchicalRelation* flies = loaded->GetRelation("flies").value();
  EXPECT_EQ(flies->size(), f.flies->size());

  // Semantics preserved: same verdicts for every instance by name.
  for (const char* name :
       {"tweety", "paul", "pamela", "patricia", "peter"}) {
    NodeId original = f.animal->FindInstance(Value::String(name)).value();
    NodeId reloaded = animal->FindInstance(Value::String(name)).value();
    EXPECT_EQ(InferTruth(*f.flies, {original}).value(),
              InferTruth(*flies, {reloaded}).value())
        << name;
  }
}

TEST(SnapshotTest, MultiHierarchyMultiRelationRoundTrip) {
  ElephantFixture f;
  std::string data = SerializeDatabase(f.db).value();
  std::unique_ptr<Database> loaded = DeserializeDatabase(data).value();
  EXPECT_EQ(loaded->HierarchyNames(), f.db.HierarchyNames());
  EXPECT_EQ(loaded->RelationNames(), f.db.RelationNames());

  // Extensions (by rendered names) must survive.
  HierarchicalRelation* colors = loaded->GetRelation("color_of").value();
  std::vector<std::string> names_before, names_after;
  std::vector<Item> ext_before = Extension(*f.colors).value();
  for (const Item& item : ext_before) {
    names_before.push_back(ItemToString(f.colors->schema(), item));
  }
  std::vector<Item> ext_after = Extension(*colors).value();
  for (const Item& item : ext_after) {
    names_after.push_back(ItemToString(colors->schema(), item));
  }
  std::sort(names_before.begin(), names_before.end());
  std::sort(names_after.begin(), names_after.end());
  EXPECT_EQ(names_before, names_after);

  // Int-valued instances survive with their type.
  Hierarchy* size = loaded->GetHierarchy("enclosure_size").value();
  EXPECT_TRUE(size->FindInstance(Value::Int(3000)).ok());
  EXPECT_FALSE(size->FindInstance(Value::String("3000")).ok());
}

TEST(SnapshotTest, PreferenceEdgesAndOptionsSurvive) {
  Database db;
  Hierarchy* h =
      db.CreateHierarchy("d", HierarchyOptions{.keep_redundant_edges = true})
          .value();
  NodeId a = h->AddClass("a").value();
  NodeId b = h->AddClass("b").value();
  ASSERT_TRUE(h->AddPreferenceEdge(a, b).ok());

  std::string data = SerializeDatabase(db).value();
  std::unique_ptr<Database> loaded = DeserializeDatabase(data).value();
  Hierarchy* lh = loaded->GetHierarchy("d").value();
  EXPECT_TRUE(lh->options().keep_redundant_edges);
  EXPECT_EQ(lh->num_preference_edges(), 1u);
  NodeId la = lh->FindClass("a").value();
  NodeId lb = lh->FindClass("b").value();
  EXPECT_TRUE(lh->BindsBelow(la, lb));
  EXPECT_FALSE(lh->Subsumes(la, lb));
}

TEST(SnapshotTest, PreferenceEdgesOnLateNodesRoundTrip) {
  // Edges on nodes added before and after the first preference edge, one
  // of them eliminated again: the loaded hierarchy binds the same way.
  Database db;
  Hierarchy* h = db.CreateHierarchy("d").value();
  NodeId a = h->AddClass("a").value();
  NodeId b = h->AddClass("b").value();
  ASSERT_TRUE(h->AddPreferenceEdge(a, b).ok());
  NodeId c = h->AddClass("c").value();
  NodeId x = h->AddInstance(Value::Int(1), c).value();
  NodeId e = h->AddClass("e").value();
  ASSERT_TRUE(h->AddPreferenceEdge(b, c).ok());
  ASSERT_TRUE(h->AddPreferenceEdge(e, a).ok());
  ASSERT_TRUE(h->EliminateNode(e).ok());

  std::string data = SerializeDatabase(db).value();
  std::unique_ptr<Database> loaded = DeserializeDatabase(data).value();
  Hierarchy* lh = loaded->GetHierarchy("d").value();
  EXPECT_EQ(lh->num_preference_edges(), 2u);
  NodeId la = lh->FindClass("a").value();
  NodeId lb = lh->FindClass("b").value();
  NodeId lc = lh->FindClass("c").value();
  NodeId lx = lh->FindInstance(Value::Int(1)).value();
  EXPECT_TRUE(lh->BindsBelow(la, lx));
  EXPECT_TRUE(lh->BindsBelow(lb, lc));
  EXPECT_FALSE(lh->BindsBelow(lc, lb));
  EXPECT_TRUE(h->BindsBelow(a, x));
  EXPECT_EQ(SerializeDatabase(*loaded).value(), data);
}

TEST(SnapshotTest, SaveAndLoadFile) {
  FlyingFixture f;
  std::string path = TempPath("flying.hirel");
  ASSERT_TRUE(SaveDatabase(f.db, path).ok());
  std::unique_ptr<Database> loaded = LoadDatabase(path).value();
  EXPECT_TRUE(loaded->GetRelation("flies").ok());
  std::remove(path.c_str());
}

TEST(SnapshotTest, LoadMissingFileIsIoError) {
  EXPECT_TRUE(LoadDatabase("/nonexistent/nowhere.hirel").status()
                  .IsIoError());
}

TEST(SnapshotTest, BadMagicIsCorruption) {
  EXPECT_TRUE(DeserializeDatabase("NOTHIREL????????").status()
                  .IsCorruption());
  EXPECT_TRUE(DeserializeDatabase("").status().IsCorruption());
}

TEST(SnapshotTest, BitFlipIsDetectedByChecksum) {
  FlyingFixture f;
  std::string data = SerializeDatabase(f.db).value();
  for (size_t pos : {size_t{9}, data.size() / 2, data.size() - 9}) {
    std::string corrupted = data;
    corrupted[pos] ^= 0x40;
    EXPECT_TRUE(DeserializeDatabase(corrupted).status().IsCorruption())
        << "flip at " << pos;
  }
}

TEST(SnapshotTest, TruncationIsDetected) {
  FlyingFixture f;
  std::string data = SerializeDatabase(f.db).value();
  std::string truncated = data.substr(0, data.size() / 2);
  EXPECT_TRUE(DeserializeDatabase(truncated).status().IsCorruption());
}

TEST(SnapshotTest, DoubleRoundTripIsStable) {
  ElephantFixture f;
  std::string once = SerializeDatabase(f.db).value();
  std::unique_ptr<Database> loaded = DeserializeDatabase(once).value();
  std::string twice = SerializeDatabase(*loaded).value();
  EXPECT_EQ(once, twice);
}

TEST(SnapshotTest, UnknownStorageTagIsCorruption) {
  Database db;
  ASSERT_TRUE(db.CreateHierarchy("h").ok());
  ASSERT_TRUE(db.CreateRelation("r", {}).ok());
  std::string data = SerializeDatabase(db).value();
  // The relation's storage tag sits right before the tuple count (here 0),
  // which is the last body byte ahead of the 8-byte checksum trailer.
  // Patch it to 2, the first tag no writer ever used, and re-stamp the
  // checksum so only the tag check fires.
  std::string body = data.substr(0, data.size() - 8);
  body[body.size() - 2] = '\x02';
  uint64_t checksum = 0xcbf29ce484222325ULL;
  for (char c : body) {
    checksum ^= static_cast<uint8_t>(c);
    checksum *= 0x100000001b3ULL;
  }
  for (int i = 0; i < 8; ++i) {
    body.push_back(static_cast<char>((checksum >> (8 * i)) & 0xff));
  }
  EXPECT_TRUE(DeserializeDatabase(body).status().IsCorruption());
}

/// A snapshot written by the pre-TupleStore format (magic HIRELDB1,
/// committed as a binary fixture) must keep loading with its contents
/// intact.
TEST(SnapshotTest, LegacyV1SnapshotStillLoads) {
  std::unique_ptr<Database> loaded =
      LoadDatabase(std::string(HIREL_SOURCE_DIR) +
                   "/tests/data/legacy_v1.snapshot")
          .value();
  EXPECT_EQ(loaded->HierarchyNames(),
            (std::vector<std::string>{"animal", "place"}));
  EXPECT_EQ(loaded->RelationNames(),
            (std::vector<std::string>{"flies", "lives"}));

  Hierarchy* animal = loaded->GetHierarchy("animal").value();
  HierarchicalRelation* flies = loaded->GetRelation("flies").value();
  NodeId tweety = animal->FindInstance(Value::String("tweety")).value();
  NodeId opus = animal->FindInstance(Value::String("opus")).value();
  EXPECT_EQ(InferTruth(*flies, {tweety}).value(), Truth::kPositive);
  EXPECT_EQ(InferTruth(*flies, {opus}).value(), Truth::kNegative);

  HierarchicalRelation* lives = loaded->GetRelation("lives").value();
  EXPECT_EQ(lives->size(), 2u);

  // And the old database reserializes cleanly in the current format.
  std::string rewritten = SerializeDatabase(*loaded).value();
  std::unique_ptr<Database> again = DeserializeDatabase(rewritten).value();
  EXPECT_EQ(again->GetRelation("flies").value()->ToString(),
            flies->ToString());
}

/// v2 snapshots written before the columnar store was removed, from
/// tests/data/legacy_v2_source.hql: one with every relation tagged row
/// (tag 0), one tagged columnar (tag 1: truth bitmap plus per-attribute
/// dictionaries). Both load to the source script's extensions, and both
/// reserialize to the row-tagged bytes: the on-disk format is unchanged.
TEST(SnapshotTest, LegacyV2RowAndColumnarSnapshotsLoad) {
  const std::string expected = legacy_data::SourceExtensions();
  ASSERT_FALSE(expected.empty());
  const std::string row_bytes =
      legacy_data::ReadFile(legacy_data::DataPath("legacy_v2_row.snapshot"));
  for (const char* name :
       {"legacy_v2_row.snapshot", "legacy_v2_columnar.snapshot"}) {
    const std::string path = legacy_data::DataPath(name);
    EXPECT_EQ(legacy_data::Extensions("LOAD '" + path + "';"), expected)
        << name;
    Result<std::unique_ptr<Database>> loaded = LoadDatabase(path);
    ASSERT_TRUE(loaded.ok()) << name << ": " << loaded.status();
    EXPECT_EQ(SerializeDatabase(**loaded).value(), row_bytes) << name;
  }
}

TEST(SnapshotTest, EmptyDatabaseRoundTrip) {
  Database db;
  std::string data = SerializeDatabase(db).value();
  std::unique_ptr<Database> loaded = DeserializeDatabase(data).value();
  EXPECT_TRUE(loaded->HierarchyNames().empty());
  EXPECT_TRUE(loaded->RelationNames().empty());
}

}  // namespace
}  // namespace hirel
