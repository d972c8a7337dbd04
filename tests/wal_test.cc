#include "io/wal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/inference.h"
#include "io/coding.h"
#include "io/snapshot.h"
#include "legacy_data.h"

namespace hirel {
namespace {

class WalTest : public ::testing::Test {
 protected:
  WalTest() {
    dir_ = std::string(::testing::TempDir()) + "/wal_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~WalTest() override { std::filesystem::remove_all(dir_); }

  /// Populates a durable database with the flying-creatures schema.
  void PopulateFlying(LoggedDatabase& ldb) {
    ASSERT_TRUE(ldb.CreateHierarchy("animal").ok());
    ASSERT_TRUE(ldb.AddClass("animal", "bird").ok());
    ASSERT_TRUE(ldb.AddClass("animal", "penguin", {"bird"}).ok());
    ASSERT_TRUE(ldb.AddClass("animal", "afp", {"penguin"}).ok());
    ASSERT_TRUE(
        ldb.AddInstance("animal", Value::String("tweety"), {"bird"}).ok());
    ASSERT_TRUE(
        ldb.AddInstance("animal", Value::String("paul"), {"penguin"}).ok());
    ASSERT_TRUE(ldb.CreateRelation("flies", {{"who", "animal"}}).ok());
    Hierarchy* animal = ldb.db().GetHierarchy("animal").value();
    NodeId bird = animal->FindClass("bird").value();
    NodeId penguin = animal->FindClass("penguin").value();
    ASSERT_TRUE(ldb.Insert("flies", {bird}, Truth::kPositive).ok());
    ASSERT_TRUE(ldb.Insert("flies", {penguin}, Truth::kNegative).ok());
  }

  void ExpectFlyingSemantics(LoggedDatabase& ldb) {
    Hierarchy* animal = ldb.db().GetHierarchy("animal").value();
    HierarchicalRelation* flies = ldb.db().GetRelation("flies").value();
    NodeId tweety = animal->FindInstance(Value::String("tweety")).value();
    NodeId paul = animal->FindInstance(Value::String("paul")).value();
    EXPECT_EQ(InferTruth(*flies, {tweety}).value(), Truth::kPositive);
    EXPECT_EQ(InferTruth(*flies, {paul}).value(), Truth::kNegative);
  }

  std::string dir_;
};

TEST_F(WalTest, WriterProducesReadableRecords) {
  std::string path = dir_ + "/raw.log";
  {
    std::unique_ptr<WalWriter> writer = WalWriter::Open(path).value();
    ASSERT_TRUE(writer->Append("alpha").ok());
    ASSERT_TRUE(writer->Append("").ok());
    ASSERT_TRUE(writer->Append(std::string(1000, 'x')).ok());
  }
  bool torn = true;
  std::vector<std::string> records = ReadWalRecords(path, &torn).value();
  EXPECT_FALSE(torn);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], "alpha");
  EXPECT_EQ(records[1], "");
  EXPECT_EQ(records[2], std::string(1000, 'x'));
}

TEST_F(WalTest, MissingLogReadsAsEmpty) {
  bool torn = true;
  std::vector<std::string> records =
      ReadWalRecords(dir_ + "/nope.log", &torn).value();
  EXPECT_TRUE(records.empty());
  EXPECT_FALSE(torn);
}

TEST_F(WalTest, TornTailIsDroppedNotFatal) {
  std::string path = dir_ + "/torn.log";
  {
    std::unique_ptr<WalWriter> writer = WalWriter::Open(path).value();
    ASSERT_TRUE(writer->Append("first").ok());
    ASSERT_TRUE(writer->Append("second-record-payload").ok());
  }
  // Chop bytes off the end, simulating a crash mid-write.
  auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 5);
  bool torn = false;
  std::vector<std::string> records = ReadWalRecords(path, &torn).value();
  EXPECT_TRUE(torn);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], "first");
}

TEST_F(WalTest, MidLogCorruptionIsFatal) {
  std::string path = dir_ + "/corrupt.log";
  {
    std::unique_ptr<WalWriter> writer = WalWriter::Open(path).value();
    ASSERT_TRUE(writer->Append("first-record").ok());
    ASSERT_TRUE(writer->Append("second-record").ok());
  }
  // Flip a payload byte of the FIRST record.
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  file.seekp(3);
  file.put('X');
  file.close();
  EXPECT_TRUE(ReadWalRecords(path, nullptr).status().IsCorruption());
}

TEST_F(WalTest, OpenInitialisesEmptyDirectory) {
  std::unique_ptr<LoggedDatabase> ldb = LoggedDatabase::Open(dir_).value();
  EXPECT_EQ(ldb->replayed_records(), 0u);
  EXPECT_TRUE(ldb->db().HierarchyNames().empty());
}

TEST_F(WalTest, OpenRejectsMissingDirectory) {
  EXPECT_TRUE(LoggedDatabase::Open(dir_ + "/missing").status()
                  .IsInvalidArgument());
}

TEST_F(WalTest, ReopenReplaysEverything) {
  {
    std::unique_ptr<LoggedDatabase> ldb = LoggedDatabase::Open(dir_).value();
    PopulateFlying(*ldb);
  }  // no checkpoint: everything lives in the log
  std::unique_ptr<LoggedDatabase> reopened =
      LoggedDatabase::Open(dir_).value();
  EXPECT_GT(reopened->replayed_records(), 0u);
  ExpectFlyingSemantics(*reopened);
}

TEST_F(WalTest, CheckpointShortensReplay) {
  {
    std::unique_ptr<LoggedDatabase> ldb = LoggedDatabase::Open(dir_).value();
    PopulateFlying(*ldb);
    ASSERT_TRUE(ldb->Checkpoint().ok());
    // Post-checkpoint mutation lands in the fresh log.
    Hierarchy* animal = ldb->db().GetHierarchy("animal").value();
    NodeId bird = animal->FindClass("bird").value();
    ASSERT_TRUE(
        ldb->AddInstance("animal", Value::String("robin"), {"bird"}).ok());
    (void)bird;
  }
  std::unique_ptr<LoggedDatabase> reopened =
      LoggedDatabase::Open(dir_).value();
  EXPECT_EQ(reopened->replayed_records(), 1u);  // just the robin
  ExpectFlyingSemantics(*reopened);
  EXPECT_TRUE(reopened->db()
                  .GetHierarchy("animal")
                  .value()
                  ->FindInstance(Value::String("robin"))
                  .ok());
}

TEST_F(WalTest, CrashAfterCheckpointTornLogRecovers) {
  {
    std::unique_ptr<LoggedDatabase> ldb = LoggedDatabase::Open(dir_).value();
    PopulateFlying(*ldb);
    ASSERT_TRUE(ldb->Checkpoint().ok());
    ASSERT_TRUE(
        ldb->AddInstance("animal", Value::String("robin"), {"bird"}).ok());
    ASSERT_TRUE(
        ldb->AddInstance("animal", Value::String("sparrow"), {"bird"}).ok());
  }
  // Tear the final record.
  std::string wal = dir_ + "/wal.log";
  auto size = std::filesystem::file_size(wal);
  std::filesystem::resize_file(wal, size - 3);

  std::unique_ptr<LoggedDatabase> reopened =
      LoggedDatabase::Open(dir_).value();
  EXPECT_EQ(reopened->replayed_records(), 1u);  // robin survived
  Hierarchy* animal = reopened->db().GetHierarchy("animal").value();
  EXPECT_TRUE(animal->FindInstance(Value::String("robin")).ok());
  EXPECT_FALSE(animal->FindInstance(Value::String("sparrow")).ok());
  // The torn tail was excised: reopening again replays the same prefix.
  reopened.reset();
  std::unique_ptr<LoggedDatabase> again = LoggedDatabase::Open(dir_).value();
  EXPECT_EQ(again->replayed_records(), 1u);
}

TEST_F(WalTest, GuardedInsertFailuresAreNotLogged) {
  {
    std::unique_ptr<LoggedDatabase> ldb = LoggedDatabase::Open(dir_).value();
    PopulateFlying(*ldb);
    Hierarchy* animal = ldb->db().GetHierarchy("animal").value();
    NodeId bird = animal->FindClass("bird").value();
    // Contradiction: rejected and must not reach the log.
    EXPECT_FALSE(ldb->Insert("flies", {bird}, Truth::kNegative).ok());
  }
  std::unique_ptr<LoggedDatabase> reopened =
      LoggedDatabase::Open(dir_).value();
  ExpectFlyingSemantics(*reopened);
}

TEST_F(WalTest, EraseAndDropsAreReplayed) {
  {
    std::unique_ptr<LoggedDatabase> ldb = LoggedDatabase::Open(dir_).value();
    PopulateFlying(*ldb);
    Hierarchy* animal = ldb->db().GetHierarchy("animal").value();
    NodeId penguin = animal->FindClass("penguin").value();
    ASSERT_TRUE(ldb->EraseItem("flies", {penguin}).ok());
    ASSERT_TRUE(ldb->CreateRelation("tmp", {{"who", "animal"}}).ok());
    ASSERT_TRUE(ldb->DropRelation("tmp").ok());
  }
  std::unique_ptr<LoggedDatabase> reopened =
      LoggedDatabase::Open(dir_).value();
  HierarchicalRelation* flies = reopened->db().GetRelation("flies").value();
  EXPECT_EQ(flies->size(), 1u);  // the penguin exception is gone
  EXPECT_TRUE(reopened->db().GetRelation("tmp").status().IsNotFound());
}

TEST_F(WalTest, PreferenceEdgesAndMultiParentsSurviveReplay) {
  {
    std::unique_ptr<LoggedDatabase> ldb = LoggedDatabase::Open(dir_).value();
    ASSERT_TRUE(ldb->CreateHierarchy("d").ok());
    ASSERT_TRUE(ldb->AddClass("d", "a").ok());
    ASSERT_TRUE(ldb->AddClass("d", "b").ok());
    ASSERT_TRUE(
        ldb->AddInstance("d", Value::String("x"), {"a"}).ok());
    ASSERT_TRUE(ldb->AddEdge("d", "b", "x").ok());
    ASSERT_TRUE(ldb->AddPreferenceEdge("d", "a", "b").ok());
  }
  std::unique_ptr<LoggedDatabase> reopened =
      LoggedDatabase::Open(dir_).value();
  Hierarchy* h = reopened->db().GetHierarchy("d").value();
  NodeId a = h->FindClass("a").value();
  NodeId b = h->FindClass("b").value();
  NodeId x = h->FindInstance(Value::String("x")).value();
  EXPECT_TRUE(h->Subsumes(a, x));
  EXPECT_TRUE(h->Subsumes(b, x));
  EXPECT_TRUE(h->BindsBelow(a, b));
}

/// A log written before the columnar store was removed, mirroring
/// tests/data/legacy_v2_source.hql: `flies` was created with the legacy
/// columnar tag (1) and `lives` with the row tag (0). Replay lands both in
/// the one store with the source script's extensions, and a checkpoint
/// writes the row encoding.
TEST_F(WalTest, LegacyColumnarTaggedLogReplays) {
  std::filesystem::copy_file(
      legacy_data::DataPath("legacy_columnar.wal"), dir_ + "/wal.log");
  {
    Result<std::unique_ptr<LoggedDatabase>> ldb = LoggedDatabase::Open(dir_);
    ASSERT_TRUE(ldb.ok()) << ldb.status();
    EXPECT_GT((*ldb)->replayed_records(), 0u);
    std::string snapshot = dir_ + "/replayed.hirel";
    ASSERT_TRUE(SaveDatabase((*ldb)->db(), snapshot).ok());
    EXPECT_EQ(legacy_data::Extensions("LOAD '" + snapshot + "';"),
              legacy_data::SourceExtensions());
    ASSERT_TRUE((*ldb)->Checkpoint().ok());
  }
  EXPECT_EQ(legacy_data::ReadFile(dir_ + "/snapshot.hirel"),
            legacy_data::ReadFile(
                legacy_data::DataPath("legacy_v2_row.snapshot")));
}

/// A CreateRelation record (op 6) for a zero-attribute relation, with an
/// optional trailing storage tag.
std::string CreateRelationRecord(const std::string& name, int tag) {
  std::string record;
  PutFixed8(&record, 6);
  PutLengthPrefixedString(&record, name);
  PutVarint64(&record, 0);
  if (tag >= 0) PutFixed8(&record, static_cast<uint8_t>(tag));
  return record;
}

TEST_F(WalTest, CreateRelationAcceptsMissingRowAndColumnarTags) {
  {
    std::unique_ptr<WalWriter> writer =
        WalWriter::Open(dir_ + "/wal.log").value();
    ASSERT_TRUE(writer->Append(CreateRelationRecord("untagged", -1)).ok());
    ASSERT_TRUE(writer->Append(CreateRelationRecord("row", 0)).ok());
    ASSERT_TRUE(writer->Append(CreateRelationRecord("columnar", 1)).ok());
  }
  Result<std::unique_ptr<LoggedDatabase>> ldb = LoggedDatabase::Open(dir_);
  ASSERT_TRUE(ldb.ok()) << ldb.status();
  EXPECT_EQ((*ldb)->replayed_records(), 3u);
  EXPECT_EQ((*ldb)->db().RelationNames(),
            (std::vector<std::string>{"columnar", "row", "untagged"}));
}

TEST_F(WalTest, UnknownStorageTagIsCorruption) {
  {
    std::unique_ptr<WalWriter> writer =
        WalWriter::Open(dir_ + "/wal.log").value();
    ASSERT_TRUE(writer->Append(CreateRelationRecord("r", 2)).ok());
  }
  Result<std::unique_ptr<LoggedDatabase>> opened = LoggedDatabase::Open(dir_);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsCorruption()) << opened.status();
}

TEST_F(WalTest, IntValuesRoundTripThroughLog) {
  {
    std::unique_ptr<LoggedDatabase> ldb = LoggedDatabase::Open(dir_).value();
    ASSERT_TRUE(ldb->CreateHierarchy("sz").ok());
    ASSERT_TRUE(ldb->AddInstance("sz", Value::Int(-3000)).ok());
    ASSERT_TRUE(ldb->AddInstance("sz", Value::Double(2.5)).ok());
  }
  std::unique_ptr<LoggedDatabase> reopened =
      LoggedDatabase::Open(dir_).value();
  Hierarchy* sz = reopened->db().GetHierarchy("sz").value();
  EXPECT_TRUE(sz->FindInstance(Value::Int(-3000)).ok());
  EXPECT_TRUE(sz->FindInstance(Value::Double(2.5)).ok());
}

}  // namespace
}  // namespace hirel
