#include "extensions/compress.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "core/consolidate.h"
#include "core/explicate.h"
#include "testing/fixtures.h"

namespace hirel {
namespace {

/// A tree version of the flying-creatures hierarchy (no patricia
/// double-parent), for compression tests.
struct TreeZoo {
  TreeZoo() {
    animal = db.CreateHierarchy("animal").value();
    bird = animal->AddClass("bird").value();
    canary = animal->AddClass("canary", bird).value();
    penguin = animal->AddClass("penguin", bird).value();
    afp = animal->AddClass("afp", penguin).value();
    tweety = animal->AddInstance(Value::String("tweety"), canary).value();
    paul = animal->AddInstance(Value::String("paul"), penguin).value();
    pamela = animal->AddInstance(Value::String("pamela"), afp).value();
    peter = animal->AddInstance(Value::String("peter"), afp).value();
  }
  Database db;
  Hierarchy* animal;
  NodeId bird, canary, penguin, afp;
  NodeId tweety, paul, pamela, peter;
};

std::vector<NodeId> AtomsOf(const HierarchicalRelation& r) {
  std::vector<NodeId> atoms;
  for (const Item& item : Extension(r).value()) atoms.push_back(item[0]);
  return atoms;
}

TEST(CompressTest, RediscoversTheExceptionStructure) {
  TreeZoo zoo;
  // Target: the flyers = {tweety, pamela, peter}. The DP beats the
  // exception encoding (+bird, -penguin, +afp: 3 tuples) with the two
  // positive islands: +tweety (tie with +canary broken towards fewer
  // flips) and +afp.
  HierarchicalRelation minimal =
      CompressExtension("flies", zoo.animal,
                        {zoo.tweety, zoo.pamela, zoo.peter})
          .value();
  EXPECT_EQ(minimal.size(), 2u);
  EXPECT_EQ(minimal.TruthAt({zoo.tweety}), Truth::kPositive);
  EXPECT_EQ(minimal.TruthAt({zoo.afp}), Truth::kPositive);
}

TEST(CompressTest, PrefersExceptionEncodingWhenItWins) {
  TreeZoo zoo;
  // Three positive islands (canary, duck, afp) against a single hole
  // (paul): the default-with-exception encoding +bird, -paul (2 tuples)
  // beats the three island tuples.
  NodeId duck = zoo.animal->AddClass("duck", zoo.bird).value();
  NodeId donald =
      zoo.animal->AddInstance(Value::String("donald"), duck).value();
  NodeId daisy =
      zoo.animal->AddInstance(Value::String("daisy"), duck).value();
  HierarchicalRelation minimal =
      CompressExtension("flies", zoo.animal,
                        {zoo.tweety, donald, daisy, zoo.pamela, zoo.peter})
          .value();
  EXPECT_EQ(minimal.size(), 2u);
  EXPECT_EQ(minimal.TruthAt({zoo.paul}), Truth::kNegative);
  // The positive default sits on bird or the root.
  bool has_default = minimal.TruthAt({zoo.bird}) == Truth::kPositive ||
                     minimal.TruthAt({zoo.animal->root()}) ==
                         Truth::kPositive;
  EXPECT_TRUE(has_default);
}

TEST(CompressTest, ExtensionRoundTrips) {
  TreeZoo zoo;
  std::vector<std::vector<NodeId>> targets{
      {},
      {zoo.tweety},
      {zoo.paul},
      {zoo.tweety, zoo.paul, zoo.pamela, zoo.peter},
      {zoo.pamela, zoo.peter},
      {zoo.tweety, zoo.peter},
  };
  for (const auto& target : targets) {
    HierarchicalRelation minimal =
        CompressExtension("r", zoo.animal, target).value();
    std::vector<NodeId> atoms = AtomsOf(minimal);
    std::vector<NodeId> expected = target;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(atoms, expected);
  }
}

TEST(CompressTest, EmptyExtensionNeedsNoTuples) {
  TreeZoo zoo;
  HierarchicalRelation minimal =
      CompressExtension("r", zoo.animal, {}).value();
  EXPECT_TRUE(minimal.empty());
}

TEST(CompressTest, FullDomainIsOneTuple) {
  TreeZoo zoo;
  HierarchicalRelation minimal =
      CompressExtension("r", zoo.animal,
                        {zoo.tweety, zoo.paul, zoo.pamela, zoo.peter})
          .value();
  EXPECT_EQ(minimal.size(), 1u);
  // One positive tuple on some ancestor of all instances (bird or the
  // root — both cover exactly the four instances; the DP may pick either).
  TupleView t = minimal.tuple(minimal.TupleIds()[0]);
  EXPECT_EQ(t.truth, Truth::kPositive);
  EXPECT_TRUE(t.item[0] == zoo.bird || t.item[0] == zoo.animal->root());
}

TEST(CompressTest, ResultIsIrredundant) {
  TreeZoo zoo;
  HierarchicalRelation minimal =
      CompressExtension("r", zoo.animal, {zoo.pamela, zoo.peter}).value();
  HierarchicalRelation copy = minimal;
  EXPECT_EQ(ConsolidateInPlace(copy).value(), 0u);
}

TEST(CompressTest, RejectsDagHierarchies) {
  testing::FlyingFixture f;  // patricia has two parents
  Result<HierarchicalRelation> r =
      CompressExtension("r", f.animal, {f.tweety});
  EXPECT_TRUE(r.status().IsNotSupported());
}

TEST(CompressTest, RejectsNonInstanceTargets) {
  TreeZoo zoo;
  Result<HierarchicalRelation> r =
      CompressExtension("r", zoo.animal, {zoo.bird});
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(CompressTest, CompressInPlaceShrinksVerboseRelations) {
  TreeZoo zoo;
  HierarchicalRelation* verbose =
      zoo.db.CreateRelation("flies", {{"who", "animal"}}).value();
  // The flat encoding: one tuple per flyer.
  ASSERT_TRUE(verbose->Insert({zoo.tweety}, Truth::kPositive).ok());
  ASSERT_TRUE(verbose->Insert({zoo.pamela}, Truth::kPositive).ok());
  ASSERT_TRUE(verbose->Insert({zoo.peter}, Truth::kPositive).ok());
  std::vector<Item> before = Extension(*verbose).value();
  size_t saved = CompressInPlace(*verbose).value();
  EXPECT_EQ(saved, 1u);  // 3 atom tuples -> {+tweety, +afp}
  EXPECT_EQ(verbose->size(), 2u);
  EXPECT_EQ(Extension(*verbose).value(), before);
  // With one more flyer the class encoding wins outright.
  verbose->Clear();
  for (NodeId n : {zoo.tweety, zoo.pamela, zoo.peter, zoo.paul}) {
    ASSERT_TRUE(verbose->Insert({n}, Truth::kPositive).ok());
  }
  saved = CompressInPlace(*verbose).value();
  EXPECT_EQ(saved, 3u);  // 4 tuples -> 1 (+bird or +animal)
  EXPECT_EQ(verbose->size(), 1u);
}

TEST(CompressTest, CompressInPlaceRequiresSingleAttribute) {
  testing::RespectsFixture f;
  EXPECT_TRUE(CompressInPlace(*f.respects).status().IsNotSupported());
}

// Property: on random trees and random target sets, the DP's result (a)
// round-trips the extension, (b) is irredundant, and (c) is no larger than
// the naive one-tuple-per-atom encoding and the greedy consolidated form.
class CompressProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompressProperty, MinimalEncodingInvariants) {
  Random rng(GetParam());
  Database db;
  Hierarchy* h = db.CreateHierarchy("d").value();
  std::vector<NodeId> classes{h->root()};
  for (int c = 0; c < 8; ++c) {
    classes.push_back(
        h->AddClass("c" + std::to_string(c),
                    classes[rng.Index(classes.size())])
            .value());
  }
  std::vector<NodeId> atoms;
  for (int i = 0; i < 20; ++i) {
    atoms.push_back(
        h->AddInstance(Value::String("i" + std::to_string(i)),
                       classes[rng.Index(classes.size())])
            .value());
  }
  std::vector<NodeId> target;
  for (NodeId a : atoms) {
    if (rng.Bernoulli(0.5)) target.push_back(a);
  }

  HierarchicalRelation minimal =
      CompressExtension("r", h, target).value();
  // (a) round trip.
  std::vector<NodeId> got = AtomsOf(minimal);
  std::vector<NodeId> expected = target;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(got, expected);
  // (b) irredundant.
  HierarchicalRelation copy = minimal;
  EXPECT_EQ(ConsolidateInPlace(copy).value(), 0u);
  // (c) never worse than the flat encoding.
  EXPECT_LE(minimal.size(), target.size() == 0 ? 0 : target.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressProperty,
                         ::testing::Range<uint64_t>(0, 30));

}  // namespace
}  // namespace hirel
