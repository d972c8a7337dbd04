// Reusable constructions of the paper's running examples. Shared by the
// test suite, the figure-reproduction binaries, and the benchmarks.

#ifndef HIREL_TESTING_FIXTURES_H_
#define HIREL_TESTING_FIXTURES_H_

#include <memory>

#include "catalog/database.h"
#include "common/random.h"

namespace hirel {
namespace testing {

/// Fig. 1: the flying-creatures taxonomy and relation.
///
///   animal -> bird -> {canary, penguin}
///   penguin -> {galapagos_penguin, amazing_flying_penguin}
///   tweety: canary; paul: galapagos; pamela: afp;
///   patricia: afp AND galapagos; peter: afp
///
///   flies: +ALL bird, -ALL penguin, +ALL amazing_flying_penguin, +peter
struct FlyingFixture {
  FlyingFixture();

  Database db;
  Hierarchy* animal = nullptr;
  HierarchicalRelation* flies = nullptr;

  NodeId bird, canary, penguin, galapagos, afp;
  NodeId tweety, paul, pamela, patricia, peter;

  /// Single-attribute item helper.
  Item I(NodeId n) const { return Item{n}; }
};

/// Figs. 2, 3, 6-8: students, teachers, and the Respects relation.
///
///   student -> obsequious_student; instances john (obsequious), mary
///   teacher -> incoherent_teacher; instances jim (incoherent), wendy
///
///   respects: +(ALL obsequious_student, ALL teacher)
///             -(ALL student, ALL incoherent_teacher)
///             +(ALL obsequious_student, ALL incoherent_teacher)  [resolver]
struct RespectsFixture {
  /// With `with_resolver` false the third tuple is omitted, leaving the
  /// conflict of Fig. 3's dashed line in place.
  explicit RespectsFixture(bool with_resolver = true);

  Database db;
  Hierarchy* student = nullptr;
  Hierarchy* teacher = nullptr;
  HierarchicalRelation* respects = nullptr;

  NodeId obsequious, john, mary;
  NodeId incoherent, jim, wendy;
};

/// Figs. 4, 9, 11: the royal-elephant hierarchy, Color, and EnclosureSize.
///
///   animal -> elephant -> {african_elephant, indian_elephant,
///                          royal_elephant}
///   clyde: royal; appu: royal AND indian
///
///   color:     +(ALL elephant, grey), -(ALL royal_elephant, grey),
///              +(ALL royal_elephant, white), -(clyde, white),
///              +(clyde, dappled)
///   enclosure: +(ALL elephant, 3000), -(ALL indian_elephant, 3000),
///              +(ALL indian_elephant, 2000)
struct ElephantFixture {
  ElephantFixture();

  Database db;
  Hierarchy* animal = nullptr;
  Hierarchy* color = nullptr;
  Hierarchy* size = nullptr;
  HierarchicalRelation* colors = nullptr;
  HierarchicalRelation* enclosure = nullptr;

  NodeId elephant, african, indian, royal, clyde, appu;
  NodeId grey, white, dappled;
  NodeId sz3000, sz2000;
};

/// Fig. 10: Jack's and Jill's Loves relations over the Fig. 1 taxonomy.
///
///   jill_loves: +ALL bird, -ALL penguin, +peter
///   jack_loves: +ALL penguin
struct LovesFixture {
  LovesFixture();

  FlyingFixture base;
  HierarchicalRelation* jill = nullptr;
  HierarchicalRelation* jack = nullptr;
};

/// A randomized database for property tests and benchmarks: a DAG-shaped
/// hierarchy plus a consistent relation with exceptions.
struct RandomFixtureOptions {
  size_t num_classes = 12;
  size_t num_instances = 30;
  /// Probability that a new class/instance gets a second parent (multiple
  /// inheritance density).
  double extra_parent_p = 0.25;
  size_t num_attributes = 1;
  /// Number of tuple-insertion attempts.
  size_t num_tuples = 8;
  /// Probability a tuple is negated.
  double negative_p = 0.4;
};

/// Builds a random hierarchy-and-relation database that satisfies the
/// ambiguity constraint (conflicting inserts are resolved by inserting the
/// minimal resolution set with the older tuple's truth, or skipped).
class RandomDatabase {
 public:
  RandomDatabase(uint64_t seed, const RandomFixtureOptions& options);

  Database& db() { return *db_; }
  Hierarchy* hierarchy(size_t i) { return hierarchies_[i]; }
  HierarchicalRelation* relation() { return relation_; }

 private:
  std::unique_ptr<Database> db_;
  std::vector<Hierarchy*> hierarchies_;
  HierarchicalRelation* relation_ = nullptr;
};

/// Builds a pure-tree hierarchy with `depth` levels of `fanout` classes and
/// `instances_per_leaf` instances under each leaf class. Used by benches.
Hierarchy* BuildTreeHierarchy(Database& db, const std::string& name,
                              size_t depth, size_t fanout,
                              size_t instances_per_leaf);

/// A stock relation shaped like the browse workload's catalogue (see
/// hqlbench): hierarchy `product` is a depth-4, fanout-6 class tree with
/// `skus` instances spread evenly over its leaves; `stock (item: product)`
/// asserts five of the six top-level lines, denies skus / 50 lower classes
/// and gives 95% of the skus a fact of their own, 85% of those positive.
/// Facts are inserted unguarded, as a snapshot load does. Storage tests and
/// benches measure the store's footprint on it.
HierarchicalRelation* BuildBrowseShapedStock(Database& db, size_t skus,
                                             uint64_t seed = 3);

}  // namespace testing
}  // namespace hirel

#endif  // HIREL_TESTING_FIXTURES_H_
