#include "testing/fixtures.h"

#include <cassert>

#include "common/str_util.h"
#include "core/conflict.h"
#include "core/integrity.h"

namespace hirel {
namespace testing {

namespace {

/// Unwraps a Result in fixture code, where failure is a programming error.
template <typename T>
T Must(Result<T> result) {
  assert(result.ok() && "fixture construction failed");
  return std::move(result).value();
}

void MustOk(const Status& status) {
  assert(status.ok() && "fixture construction failed");
  (void)status;
}

Value S(const char* s) { return Value::String(s); }

}  // namespace

FlyingFixture::FlyingFixture() {
  animal = Must(db.CreateHierarchy("animal"));
  bird = Must(animal->AddClass("bird"));
  canary = Must(animal->AddClass("canary", bird));
  penguin = Must(animal->AddClass("penguin", bird));
  galapagos = Must(animal->AddClass("galapagos_penguin", penguin));
  afp = Must(animal->AddClass("amazing_flying_penguin", penguin));

  tweety = Must(animal->AddInstance(S("tweety"), canary));
  paul = Must(animal->AddInstance(S("paul"), galapagos));
  pamela = Must(animal->AddInstance(S("pamela"), afp));
  patricia = Must(animal->AddInstance(S("patricia"), afp));
  MustOk(animal->AddEdge(galapagos, patricia));
  peter = Must(animal->AddInstance(S("peter"), afp));

  flies = Must(db.CreateRelation("flies", {{"who", "animal"}}));
  Must(flies->Insert({bird}, Truth::kPositive));
  Must(flies->Insert({penguin}, Truth::kNegative));
  Must(flies->Insert({afp}, Truth::kPositive));
  Must(flies->Insert({peter}, Truth::kPositive));
}

RespectsFixture::RespectsFixture(bool with_resolver) {
  student = Must(db.CreateHierarchy("student"));
  obsequious = Must(student->AddClass("obsequious_student"));
  john = Must(student->AddInstance(S("john"), obsequious));
  mary = Must(student->AddInstance(S("mary"), student->root()));

  teacher = Must(db.CreateHierarchy("teacher"));
  incoherent = Must(teacher->AddClass("incoherent_teacher"));
  jim = Must(teacher->AddInstance(S("jim"), incoherent));
  wendy = Must(teacher->AddInstance(S("wendy"), teacher->root()));

  respects = Must(db.CreateRelation(
      "respects", {{"who", "student"}, {"whom", "teacher"}}));
  Must(respects->Insert({obsequious, teacher->root()}, Truth::kPositive));
  if (with_resolver) {
    // The conflict-resolving tuple must be in place before the negative
    // tuple is guarded-inserted; plain Insert keeps construction simple.
    Must(respects->Insert({obsequious, incoherent}, Truth::kPositive));
  }
  Must(respects->Insert({student->root(), incoherent}, Truth::kNegative));
}

ElephantFixture::ElephantFixture() {
  animal = Must(db.CreateHierarchy("animal"));
  elephant = Must(animal->AddClass("elephant"));
  african = Must(animal->AddClass("african_elephant", elephant));
  indian = Must(animal->AddClass("indian_elephant", elephant));
  royal = Must(animal->AddClass("royal_elephant", elephant));
  clyde = Must(animal->AddInstance(S("clyde"), royal));
  appu = Must(animal->AddInstance(S("appu"), royal));
  MustOk(animal->AddEdge(indian, appu));

  color = Must(db.CreateHierarchy("color"));
  grey = Must(color->AddInstance(S("grey")));
  white = Must(color->AddInstance(S("white")));
  dappled = Must(color->AddInstance(S("dappled")));

  size = Must(db.CreateHierarchy("enclosure_size"));
  sz3000 = Must(size->AddInstance(Value::Int(3000)));
  sz2000 = Must(size->AddInstance(Value::Int(2000)));

  colors = Must(
      db.CreateRelation("color_of", {{"animal", "animal"}, {"color", "color"}}));
  Must(colors->Insert({elephant, grey}, Truth::kPositive));
  Must(colors->Insert({royal, grey}, Truth::kNegative));
  Must(colors->Insert({royal, white}, Truth::kPositive));
  Must(colors->Insert({clyde, white}, Truth::kNegative));
  Must(colors->Insert({clyde, dappled}, Truth::kPositive));

  enclosure = Must(db.CreateRelation(
      "enclosure", {{"animal", "animal"}, {"sqft", "enclosure_size"}}));
  Must(enclosure->Insert({elephant, sz3000}, Truth::kPositive));
  Must(enclosure->Insert({indian, sz3000}, Truth::kNegative));
  Must(enclosure->Insert({indian, sz2000}, Truth::kPositive));
}

LovesFixture::LovesFixture() {
  jill = Must(base.db.CreateRelation("jill_loves", {{"who", "animal"}}));
  Must(jill->Insert({base.bird}, Truth::kPositive));
  Must(jill->Insert({base.penguin}, Truth::kNegative));
  Must(jill->Insert({base.peter}, Truth::kPositive));

  jack = Must(base.db.CreateRelation("jack_loves", {{"who", "animal"}}));
  Must(jack->Insert({base.penguin}, Truth::kPositive));
}

RandomDatabase::RandomDatabase(uint64_t seed,
                               const RandomFixtureOptions& options) {
  db_ = std::make_unique<Database>();
  Random rng(seed);

  for (size_t a = 0; a < options.num_attributes; ++a) {
    Hierarchy* h =
        Must(db_->CreateHierarchy(StrCat("domain", a)));
    std::vector<NodeId> classes{h->root()};
    for (size_t c = 0; c < options.num_classes; ++c) {
      NodeId parent = classes[rng.Index(classes.size())];
      NodeId node = Must(h->AddClass(StrCat("c", a, "_", c), parent));
      if (rng.Bernoulli(options.extra_parent_p)) {
        NodeId extra = classes[rng.Index(classes.size())];
        // May be redundant or cyclic; both are safely rejected/ignored.
        (void)h->AddEdge(extra, node);
      }
      classes.push_back(node);
    }
    for (size_t i = 0; i < options.num_instances; ++i) {
      NodeId parent = classes[rng.Index(classes.size())];
      NodeId node = Must(h->AddInstance(S(StrCat("i", a, "_", i).c_str()),
                                        parent));
      if (rng.Bernoulli(options.extra_parent_p)) {
        NodeId extra = classes[rng.Index(classes.size())];
        (void)h->AddEdge(extra, node);
      }
    }
    hierarchies_.push_back(h);
  }

  std::vector<std::pair<std::string, std::string>> attributes;
  for (size_t a = 0; a < options.num_attributes; ++a) {
    attributes.emplace_back(StrCat("a", a), StrCat("domain", a));
  }
  relation_ = Must(db_->CreateRelation("r", attributes));

  for (size_t t = 0; t < options.num_tuples; ++t) {
    Item item(options.num_attributes);
    for (size_t a = 0; a < options.num_attributes; ++a) {
      std::vector<NodeId> nodes = hierarchies_[a]->Nodes();
      item[a] = nodes[rng.Index(nodes.size())];
    }
    Truth truth =
        rng.Bernoulli(options.negative_p) ? Truth::kNegative : Truth::kPositive;
    // Keep the database consistent: try a guarded insert; on conflict,
    // resolve in favour of the *new* tuple by asserting its truth on the
    // minimal resolution sets, then retry once.
    Result<TupleId> inserted = GuardedInsert(*relation_, item, truth);
    if (inserted.ok()) continue;
    if (!inserted.status().IsConflict()) continue;  // duplicate etc.: skip
    bool resolved = true;
    for (TupleId other : relation_->TupleIds()) {
      TupleView o = relation_->tuple(other);
      if (o.truth == truth) continue;
      if (ItemComparable(relation_->schema(), o.item, item)) continue;
      Status s = ResolveConflict(*relation_, item, o.item, truth);
      if (!s.ok()) {
        resolved = false;
        break;
      }
    }
    if (resolved) {
      (void)GuardedInsert(*relation_, item, truth);
    }
    // If the database is still inconsistent (resolution sets may interact),
    // drop the offending resolver tuples until consistency returns.
    while (!CheckAmbiguity(*relation_).ok()) {
      std::vector<TupleId> ids = relation_->TupleIds();
      if (ids.empty()) break;
      MustOk(relation_->Erase(ids.back()));
    }
  }
  assert(CheckAmbiguity(*relation_).ok());
}

Hierarchy* BuildTreeHierarchy(Database& db, const std::string& name,
                              size_t depth, size_t fanout,
                              size_t instances_per_leaf) {
  Hierarchy* h = Must(db.CreateHierarchy(name));
  std::vector<NodeId> level{h->root()};
  size_t counter = 0;
  for (size_t d = 0; d < depth; ++d) {
    std::vector<NodeId> next;
    for (NodeId parent : level) {
      for (size_t f = 0; f < fanout; ++f) {
        next.push_back(
            Must(h->AddClass(StrCat(name, "_c", counter++), parent)));
      }
    }
    level = std::move(next);
  }
  size_t instance_counter = 0;
  for (NodeId leaf : level) {
    for (size_t i = 0; i < instances_per_leaf; ++i) {
      Must(h->AddInstance(
          Value::String(StrCat(name, "_i", instance_counter++)), leaf));
    }
  }
  return h;
}

HierarchicalRelation* BuildBrowseShapedStock(Database& db, size_t skus,
                                             uint64_t seed) {
  constexpr size_t kDepth = 4;
  constexpr size_t kFanout = 6;
  Hierarchy* product = Must(db.CreateHierarchy("product"));
  std::vector<std::vector<NodeId>> levels;
  std::vector<NodeId> parents{product->root()};
  size_t counter = 0;
  for (size_t d = 0; d < kDepth; ++d) {
    std::vector<NodeId> level;
    for (NodeId parent : parents) {
      for (size_t f = 0; f < kFanout; ++f) {
        level.push_back(
            Must(product->AddClass(StrCat("c", counter++), parent)));
      }
    }
    levels.push_back(level);
    parents = std::move(level);
  }
  const std::vector<NodeId>& leaves = levels.back();
  std::vector<NodeId> sku_nodes;
  for (size_t i = 0; i < skus; ++i) {
    sku_nodes.push_back(Must(product->AddInstance(
        Value::String(StrCat("s", i)), leaves[(i * 37) % leaves.size()])));
  }
  HierarchicalRelation* stock =
      Must(db.CreateRelation("stock", {{"item", "product"}}));

  Random rng(seed);
  auto distinct = [&](std::vector<NodeId> nodes, size_t n) {
    rng.Shuffle(nodes);
    nodes.resize(std::min(n, nodes.size()));
    return nodes;
  };
  for (NodeId line : distinct(levels[0], levels[0].size() - 1)) {
    MustOk(stock->Insert({line}, Truth::kPositive).status());
  }
  std::vector<NodeId> lower;
  for (size_t l = 1; l < levels.size(); ++l) {
    lower.insert(lower.end(), levels[l].begin(), levels[l].end());
  }
  for (NodeId c : distinct(lower, skus / 50)) {
    MustOk(stock->Insert({c}, Truth::kNegative).status());
  }
  std::vector<NodeId> own = distinct(sku_nodes, skus * 95 / 100);
  for (size_t i = 0; i < own.size(); ++i) {
    Truth truth =
        i < own.size() * 85 / 100 ? Truth::kPositive : Truth::kNegative;
    MustOk(stock->Insert({own[i]}, truth).status());
  }
  return stock;
}

}  // namespace testing
}  // namespace hirel
