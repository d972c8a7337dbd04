#include "workloads.h"

#include <random>
#include <set>

namespace hqlbench {

namespace {

class Rng {
 public:
  explicit Rng(uint64_t seed) : gen_(seed) {}
  /// Uniform pick in [0, n); callers guarantee n > 0.
  size_t Pick(size_t n) { return static_cast<size_t>(gen_() % n); }
  bool Chance(double p) {
    return static_cast<double>(gen_() >> 11) * 0x1.0p-53 < p;
  }
  /// `k` distinct picks from `from`, drawn without replacement.
  std::vector<int> Distinct(std::vector<int> from, size_t k) {
    std::vector<int> out;
    for (size_t i = 0; i < k && !from.empty(); ++i) {
      size_t j = Pick(from.size());
      out.push_back(from[j]);
      from[j] = from.back();
      from.pop_back();
    }
    return out;
  }

 private:
  std::mt19937_64 gen_;
};

/// A shuffled deck of action codes, redrawn when empty: every run of a
/// deck's length has the exact mix, so the mix does not vary with the seed.
class Deck {
 public:
  /// (code, copies) pairs.
  explicit Deck(const std::vector<std::pair<int, int>>& counts) {
    for (const auto& [code, copies] : counts) {
      cards_.insert(cards_.end(), static_cast<size_t>(copies), code);
    }
    pos_ = cards_.size();
  }
  int Draw(Rng& rng) {
    if (pos_ == cards_.size()) {
      for (size_t i = cards_.size(); i > 1; --i) {
        std::swap(cards_[i - 1], cards_[rng.Pick(i)]);
      }
      pos_ = 0;
    }
    return cards_[pos_++];
  }

 private:
  std::vector<int> cards_;
  size_t pos_ = 0;
};

Stmt Plain(std::string text, Cls cls = Cls::kOther) {
  Stmt s;
  s.text = std::move(text);
  s.cls = cls;
  return s;
}

std::string Term(const Hier& h, int node) {
  return (h.IsInstance(node) ? "" : "ALL ") + h.NameOf(node);
}

Stmt FactStmt(const char* verb, const std::string& relation,
              const std::vector<const Hier*>& hiers, const Key& key,
              Cls cls = Cls::kOther) {
  Stmt s = Plain(std::string(verb) + " " + relation + "(", cls);
  s.relation = relation;
  for (size_t i = 0; i < key.size(); ++i) {
    if (i) s.text += ", ";
    s.text += Term(*hiers[i], key[i]);
    s.item.push_back(hiers[i]->NameOf(key[i]));
  }
  s.text += ");";
  return s;
}

/// Emits CREATE CLASS statements for a balanced tree of `depth` levels
/// and `fanout` children per class, hung under `top` (root when -1).
/// Returns the class ids level by level.
std::vector<std::vector<int>> ClassTree(Hier& h, const std::string& prefix,
                                        size_t depth, size_t fanout, int top,
                                        std::vector<Stmt>& out) {
  std::vector<std::vector<int>> levels;
  std::vector<int> parents = {top};
  size_t next = 0;
  for (size_t level = 0; level < depth; ++level) {
    std::vector<int> created;
    for (int parent : parents) {
      for (size_t c = 0; c < fanout; ++c) {
        std::string name = prefix + std::to_string(next++);
        std::string text = "CREATE CLASS " + name + " IN " + h.name();
        std::vector<int> ps;
        if (parent >= 0) {
          text += " UNDER " + h.NameOf(parent);
          ps.push_back(parent);
        }
        out.push_back(Plain(text + ";"));
        created.push_back(h.Add(name, ps, false));
      }
    }
    levels.push_back(created);
    parents = created;
  }
  return levels;
}

int AddInstance(Hier& h, const std::string& name,
                const std::vector<int>& parents, std::vector<Stmt>& out,
                Cls cls = Cls::kOther) {
  std::string text = "CREATE INSTANCE " + name + " IN " + h.name();
  for (size_t i = 0; i < parents.size(); ++i) {
    text += (i ? ", " : " UNDER ") + h.NameOf(parents[i]);
  }
  out.push_back(Plain(text + ";", cls));
  return h.Add(name, parents, true);
}

bool Holds(const Tuples& rel, const Key& key) {
  return rel.Eval(key) == Truth::kTrue;
}

/// Expectation for a rendered unary relation: every instance under
/// `node` holds exactly when `holds` says.
template <typename Pred>
Expect UnaryExpect(const Hier& h, int node, Pred holds) {
  Expect e;
  e.kind = Expect::Kind::kRelation;
  e.hiers = {&h};
  for (int s : h.InstancesUnder(node)) {
    e.items.push_back({s});
    e.truths.push_back(holds(s));
  }
  return e;
}

Expect CountExpect(int64_t n) {
  Expect e;
  e.kind = Expect::Kind::kCount;
  e.number = n;
  return e;
}

Expect ExplainExpect(bool truth) {
  Expect e;
  e.kind = Expect::Kind::kExplain;
  e.truth = truth;
  return e;
}

int64_t CountHolding(const Hier& h, const Tuples& rel) {
  int64_t n = 0;
  for (int s : h.instances()) n += Holds(rel, {s});
  return n;
}

/// COUNT rel BY item over a unary relation: one group per top-level class.
Expect UnaryCountBy(const Hier& h, const Tuples& rel) {
  Expect e;
  e.kind = Expect::Kind::kCountBy;
  e.by = &h;
  std::map<int, int64_t> groups;
  for (int s : h.instances()) {
    if (!Holds(rel, {s})) continue;
    for (int a : h.Ancestors(s)) {
      if (a != s && h.IsTopLevel(a)) ++groups[a];
    }
  }
  e.groups.assign(groups.begin(), groups.end());
  return e;
}

// ---------------------------------------------------------------------------
// browse: read-only catalogue browsing over a 10^4-sku product tree.

class Browse : public Workload {
 public:
  explicit Browse(uint64_t seed) : rng_(seed) {}

  bool from_snapshot() const override { return true; }
  std::vector<std::string> user_relations() const override {
    return {"stock"};
  }

  std::vector<Stmt> Build() override {
    std::vector<Stmt> out;
    out.push_back(Plain("CREATE HIERARCHY product;"));
    levels_ = ClassTree(product_, "c", kDepth, kFanout, -1, out);
    // Skus spread evenly over the leaves, so subtree sizes (and the cost
    // of every query on them) do not move with the seed.
    for (size_t i = 0; i < kSkus; ++i) {
      int leaf = levels_.back()[(i * 37) % levels_.back().size()];
      skus_.push_back(
          AddInstance(product_, "s" + std::to_string(i), {leaf}, out));
    }
    out.push_back(Plain("CREATE RELATION stock (item: product);"));
    out.push_back(Plain("BEGIN stock;"));
    // Five of the six top-level lines are stocked by default; class DENYs
    // (distinct classes, drawn without replacement) carve out exceptions,
    // and most skus carry their own fact.
    for (int c : rng_.Distinct(levels_[0], levels_[0].size() - 1)) {
      Fact(out, c, true);
    }
    std::vector<int> lower;
    for (size_t l = 1; l < levels_.size(); ++l) {
      lower.insert(lower.end(), levels_[l].begin(), levels_[l].end());
    }
    for (int c : rng_.Distinct(lower, kSkus / 50)) Fact(out, c, false);
    std::vector<int> own = rng_.Distinct(skus_, kSkus * 95 / 100);
    for (size_t i = 0; i < own.size(); ++i) {
      Fact(out, own[i], i < own.size() * 85 / 100);
    }
    out.push_back(Plain("COMMIT;"));
    count_ = CountHolding(product_, stock_);
    return out;
  }

  std::vector<Stmt> Warm() override {
    Stmt s = Plain("COUNT stock;", Cls::kRead);
    s.expect = CountExpect(count_);
    return {s};
  }

  Action Next() override {
    Action a;
    Stmt s;
    s.cls = Cls::kRead;
    int code = deck_.Draw(rng_);
    if (code <= 4) {
      // Subtree selection on a class of level `code` (1-based depth).
      const std::vector<int>& level = levels_[code - 1];
      int c = level[rng_.Pick(level.size())];
      s.text = "SELECT * FROM stock WHERE item = ALL " + product_.NameOf(c) +
               ";";
      s.expect = UnaryExpect(product_, c,
                             [&](int x) { return Holds(stock_, {x}); });
    } else if (code == kPoint) {
      int sku = skus_[rng_.Pick(skus_.size())];
      s.text = "SELECT * FROM stock WHERE item = " + product_.NameOf(sku) +
               ";";
      s.expect = UnaryExpect(product_, sku,
                             [&](int x) { return Holds(stock_, {x}); });
    } else if (code == kExplain) {
      int sku = skus_[rng_.Pick(skus_.size())];
      s.text = "EXPLAIN stock(" + product_.NameOf(sku) + ");";
      s.expect = ExplainExpect(Holds(stock_, {sku}));
    } else {
      s.text = "COUNT stock;";
      s.expect = CountExpect(count_);
    }
    a.stmts.push_back(std::move(s));
    return a;
  }

 private:
  static constexpr size_t kDepth = 4;
  static constexpr size_t kFanout = 6;
  static constexpr size_t kSkus = 10000;
  enum { kPoint = 10, kExplain, kCount };

  void Fact(std::vector<Stmt>& out, int node, bool positive) {
    out.push_back(FactStmt(positive ? "ASSERT" : "DENY", "stock",
                           stock_.hiers(), {node}));
    stock_.Set({node}, positive);
  }

  Rng rng_;
  // Per 100 statements: subtree selects on levels 2-4 (a top-level
  // subtree select takes over a second, so it is left out), point selects,
  // justifications and counts.
  Deck deck_{{{2, 10}, {3, 20}, {4, 30}, {kPoint, 20}, {kExplain, 15},
              {kCount, 5}}};
  Hier product_{"product"};
  Tuples stock_{{&product_}};
  std::vector<std::vector<int>> levels_;
  std::vector<int> skus_;
  int64_t count_ = 0;
};

// ---------------------------------------------------------------------------
// update: guarded maintenance over a multiple-inheritance taxonomy. Every
// sku sits under a category leaf and a brand; positive category lines and
// denied brands meet at skus, so the ambiguity check has real pairs.

class Update : public Workload {
 public:
  explicit Update(uint64_t seed) : rng_(seed) {}

  std::vector<std::string> user_relations() const override {
    return {"stock"};
  }

  std::vector<Stmt> Build() override {
    std::vector<Stmt> out;
    out.push_back(Plain("CREATE HIERARCHY product;"));
    levels_ = ClassTree(product_, "c", 3, 4, -1, out);
    out.push_back(Plain("CREATE CLASS brand IN product;"));
    brand_root_ = product_.Add("brand", {}, false);
    brands_ = ClassTree(product_, "b", 1, kBrands, brand_root_, out)[0];
    // Skus spread evenly: every (category line, brand) pair covers exactly
    // kPerCell skus. The seed picks which lines and brands carry facts,
    // not how many skus they cover, so the data's shape (and the engine's
    // cost) does not move with the seed.
    const size_t lines = levels_[1].size();
    const size_t cells = lines * brands_.size();
    for (size_t i = 0; i < cells * kPerCell; ++i) {
      size_t line = i % cells / brands_.size();
      int leaf = levels_[2][line * 4 + (i / cells + i) % 4];
      int brand = brands_[i % brands_.size()];
      AddInstance(product_, "s" + std::to_string(next_sku_++), {leaf, brand},
                  out);
    }
    out.push_back(Plain("CREATE RELATION stock (item: product);"));

    // Branded goods are stocked by default; four category lines are
    // always stocked; four brands are denied. Skus where a stocked line
    // meets a denied brand get their resolver before the brand DENY; a
    // fixed share of the other skus, in each inherited state, carries an
    // exception.
    Write(out, "ASSERT", brand_root_, Cls::kOther);
    for (int c : rng_.Distinct(levels_[1], 4)) {
      Write(out, "ASSERT", c, Cls::kOther);
    }
    for (int b : rng_.Distinct(brands_, 4)) denied_.insert(b);
    std::vector<int> zone, held, unheld;
    for (int s : product_.instances()) {
      if (InConflictZone(s)) {
        zone.push_back(s);
      } else {
        (UnderDeniedBrand(s) ? unheld : held).push_back(s);
      }
    }
    for (int s : rng_.Distinct(zone, zone.size() * 7 / 10)) {
      Write(out, "ASSERT", s, Cls::kOther);
    }
    for (int s : zone) {
      if (!stock_.Has({s})) Write(out, "DENY", s, Cls::kOther);
    }
    for (int b : denied_) Write(out, "DENY", b, Cls::kOther);
    for (int s : rng_.Distinct(held, held.size() * kHeldShare / 100)) {
      Exception(out, s, Cls::kOther);
    }
    for (int s : rng_.Distinct(unheld, unheld.size() * kUnheldShare / 100)) {
      Exception(out, s, Cls::kOther);
    }
    target_ = stock_.size();
    return out;
  }

  std::vector<Stmt> Warm() override { return {Count()}; }

  Action Next() override {
    Action a;
    int code = deck_.Draw(rng_);
    if (code < kNew) {
      a.stmts.push_back(Read(code));
    } else if (code < kConsolidate) {
      WriteAction(code, a.stmts);
    } else {
      Stmt s = Plain("CONSOLIDATE stock;", Cls::kMaint);
      s.expect.kind = Expect::Kind::kConsolidate;
      s.expect.number = static_cast<int64_t>(stock_.Consolidate());
      a.stmts.push_back(std::move(s));
    }
    return a;
  }

 private:
  static constexpr size_t kBrands = 16;
  static constexpr size_t kPerCell = 3;  // 768 skus
  // Percent of the skus that inherit "in stock" (resp. "not in stock")
  // and carry an exception.
  static constexpr size_t kHeldShare = 25;
  static constexpr size_t kUnheldShare = 60;
  enum {
    kCount, kPoint, kCategory, kBrand,             // reads
    kNew, kAdd, kRetract, kChurn, kFlip,           // guarded writes
    kConsolidate,
  };

  int NewSku(std::vector<Stmt>& out, Cls cls) {
    int leaf = levels_.back()[rng_.Pick(levels_.back().size())];
    int brand = brands_[rng_.Pick(brands_.size())];
    return AddInstance(product_, "s" + std::to_string(next_sku_++),
                       {leaf, brand}, out, cls);
  }

  bool UnderDeniedBrand(int sku) const {
    for (int a : product_.Ancestors(sku)) {
      if (denied_.count(a) != 0) return true;
    }
    return false;
  }

  /// A sku under both a stocked category line and a denied brand needs a
  /// tuple of its own.
  bool InConflictZone(int sku) const {
    bool line = false;
    bool denied = false;
    for (int a : product_.Ancestors(sku)) {
      if (a == sku) continue;
      const bool* sign = stock_.Find({a});
      if (sign != nullptr && *sign && a != brand_root_) line = true;
      if (denied_.count(a) != 0) denied = true;
    }
    return line && denied;
  }

  /// ASSERT, DENY or RETRACT on `node`, applied to the model too.
  void Write(std::vector<Stmt>& out, const char* verb, int node, Cls cls) {
    std::string v = verb;
    out.push_back(FactStmt(verb, "stock", stock_.hiers(), {node}, cls));
    if (v == "RETRACT") {
      stock_.Erase({node});
    } else {
      stock_.Set({node}, v == "ASSERT");
    }
  }

  /// A fact on `sku` with the opposite of the truth it inherits.
  void Exception(std::vector<Stmt>& out, int sku, Cls cls) {
    bool inherited = Holds(stock_, {sku});
    Write(out, inherited ? "DENY" : "ASSERT", sku, cls);
  }

  Stmt Count() {
    Stmt s = Plain("COUNT stock;", Cls::kRead);
    s.expect = CountExpect(CountHolding(product_, stock_));
    return s;
  }

  /// The node a read of kind `code` selects on.
  int ReadTarget(int code) {
    if (code == kPoint) {
      const std::vector<int>& skus = product_.instances();
      return skus[rng_.Pick(skus.size())];
    }
    if (code == kCategory) {
      const std::vector<int>& level = levels_[rng_.Pick(levels_.size())];
      return level[rng_.Pick(level.size())];
    }
    return brands_[rng_.Pick(brands_.size())];
  }

  /// A read of kind `code`; a selection on `node` when given.
  Stmt Read(int code, int node = -1) {
    if (code == kCount) return Count();
    if (node < 0) node = ReadTarget(code);
    Stmt s = Plain("SELECT * FROM stock WHERE item = " +
                       Term(product_, node) + ";",
                   Cls::kRead);
    s.expect =
        UnaryExpect(product_, node, [&](int x) { return Holds(stock_, {x}); });
    return s;
  }

  /// A sku fact whose removal exposes no conflict, or -1.
  int Retractable() {
    const std::vector<int>& skus = product_.instances();
    for (int attempt = 0; attempt < 64; ++attempt) {
      int s = skus[rng_.Pick(skus.size())];
      if (stock_.Has({s}) && !InConflictZone(s)) return s;
    }
    return -1;
  }

  /// A sku without a fact of its own (never in a conflict zone), or -1.
  int Factless() {
    const std::vector<int>& skus = product_.instances();
    for (int attempt = 0; attempt < 64; ++attempt) {
      int s = skus[rng_.Pick(skus.size())];
      if (!stock_.Has({s})) return s;
    }
    return -1;
  }

  void WriteAction(int code, std::vector<Stmt>& out) {
    // Keep the relation near its set-up size: past the band, adds turn
    // into retracts and retracts into adds.
    const bool over = stock_.size() > target_ + 25;
    const bool under = stock_.size() + 25 < target_;
    if ((code == kNew || code == kAdd) && over) code = kRetract;
    if (code == kRetract && under) code = kNew;
    if (code == kNew) {
      int s = NewSku(out, Cls::kEdit);
      if (InConflictZone(s)) {
        Write(out, rng_.Chance(0.7) ? "ASSERT" : "DENY", s,
              Cls::kWrite);
      } else {
        Exception(out, s, Cls::kWrite);
      }
    } else if (code == kAdd) {
      int s = Factless();
      if (s >= 0) Exception(out, s, Cls::kWrite);
    } else if (code == kRetract) {
      int s = Retractable();
      if (s >= 0) Write(out, "RETRACT", s, Cls::kWrite);
    } else if (code == kChurn) {
      // Churn: retract and immediately re-assert the same fact.
      int s = Retractable();
      if (s >= 0) {
        bool positive = *stock_.Find({s});
        Write(out, "RETRACT", s, Cls::kWrite);
        Write(out, positive ? "ASSERT" : "DENY", s, Cls::kWrite);
      }
    } else {
      // Deny a brand, asserting the exceptions it needs first; browse it;
      // then lift the DENY and retract those exceptions again, so the
      // relation's shape stays stationary over the trace.
      std::vector<int> open;
      for (int b : brands_) {
        if (denied_.count(b) == 0) open.push_back(b);
      }
      int b = open[rng_.Pick(open.size())];
      denied_.insert(b);
      std::vector<int> resolvers;
      for (int s : product_.InstancesUnder(b)) {
        if (!stock_.Has({s}) && InConflictZone(s)) resolvers.push_back(s);
      }
      for (int s : resolvers) Write(out, "ASSERT", s, Cls::kWrite);
      Write(out, "DENY", b, Cls::kWrite);
      out.push_back(Read(kBrand, b));
      denied_.erase(b);
      Write(out, "RETRACT", b, Cls::kWrite);
      for (int s : resolvers) Write(out, "RETRACT", s, Cls::kWrite);
    }
    if (out.empty()) out.push_back(Read(kCount));
  }

  Rng rng_;
  // Per 100 actions: 60 reads, 30 guarded-write actions (about 45 write
  // statements, since churns and brand flips write more than once) and 10
  // CONSOLIDATEs. That is about 40% writes and 50% reads by statement.
  Deck deck_{{{kCount, 12}, {kPoint, 6}, {kCategory, 21}, {kBrand, 21},
              {kNew, 4}, {kAdd, 11}, {kRetract, 8}, {kChurn, 4},
              {kFlip, 3}, {kConsolidate, 10}}};
  Hier product_{"product"};
  Tuples stock_{{&product_}};
  std::vector<std::vector<int>> levels_;
  std::vector<int> brands_;
  int brand_root_ = -1;
  std::set<int> denied_;
  size_t next_sku_ = 0;
  size_t target_ = 0;
};

// ---------------------------------------------------------------------------
// analytic: joins, set operations and rules over stock, supplies and promo.

class Analytic : public Workload {
 public:
  explicit Analytic(uint64_t seed) : rng_(seed) {}

  std::vector<std::string> user_relations() const override {
    return {"stock", "supplies", "promo", "available"};
  }

  std::vector<Stmt> Build() override {
    std::vector<Stmt> out;
    out.push_back(Plain("CREATE HIERARCHY product;"));
    levels_ = ClassTree(product_, "c", 3, 6, -1, out);
    // Skus spread evenly over the leaves, so class sizes (and the cost of
    // every query on them) do not move with the seed.
    for (size_t i = 0; i < kSkus; ++i) {
      AddInstance(product_, "s" + std::to_string(next_sku_++),
                  {levels_.back()[(i * 37) % levels_.back().size()]}, out);
    }
    out.push_back(Plain("CREATE HIERARCHY vendor;"));
    vendor_classes_ = ClassTree(vendor_, "vc", 1, 3, -1, out)[0];
    for (int vc : vendor_classes_) {
      for (size_t i = 0; i < 4; ++i) {
        vendors_.push_back(AddInstance(
            vendor_, "v" + std::to_string(vendors_.size()), {vc}, out));
      }
    }
    out.push_back(Plain("CREATE RELATION stock (item: product);"));
    out.push_back(Plain("CREATE RELATION supplies (who: vendor, item: product);"));
    out.push_back(Plain("CREATE RELATION promo (item: product);"));
    out.push_back(Plain("CREATE RELATION available (who: vendor, item: product);"));

    const std::vector<int>& skus = product_.instances();
    out.push_back(Plain("BEGIN stock;"));
    for (int c : rng_.Distinct(levels_[0], 5)) Fact(out, stock_, {c}, true);
    for (int c : rng_.Distinct(levels_[1], 4)) Fact(out, stock_, {c}, false);
    for (int c : rng_.Distinct(levels_[2], 20)) Fact(out, stock_, {c}, false);
    for (int s : rng_.Distinct(skus, skus.size() / 5)) {
      Fact(out, stock_, {s}, !Holds(stock_, {s}));
    }
    out.push_back(Plain("COMMIT;"));

    // Each top-level line has exactly one supplying vendor class; a few
    // vendors opt out of a subline, a few take or drop single skus.
    out.push_back(Plain("BEGIN supplies;"));
    std::vector<int> lines = rng_.Distinct(levels_[0], levels_[0].size());
    for (size_t i = 0; i < lines.size(); ++i) {
      Fact(out, supplies_, {vendor_classes_[i % vendor_classes_.size()],
                            lines[i]}, true);
    }
    for (int i = 0; i < 12; ++i) {
      int v = vendors_[rng_.Pick(vendors_.size())];
      int c = levels_[1][rng_.Pick(levels_[1].size())];
      if (!supplies_.Has({v, c})) Fact(out, supplies_, {v, c}, false);
    }
    for (int i = 0; i < 40; ++i) {
      int v = vendors_[rng_.Pick(vendors_.size())];
      int s = product_.instances()[rng_.Pick(product_.instances().size())];
      if (!supplies_.Has({v, s})) {
        Fact(out, supplies_, {v, s}, !Holds(supplies_, {v, s}));
      }
    }
    out.push_back(Plain("COMMIT;"));

    out.push_back(Plain("BEGIN promo;"));
    for (int c : rng_.Distinct(levels_[1], 5)) Fact(out, promo_, {c}, true);
    for (int c : rng_.Distinct(levels_[2], 10)) Fact(out, promo_, {c}, true);
    for (int i = 0; i < 150; ++i) {
      int s = product_.instances()[rng_.Pick(product_.instances().size())];
      if (!promo_.Has({s})) Fact(out, promo_, {s}, !Holds(promo_, {s}));
    }
    out.push_back(Plain("COMMIT;"));

    out.push_back(Plain(
        "RULE 'available(?v, ?i) :- supplies(?v, ?i), stock(?i).';"));
    out.push_back(Derive(Cls::kOther));
    return out;
  }

  std::vector<Stmt> Warm() override {
    Stmt s = Plain("COUNT available;", Cls::kRead);
    s.expect = CountExpect(static_cast<int64_t>(available_.size()));
    return {s};
  }

  Action Next() override {
    Action a;
    int code = deck_.Draw(rng_);
    Stmt s = Plain("", Cls::kRead);
    if (code == kJoin2 || code == kJoin3) {
      int c = ClassAt(code == kJoin2 ? 1 : 2);
      s.text = "SELECT * FROM supplies JOIN stock WHERE item = ALL " +
               product_.NameOf(c) + ";";
      s.expect.kind = Expect::Kind::kRelation;
      s.expect.hiers = supplies_.hiers();
      for (int x : product_.InstancesUnder(c)) {
        bool in_stock = Holds(stock_, {x});
        for (int v : vendors_) {
          s.expect.items.push_back({v, x});
          s.expect.truths.push_back(in_stock && Holds(supplies_, {v, x}));
        }
      }
    } else if (code == kSetOp2 || code == kSetOp3) {
      int c = ClassAt(code == kSetOp2 ? 1 : 2);
      bool intersect = rng_.Chance(0.5);
      s.text = std::string("SELECT * FROM stock ") +
               (intersect ? "INTERSECT" : "EXCEPT") +
               " promo WHERE item = ALL " + product_.NameOf(c) + ";";
      s.expect = UnaryExpect(product_, c, [&](int x) {
        return Holds(stock_, {x}) && (Holds(promo_, {x}) == intersect);
      });
    } else if (code == kCountBy) {
      if (rng_.Chance(0.5)) {
        s.text = "COUNT stock BY item;";
        s.expect = UnaryCountBy(product_, stock_);
      } else {
        s.text = "COUNT available BY who;";
        s.expect.kind = Expect::Kind::kCountBy;
        s.expect.by = &vendor_;
        std::map<int, int64_t> groups;
        for (const Key& k : available_) {
          ++groups[vendor_.Parents(k[0]).front()];
        }
        s.expect.groups.assign(groups.begin(), groups.end());
      }
    } else if (code == kExplain) {
      int x = Sku();
      if (rng_.Chance(0.5)) {
        int v = vendors_[rng_.Pick(vendors_.size())];
        s.text = "EXPLAIN supplies(" + vendor_.NameOf(v) + ", " +
                 product_.NameOf(x) + ");";
        s.expect = ExplainExpect(Holds(supplies_, {v, x}));
      } else {
        s.text = "EXPLAIN stock(" + product_.NameOf(x) + ");";
        s.expect = ExplainExpect(Holds(stock_, {x}));
      }
    } else if (code == kAvailable) {
      int x = Sku();
      s.text = "SELECT * FROM available WHERE item = " + product_.NameOf(x) +
               ";";
      s.expect.kind = Expect::Kind::kRelation;
      s.expect.hiers = supplies_.hiers();
      for (int v : vendors_) {
        s.expect.items.push_back({v, x});
        s.expect.truths.push_back(available_.count({v, x}) != 0);
      }
    } else {
      // A small stock batch for new skus, committed at once, then DERIVE.
      std::vector<int> fresh;
      for (int i = 0; i < 4; ++i) fresh.push_back(NewSku(a.stmts, Cls::kEdit));
      a.stmts.push_back(Plain("BEGIN stock;", Cls::kMaint));
      for (int x : fresh) Fact(a.stmts, stock_, {x}, true, Cls::kMaint);
      a.stmts.push_back(Plain("COMMIT;", Cls::kMaint));
      a.stmts.push_back(Derive(Cls::kMaint));
      a.maint_group = true;
      return a;
    }
    a.stmts.push_back(std::move(s));
    return a;
  }

 private:
  static constexpr size_t kSkus = 3000;
  enum {
    kJoin2, kJoin3, kSetOp2, kSetOp3,  // on a level-2 or level-3 class
    kCountBy, kExplain, kAvailable, kBatch,
  };

  int NewSku(std::vector<Stmt>& out, Cls cls) {
    int leaf = levels_.back()[rng_.Pick(levels_.back().size())];
    return AddInstance(product_, "s" + std::to_string(next_sku_++), {leaf},
                       out, cls);
  }

  int Sku() {
    return product_.instances()[rng_.Pick(product_.instances().size())];
  }

  /// A random class of `level` (0 = top).
  int ClassAt(size_t level) {
    return levels_[level][rng_.Pick(levels_[level].size())];
  }

  void Fact(std::vector<Stmt>& out, Tuples& rel, const Key& key,
            bool positive, Cls cls = Cls::kOther) {
    const char* name = &rel == &stock_      ? "stock"
                       : &rel == &supplies_ ? "supplies"
                                            : "promo";
    out.push_back(
        FactStmt(positive ? "ASSERT" : "DENY", name, rel.hiers(), key, cls));
    rel.Set(key, positive);
  }

  /// DERIVE adds every supplies-join-stock fact not derived before (the
  /// engine keeps earlier derived facts; stock only grows here).
  Stmt Derive(Cls cls) {
    int64_t added = 0;
    for (int x : product_.instances()) {
      if (!Holds(stock_, {x})) continue;
      for (int v : vendors_) {
        if (Holds(supplies_, {v, x}) && available_.insert({v, x}).second) {
          ++added;
        }
      }
    }
    Stmt s = Plain("DERIVE;", cls);
    s.expect.kind = Expect::Kind::kDerive;
    s.expect.number = added;
    return s;
  }

  Rng rng_;
  // Per 100 actions: 97 reads and 3 stock batches, each with its DERIVE
  // (a batch costs as much as two hundred reads).
  Deck deck_{{{kJoin2, 15}, {kJoin3, 15}, {kSetOp2, 10}, {kSetOp3, 10},
              {kCountBy, 10}, {kExplain, 15}, {kAvailable, 22},
              {kBatch, 3}}};
  Hier product_{"product"};
  Hier vendor_{"vendor"};
  Tuples stock_{{&product_}};
  Tuples supplies_{{&vendor_, &product_}};
  Tuples promo_{{&product_}};
  std::set<Key> available_;
  std::vector<std::vector<int>> levels_;
  std::vector<int> vendor_classes_;
  std::vector<int> vendors_;
  size_t next_sku_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(std::string_view name, uint64_t seed) {
  if (name == "browse") return std::make_unique<Browse>(seed);
  if (name == "update") return std::make_unique<Update>(seed);
  if (name == "analytic") return std::make_unique<Analytic>(seed);
  return nullptr;
}

}  // namespace hqlbench
