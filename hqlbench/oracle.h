// The benchmark's answer oracle: an independent model of hierarchies,
// hierarchical relations and off-path inheritance, written from the
// paper's definitions (Sections 2.1, 3.1, 3.3.1). It shares no code with
// the engine under test; it only knows the engine's rendered text formats.
//
// A relation is modelled as the exact set of tuples the engine stores
// (CONSOLIDATE is simulated, so the model follows removals too). Truth of
// an atomic item is its strongest binding: the item's own tuple if any,
// otherwise the most specific applicable tuples, which must agree.

#ifndef HQLBENCH_ORACLE_H_
#define HQLBENCH_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace hqlbench {

/// One hierarchy: named nodes (classes and instances) with direct parents.
/// Every node stores its ancestor set (itself included), sorted, so a
/// subsumption test is a binary search.
class Hier {
 public:
  explicit Hier(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  int Add(const std::string& node, const std::vector<int>& parents,
          bool instance) {
    int id = static_cast<int>(names_.size());
    names_.push_back(node);
    ids_.emplace(node, id);
    instance_.push_back(instance);
    std::vector<int> anc = {id};
    for (int p : parents) anc.insert(anc.end(), anc_[p].begin(), anc_[p].end());
    std::sort(anc.begin(), anc.end());
    anc.erase(std::unique(anc.begin(), anc.end()), anc.end());
    anc_.push_back(std::move(anc));
    parents_.push_back(parents);
    roots_.push_back(parents.empty());
    if (instance) instances_.push_back(id);
    return id;
  }

  /// a is subsumed by b (a == b counts).
  bool Below(int a, int b) const {
    return std::binary_search(anc_[a].begin(), anc_[a].end(), b);
  }
  const std::vector<int>& Ancestors(int id) const { return anc_[id]; }
  const std::vector<int>& Parents(int id) const { return parents_[id]; }
  const std::string& NameOf(int id) const { return names_[id]; }
  bool IsInstance(int id) const { return instance_[id]; }
  bool IsTopLevel(int id) const { return roots_[id]; }
  int Find(std::string_view name) const {
    auto it = ids_.find(std::string(name));
    return it == ids_.end() ? -1 : it->second;
  }
  size_t size() const { return names_.size(); }
  const std::vector<int>& instances() const { return instances_; }

  /// Instances subsumed by `node`, in creation order.
  std::vector<int> InstancesUnder(int node) const {
    std::vector<int> out;
    for (int i : instances_) {
      if (Below(i, node)) out.push_back(i);
    }
    return out;
  }

 private:
  std::string name_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, int> ids_;
  std::vector<bool> instance_;
  std::vector<bool> roots_;
  std::vector<std::vector<int>> anc_;
  std::vector<std::vector<int>> parents_;
  std::vector<int> instances_;
};

/// An item: one node per attribute.
using Key = std::vector<int>;

enum class Truth : int8_t { kFalse = 0, kTrue = 1, kConflict = 2 };

/// A set of signed tuples over fixed hierarchies (a relation, or a parsed
/// query result).
class Tuples {
 public:
  explicit Tuples(std::vector<const Hier*> hiers) : hiers_(std::move(hiers)) {}

  const std::vector<const Hier*>& hiers() const { return hiers_; }
  size_t size() const { return map_.size(); }
  const std::map<Key, bool>& map() const { return map_; }

  bool Has(const Key& k) const { return map_.count(k) != 0; }
  const bool* Find(const Key& k) const {
    auto it = map_.find(k);
    return it == map_.end() ? nullptr : &it->second;
  }
  void Set(const Key& k, bool positive) { map_[k] = positive; }
  void Erase(const Key& k) { map_.erase(k); }

  /// a is subsumed by b componentwise.
  bool KeyBelow(const Key& a, const Key& b) const {
    for (size_t i = 0; i < a.size(); ++i) {
      if (!hiers_[i]->Below(a[i], b[i])) return false;
    }
    return true;
  }

  /// The most specific tuples strictly above `item` (its immediate
  /// predecessors in the tuple-binding graph).
  std::vector<std::pair<Key, bool>> Predecessors(const Key& item) const {
    std::vector<std::pair<Key, bool>> applicable;
    Key probe(item.size());
    Enumerate(item, 0, probe, applicable);
    std::vector<std::pair<Key, bool>> minimal;
    for (size_t i = 0; i < applicable.size(); ++i) {
      bool dominated = false;
      for (size_t j = 0; j < applicable.size() && !dominated; ++j) {
        dominated = j != i && KeyBelow(applicable[j].first, applicable[i].first);
      }
      if (!dominated) minimal.push_back(applicable[i]);
    }
    return minimal;
  }

  /// Strongest-binding truth of `item` (closed world: no binder = false).
  Truth Eval(const Key& item) const {
    if (const bool* own = Find(item)) return *own ? Truth::kTrue : Truth::kFalse;
    auto preds = Predecessors(item);
    if (preds.empty()) return Truth::kFalse;
    for (const auto& p : preds) {
      if (p.second != preds.front().second) return Truth::kConflict;
    }
    return preds.front().second ? Truth::kTrue : Truth::kFalse;
  }

  /// Simulates CONSOLIDATE (Section 3.3.1): a tuple is redundant when its
  /// immediate predecessors all carry its truth value, or when it is
  /// negative with no predecessor. Removing a redundant tuple never makes
  /// another one necessary, so removal to a fixpoint is order-free.
  size_t Consolidate() {
    size_t removed = 0;
    for (;;) {
      std::vector<Key> redundant;
      for (const auto& [key, positive] : map_) {
        auto preds = Predecessors(key);
        bool same = !preds.empty();
        for (const auto& p : preds) same = same && p.second == positive;
        if (same || (preds.empty() && !positive)) redundant.push_back(key);
      }
      if (redundant.empty()) return removed;
      for (const Key& k : redundant) map_.erase(k);
      removed += redundant.size();
    }
  }

 private:
  void Enumerate(const Key& item, size_t attr, Key& probe,
                 std::vector<std::pair<Key, bool>>& out) const {
    if (attr == item.size()) {
      if (probe == item) return;
      if (const bool* sign = Find(probe)) out.emplace_back(probe, *sign);
      return;
    }
    for (int a : hiers_[attr]->Ancestors(item[attr])) {
      probe[attr] = a;
      Enumerate(item, attr + 1, probe, out);
    }
  }

  std::vector<const Hier*> hiers_;
  std::map<Key, bool> map_;
};

/// What a statement's output must show. Filled by the workload generator
/// from the model, checked against the engine's rendered output.
struct Expect {
  enum class Kind {
    kOk,           // any successful output
    kCount,        // "count(r) = N"
    kCountBy,      // "count(r) by a:" + "  class: N" lines
    kRelation,     // a rendered relation; `items` must hold exactly as
                   // `truths` says when evaluated over the rendered tuples
    kExplain,      // "item (...): +|-"
    kConsolidate,  // "removed N redundant tuple(s)"
    kDerive,       // "derived N fact(s)"
  };
  Kind kind = Kind::kOk;
  int64_t number = 0;
  std::vector<const Hier*> hiers;  // kRelation: result schema
  std::vector<Key> items;          // kRelation: atomic items to evaluate
  std::vector<bool> truths;        // kRelation: expected truth per item
  bool truth = false;              // kExplain
  const Hier* by = nullptr;        // kCountBy: the grouped hierarchy
  std::vector<std::pair<int, int64_t>> groups;  // kCountBy: (class, count)
};

/// Checks `output` against `expect`; on mismatch returns false and
/// describes it in `why`.
bool CheckOutput(const Expect& expect, std::string_view output,
                 std::string* why);

}  // namespace hqlbench

#endif  // HQLBENCH_ORACLE_H_
