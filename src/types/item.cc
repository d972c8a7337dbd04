#include "types/item.h"

#include <cassert>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "hierarchy/hierarchy.h"

namespace hirel {

bool ItemSubsumes(const Schema& schema, ItemView a, ItemView b) {
  assert(a.size() == schema.size() && b.size() == schema.size());
  for (size_t i = 0; i < schema.size(); ++i) {
    if (!schema.hierarchy(i)->Subsumes(a[i], b[i])) return false;
  }
  return true;
}

bool ItemStrictlySubsumes(const Schema& schema, ItemView a, ItemView b) {
  return a != b && ItemSubsumes(schema, a, b);
}

bool ItemComparable(const Schema& schema, ItemView a, ItemView b) {
  return ItemSubsumes(schema, a, b) || ItemSubsumes(schema, b, a);
}

bool ItemBindsBelow(const Schema& schema, ItemView a, ItemView b) {
  assert(a.size() == schema.size() && b.size() == schema.size());
  for (size_t i = 0; i < schema.size(); ++i) {
    if (!schema.hierarchy(i)->BindsBelow(a[i], b[i])) return false;
  }
  return true;
}

Item ItemMeet(const Schema& schema, ItemView a, ItemView b) {
  assert(a.size() == schema.size() && b.size() == schema.size());
  Item meet(schema.size());
  for (size_t i = 0; i < schema.size(); ++i) {
    NodeId m = schema.hierarchy(i)->Meet(a[i], b[i]);
    if (m == kInvalidNode) return {};
    meet[i] = m;
  }
  return meet;
}

bool ItemIsAtomic(const Schema& schema, ItemView item) {
  assert(item.size() == schema.size());
  for (size_t i = 0; i < schema.size(); ++i) {
    if (!schema.hierarchy(i)->is_instance(item[i])) return false;
  }
  return true;
}

size_t ItemExtensionSize(const Schema& schema, ItemView item) {
  size_t size = 1;
  for (size_t i = 0; i < schema.size(); ++i) {
    size *= schema.hierarchy(i)->CountAtomsUnder(item[i]);
  }
  return size;
}

std::vector<Item> ItemMaximalCommonDescendants(const Schema& schema,
                                               ItemView a, ItemView b) {
  assert(a.size() == schema.size() && b.size() == schema.size());
  // Per-attribute candidate sets; an empty set anywhere means the items are
  // disjoint as far as the hierarchies know.
  std::vector<std::vector<NodeId>> per_attr(schema.size());
  for (size_t i = 0; i < schema.size(); ++i) {
    per_attr[i] = schema.hierarchy(i)->MaximalCommonDescendants(a[i], b[i]);
    if (per_attr[i].empty()) return {};
  }
  // Cartesian product of the per-attribute maximal descendants. Maximality
  // in the product graph is component-wise maximality.
  std::vector<Item> out;
  Item current(schema.size());
  // Iterative odometer over per_attr.
  std::vector<size_t> idx(schema.size(), 0);
  while (true) {
    for (size_t i = 0; i < schema.size(); ++i) current[i] = per_attr[i][idx[i]];
    out.push_back(current);
    size_t k = schema.size();
    while (k > 0) {
      --k;
      if (++idx[k] < per_attr[k].size()) break;
      idx[k] = 0;
      if (k == 0) return out;
    }
  }
}

namespace {

/// One attribute as the closure sees it: its hierarchy and the nodes with a
/// join node strictly below them.
struct AttributeJoins {
  const Hierarchy* h;
  std::shared_ptr<const DynamicBitset> ancestors;

  /// A join node lies strictly below n. Incomparable nodes overlap only
  /// when both pass.
  bool Above(NodeId n) const { return ancestors->Test(n); }
  /// n is a join node or lies above one.
  bool AtOrAbove(NodeId n) const { return Above(n) || h->IsJoinNode(n); }
};

/// False when x and y cannot have an MCD outside {x, y}: their components
/// are disjoint in some attribute, or one item subsumes the other (the MCD
/// is then that other item). Reachability queries only.
bool MayAddDescendant(const std::vector<AttributeJoins>& attrs, ItemView x,
                      ItemView y) {
  bool x_above = true;
  bool y_above = true;
  for (size_t i = 0; i < attrs.size(); ++i) {
    const bool xy = attrs[i].h->Subsumes(x[i], y[i]);
    const bool yx = attrs[i].h->Subsumes(y[i], x[i]);
    if (!xy && !yx && !(attrs[i].Above(x[i]) && attrs[i].Above(y[i]))) {
      return false;
    }
    x_above = x_above && xy;
    y_above = y_above && yx;
  }
  return !x_above && !y_above;
}

/// The nodes m such that an item at n and an item at m may overlap in this
/// attribute, found from n's side: n's ancestors (n included), and when n
/// is at or above a join node, the ancestors of every join node at or
/// below n. Two overlapping nodes are comparable, and the lower one finds
/// the upper, or they meet at a join node below both, and each finds the
/// other. `mark` is clear on entry and on return.
std::vector<NodeId> OverlapPartners(const AttributeJoins& attr, NodeId n,
                                    DynamicBitset& mark) {
  const Hierarchy& h = *attr.h;
  std::vector<NodeId> up{n};
  if (attr.AtOrAbove(n)) {
    // Descend only through nodes that still lead to a join node.
    std::vector<NodeId> down{n};
    mark.Set(n);
    for (size_t i = 0; i < down.size(); ++i) {
      for (NodeId c : h.Children(down[i])) {
        if (mark.Test(c) || !attr.AtOrAbove(c)) continue;
        mark.Set(c);
        down.push_back(c);
        if (h.IsJoinNode(c)) up.push_back(c);
      }
    }
    for (NodeId d : down) mark.Clear(d);
  }
  for (NodeId seed : up) mark.Set(seed);
  for (size_t i = 0; i < up.size(); ++i) {
    for (NodeId p : h.Parents(up[i])) {
      if (mark.Test(p)) continue;
      mark.Set(p);
      up.push_back(p);
    }
  }
  for (NodeId u : up) mark.Clear(u);
  return up;
}

/// The items sharing one node in the pivot attribute.
struct NodeGroup {
  std::vector<uint32_t> members;  // positions in the item vector, ascending
  std::vector<NodeId> partners;   // OverlapPartners of the node
};

}  // namespace

Status CloseUnderMaximalCommonDescendants(const Schema& schema,
                                          std::vector<Item>& items,
                                          size_t max_items) {
  // Deduplicate in place, keeping first occurrences. `seen` holds positions
  // and hashes the items they point at, so it keeps working as the vector
  // grows.
  auto hash = [&](uint32_t p) { return ItemHash()(items[p]); };
  auto equal = [&](uint32_t p, uint32_t q) { return items[p] == items[q]; };
  std::unordered_set<uint32_t, decltype(hash), decltype(equal)> seen(
      items.size(), hash, equal);
  size_t kept = 0;
  for (size_t p = 0; p < items.size(); ++p) {
    if (p != kept) items[kept] = std::move(items[p]);
    if (seen.insert(static_cast<uint32_t>(kept)).second) ++kept;
  }
  items.resize(kept);

  const size_t k = schema.size();
  if (k == 0 || items.size() < 2) return Status::OK();
  std::vector<AttributeJoins> attrs;
  for (size_t i = 0; i < k; ++i) {
    const Hierarchy* h = schema.hierarchy(i);
    attrs.push_back({h, h->JoinAncestors()});
  }
  // With one attribute every MCD of incomparable nodes is a join node below
  // both, so only items above a join node can pair.
  if (k == 1 && std::none_of(items.begin(), items.end(), [&](const Item& x) {
        return attrs[0].Above(x[0]);
      })) {
    return Status::OK();
  }

  // Pairs are found through one pivot attribute: the one with the most
  // distinct nodes, so the fewest items share a node.
  size_t d = 0;
  if (k > 1) {
    size_t most_distinct = 0;
    for (size_t i = 0; i < k; ++i) {
      std::unordered_set<NodeId> distinct;
      for (const Item& x : items) distinct.insert(x[i]);
      if (distinct.size() > most_distinct) {
        most_distinct = distinct.size();
        d = i;
      }
    }
  }
  const AttributeJoins& pivot = attrs[d];
  DynamicBitset mark(pivot.h->dag().capacity());
  std::unordered_map<NodeId, NodeGroup> groups;

  auto add_mcds = [&](uint32_t x, uint32_t y) -> Status {
    if (!MayAddDescendant(attrs, items[x], items[y])) return Status::OK();
    for (Item& mcd :
         ItemMaximalCommonDescendants(schema, items[x], items[y])) {
      items.push_back(std::move(mcd));
      if (!seen.insert(static_cast<uint32_t>(items.size() - 1)).second) {
        items.pop_back();
        continue;
      }
      if (items.size() > max_items) {
        return Status::ResourceExhausted(
            "maximal-common-descendant closure exceeds item cap");
      }
    }
    return Status::OK();
  };

  // Rounds: each pairs every item added by the previous round ([begin,
  // end)) with every item, until a round adds nothing.
  for (size_t begin = 0, end = 0; begin < items.size(); begin = end) {
    end = items.size();
    for (size_t p = begin; p < end; ++p) {
      const NodeId n = items[p][d];
      auto [it, fresh] = groups.try_emplace(n);
      // With one attribute a comparable pair adds nothing, so only nodes
      // above a join node look for partners.
      if (fresh && (k > 1 || pivot.Above(n))) {
        it->second.partners = OverlapPartners(pivot, n, mark);
      }
      it->second.members.push_back(static_cast<uint32_t>(p));
    }
    for (const auto& [a, ga] : groups) {
      // From a node at or above a join node, every partner finds it back:
      // take each such pair once, from the lower node id.
      const bool mutual = pivot.AtOrAbove(a);
      for (NodeId b : ga.partners) {
        if (b != a && mutual && b < a) continue;
        auto it = groups.find(b);
        if (it == groups.end()) continue;
        const std::vector<uint32_t>& gb = it->second.members;
        if (ga.members.back() < begin && gb.back() < begin) continue;
        for (uint32_t x : ga.members) {
          auto first = gb.begin();
          auto last = gb.end();
          if (a == b) {
            if (x < begin) continue;
            last = std::lower_bound(gb.begin(), gb.end(), x);
          } else if (x < begin) {
            first = std::lower_bound(gb.begin(), gb.end(), begin);
          }
          for (auto y = first; y != last; ++y) {
            HIREL_RETURN_IF_ERROR(add_mcds(x, *y));
          }
        }
      }
    }
  }
  return Status::OK();
}

std::string ItemToString(const Schema& schema, ItemView item) {
  std::string out = "(";
  for (size_t i = 0; i < item.size(); ++i) {
    if (i > 0) out += ", ";
    out += schema.hierarchy(i)->NodeName(item[i]);
  }
  out += ")";
  return out;
}

}  // namespace hirel
