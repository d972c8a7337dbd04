#include "types/item.h"

#include <cassert>
#include <unordered_set>

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

bool ItemLeafDisjoint(const Schema& schema, ItemView a, ItemView b) {
  assert(a.size() == schema.size() && b.size() == schema.size());
  for (size_t i = 0; i < schema.size(); ++i) {
    if (schema.hierarchy(i)->LeafDisjoint(a[i], b[i])) return true;
  }
  return false;
}

Status CloseUnderMaximalCommonDescendants(const Schema& schema,
                                          std::vector<Item>& items,
                                          size_t max_items) {
  std::unordered_set<Item, ItemHash> seen(items.begin(), items.end());
  items.assign(seen.begin(), seen.end());
  // Worklist closure: every new item must be paired against all others.
  for (size_t i = 0; i < items.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (ItemComparable(schema, items[i], items[j]) ||
          ItemLeafDisjoint(schema, items[i], items[j])) {
        continue;
      }
      for (Item& mcd :
           ItemMaximalCommonDescendants(schema, items[i], items[j])) {
        if (seen.insert(mcd).second) {
          if (items.size() >= max_items) {
            return Status::ResourceExhausted(
                "maximal-common-descendant closure exceeds item cap");
          }
          items.push_back(std::move(mcd));
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
