// Item: one member (class or instance) from each attribute domain.
//
// "An item is now obtained as one member (class or element) from each of
// D1, D2, etc. ... Thus an item is a subset of D*, the domain of the
// relation obtained as the cartesian product of the attribute domains."
// (Section 2.2.) The item hierarchy is the product of the per-attribute
// hierarchy graphs; hirel never materialises that product — subsumption in
// it is exactly component-wise subsumption, which the helpers below expose.

#ifndef HIREL_TYPES_ITEM_H_
#define HIREL_TYPES_ITEM_H_

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "graph/dag.h"
#include "types/schema.h"

namespace hirel {

/// One hierarchy node per attribute, positionally aligned with the Schema.
/// The owning form, for results and journal records.
using Item = std::vector<NodeId>;

/// A read-only view of an item's components held elsewhere: a tuple's slot
/// in its relation's arena, or an Item (which converts implicitly). Views
/// compare component-wise, with each other and with Items.
class ItemView : public std::span<const NodeId> {
 public:
  using std::span<const NodeId>::span;

  /// A view of a braced list, as in `relation.FindItem({a, b})`. The list
  /// dies with the full expression, so the view must not outlive it.
  ItemView(std::initializer_list<NodeId> list)
      : std::span<const NodeId>(list.begin(), list.size()) {}

  /// An owning copy.
  Item ToItem() const { return Item(begin(), end()); }

  friend bool operator==(ItemView a, ItemView b) {
    return std::ranges::equal(a, b);
  }
};

/// Truth value of a tuple: true for a positive (normal) tuple, false for a
/// negated tuple (Section 2.1).
enum class Truth : uint8_t {
  kNegative = 0,
  kPositive = 1,
};

/// "+" / "-", the notation used in the paper's figures.
inline const char* TruthToString(Truth t) {
  return t == Truth::kPositive ? "+" : "-";
}

inline Truth Negate(Truth t) {
  return t == Truth::kPositive ? Truth::kNegative : Truth::kPositive;
}

/// True iff `a` subsumes `b` in the item hierarchy: component-wise
/// subsumption in every attribute's hierarchy. Reflexive.
bool ItemSubsumes(const Schema& schema, ItemView a, ItemView b);

/// True iff `a` subsumes `b` and the items differ.
bool ItemStrictlySubsumes(const Schema& schema, ItemView a, ItemView b);

/// True iff one item subsumes the other.
bool ItemComparable(const Schema& schema, ItemView a, ItemView b);

/// Like ItemSubsumes but honouring preference edges (Appendix): used when
/// ordering binding strength, never for set semantics.
bool ItemBindsBelow(const Schema& schema, ItemView a, ItemView b);

/// Component-wise meet of two comparable-per-component items; empty vector
/// if some component pair is incomparable.
Item ItemMeet(const Schema& schema, ItemView a, ItemView b);

/// True iff every component is an instance node: the item denotes a single
/// element of D*.
bool ItemIsAtomic(const Schema& schema, ItemView item);

/// Number of atomic items subsumed by `item` (the size of its extension).
size_t ItemExtensionSize(const Schema& schema, ItemView item);

/// The maximal common subsumees of items a and b in the (virtual) product
/// graph: all combinations of per-attribute maximal common descendants.
/// Empty means hirel has no evidence the two items intersect — the paper's
/// optimistic disjointness assumption.
std::vector<Item> ItemMaximalCommonDescendants(const Schema& schema,
                                               ItemView a, ItemView b);

/// True when some attribute's components pass Hierarchy::LeafDisjoint, which
/// proves ItemMaximalCommonDescendants(a, b) empty without computing it.
/// Allocation-free; false proves nothing.
bool ItemLeafDisjoint(const Schema& schema, ItemView a, ItemView b);

/// Closes `items` under pairwise maximal common descendants, deduplicating;
/// the order of the result is unspecified. A set of asserted items closed
/// under MCDs cannot harbour an off-path conflict at an unasserted site (see
/// conflict.h); the derived relations produced by the algebra operators use
/// this to stay consistent. Fails with kResourceExhausted when the closure
/// must add an item and the closed set would exceed `max_items`.
///
/// Only pairs that can share an MCD are visited. An item MCD is the product
/// of per-attribute MCDs, so it needs the two items to overlap in every
/// attribute; incomparable nodes overlap only below a join node
/// (Hierarchy::IsJoinNode). With one attribute, a set with no join node
/// below any item is already closed, as in any tree.
Status CloseUnderMaximalCommonDescendants(const Schema& schema,
                                          std::vector<Item>& items,
                                          size_t max_items = 100'000);

/// "(bird, 3000)"-style rendering using node display names.
std::string ItemToString(const Schema& schema, ItemView item);

/// Hash functor for unordered containers keyed by Item.
struct ItemHash {
  size_t operator()(ItemView item) const {
    size_t h = 0xcbf29ce484222325ULL;
    for (NodeId n : item) {
      h ^= n;
      h *= 0x100000001b3ULL;
    }
    return h;
  }
};

}  // namespace hirel

#endif  // HIREL_TYPES_ITEM_H_
