// Human-readable rendering of hierarchies and relations, in the style of
// the paper's figures. Used by the examples, the HQL shell, and the
// figure-reproduction binaries.

#ifndef HIREL_IO_TEXT_DUMP_H_
#define HIREL_IO_TEXT_DUMP_H_

#include <string>
#include <vector>

#include "core/hierarchical_relation.h"
#include "flat/flat_relation.h"
#include "hierarchy/hierarchy.h"

namespace hirel {

/// Indented tree/DAG rendering of a hierarchy; nodes with several parents
/// appear under each parent, marked with "^" after the first occurrence.
std::string FormatHierarchy(const Hierarchy& hierarchy);

/// ASCII table: a +/- truth column followed by one column per attribute;
/// class values are rendered as "ALL <name>" (the paper's "∀C"). Rows are
/// sorted cell by cell: Int-valued instances numerically (before any other
/// cell), everything else by its rendered text.
std::string FormatRelation(const HierarchicalRelation& relation);

/// The same rows as FormatRelation, in the same order, as one line of
/// JSON: an array of objects keyed by attribute name. Int-valued instances
/// render as JSON numbers, every other cell as its escaped text. The truth
/// column is not rendered, so this form is meant for all-positive
/// relations such as the sys.* catalog.
std::string FormatRelationJson(const HierarchicalRelation& relation);

/// ASCII table of a flat relation.
std::string FormatFlatRelation(const FlatRelation& relation);

/// ASCII table of an extension (list of atomic items).
std::string FormatExtension(const Schema& schema,
                            const std::vector<Item>& extension,
                            const std::string& title);

/// Graphviz DOT rendering of a hierarchy: classes as boxes, instances as
/// ellipses, subsumption edges solid, preference edges dashed. Pipe into
/// `dot -Tsvg` to draw Fig. 1a-style diagrams of your own taxonomies.
std::string FormatHierarchyDot(const Hierarchy& hierarchy);

}  // namespace hirel

#endif  // HIREL_IO_TEXT_DUMP_H_
