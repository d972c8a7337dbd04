#include "io/text_dump.h"

#include <algorithm>

#include "common/str_util.h"
#include "obs/json.h"

namespace hirel {

namespace {

void FormatNode(const Hierarchy& hierarchy, NodeId node, int depth,
                std::vector<bool>& seen, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  if (hierarchy.is_instance(node)) {
    out->append(StrCat("* ", hierarchy.NodeName(node)));
  } else {
    out->append(hierarchy.NodeName(node));
  }
  if (seen[node]) {
    out->append(" ^\n");
    return;
  }
  seen[node] = true;
  out->push_back('\n');
  std::vector<NodeId> children = hierarchy.Children(node);
  std::sort(children.begin(), children.end());
  for (NodeId child : children) {
    FormatNode(hierarchy, child, depth + 1, seen, out);
  }
}

/// Left-justified cell padding.
std::string Pad(const std::string& s, size_t width) {
  std::string out = s;
  if (out.size() < width) out.append(width - out.size(), ' ');
  return out;
}

std::string FormatTable(const std::string& title,
                        const std::vector<std::string>& header,
                        const std::vector<std::vector<std::string>>& rows) {
  std::vector<size_t> widths(header.size());
  for (size_t c = 0; c < header.size(); ++c) widths[c] = header[c].size();
  for (const auto& row : rows) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::string out = title.empty() ? "" : StrCat(title, "\n");
  auto emit_row = [&](const std::vector<std::string>& row) {
    out += "|";
    for (size_t c = 0; c < row.size(); ++c) {
      out += StrCat(" ", Pad(row[c], widths[c]), " |");
    }
    out += "\n";
  };
  auto emit_rule = [&]() {
    out += "+";
    for (size_t c = 0; c < widths.size(); ++c) {
      out.append(widths[c] + 2, '-');
      out += "+";
    }
    out += "\n";
  };
  emit_rule();
  emit_row(header);
  emit_rule();
  for (const auto& row : rows) emit_row(row);
  emit_rule();
  return out;
}

/// One tuple rendered for display: the truth cell, then one cell per
/// attribute, plus the payload of every Int-valued instance cell (`ints`
/// stays empty for a row without one, so text-only relations pay nothing
/// extra).
struct DisplayRow {
  std::vector<std::string> cells;
  std::vector<const Value*> ints;  // per attribute; null = not an Int

  const Value* IntAt(size_t attr) const {
    return ints.empty() ? nullptr : ints[attr];
  }
};

/// Display order, cell by cell: Int-valued instances compare numerically
/// and sort before every other cell; all other cells compare as text.
bool DisplayLess(const DisplayRow& a, const DisplayRow& b) {
  for (size_t c = 0; c < a.cells.size(); ++c) {
    const Value* x = c > 0 ? a.IntAt(c - 1) : nullptr;
    const Value* y = c > 0 ? b.IntAt(c - 1) : nullptr;
    if (x != nullptr || y != nullptr) {
      if (x == nullptr || y == nullptr) return x != nullptr;
      if (x->AsInt() != y->AsInt()) return x->AsInt() < y->AsInt();
      continue;
    }
    int cmp = a.cells[c].compare(b.cells[c]);
    if (cmp != 0) return cmp < 0;
  }
  return false;
}

/// Every tuple of `relation` rendered and sorted into display order; class
/// values render as "ALL <name>".
std::vector<DisplayRow> DisplayRows(const HierarchicalRelation& relation) {
  const Schema& schema = relation.schema();
  std::vector<DisplayRow> rows;
  rows.reserve(relation.size());
  for (TupleId id : relation.TupleIds()) {
    TupleView t = relation.tuple(id);
    DisplayRow row;
    row.cells.reserve(schema.size() + 1);
    row.cells.push_back(TruthToString(t.truth));
    for (size_t i = 0; i < schema.size(); ++i) {
      const Hierarchy* h = schema.hierarchy(i);
      NodeId node = t.item[i];
      if (h->is_class(node)) {
        row.cells.push_back(StrCat("ALL ", h->NodeName(node)));
        continue;
      }
      row.cells.push_back(h->NodeName(node));
      const Value& value = h->InstanceValue(node);
      if (!value.is_int()) continue;
      if (row.ints.empty()) row.ints.resize(schema.size(), nullptr);
      row.ints[i] = &value;
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), DisplayLess);
  return rows;
}

}  // namespace

std::string FormatHierarchy(const Hierarchy& hierarchy) {
  std::string out = StrCat("hierarchy ", hierarchy.name(), " (",
                           hierarchy.num_classes(), " classes, ",
                           hierarchy.num_instances(), " instances)\n");
  std::vector<bool> seen(hierarchy.dag().capacity(), false);
  FormatNode(hierarchy, hierarchy.root(), 1, seen, &out);
  return out;
}

std::string FormatHierarchyDot(const Hierarchy& hierarchy) {
  auto quoted = [](const std::string& name) {
    std::string out = "\"";
    for (char c : name) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += "\"";
    return out;
  };
  std::string out =
      StrCat("digraph ", quoted(hierarchy.name()), " {\n  rankdir=TB;\n");
  for (NodeId n : hierarchy.Nodes()) {
    out += StrCat("  n", n, " [label=", quoted(hierarchy.NodeName(n)),
                  hierarchy.is_class(n) ? " shape=box" : " shape=ellipse",
                  "];\n");
  }
  for (NodeId n : hierarchy.Nodes()) {
    for (NodeId child : hierarchy.Children(n)) {
      out += StrCat("  n", n, " -> n", child, ";\n");
    }
    for (NodeId stronger : hierarchy.PreferenceSuccessors(n)) {
      out += StrCat("  n", n, " -> n", stronger,
                    " [style=dashed label=\"prefers\"];\n");
    }
  }
  out += "}\n";
  return out;
}

std::string FormatRelation(const HierarchicalRelation& relation) {
  const Schema& schema = relation.schema();
  std::vector<std::string> header{""};
  for (size_t i = 0; i < schema.size(); ++i) header.push_back(schema.name(i));
  std::vector<DisplayRow> rows = DisplayRows(relation);
  std::vector<std::vector<std::string>> cells;
  cells.reserve(rows.size());
  for (DisplayRow& row : rows) cells.push_back(std::move(row.cells));
  return FormatTable(StrCat(relation.name(), " (", relation.size(),
                            " tuples)"),
                     header, cells);
}

std::string FormatRelationJson(const HierarchicalRelation& relation) {
  const Schema& schema = relation.schema();
  std::string out = "[";
  bool first_row = true;
  for (const DisplayRow& row : DisplayRows(relation)) {
    out += first_row ? "{" : ",{";
    first_row = false;
    for (size_t i = 0; i < schema.size(); ++i) {
      if (i > 0) out += ",";
      obs::AppendJsonString(out, schema.name(i));
      out += ":";
      if (const Value* v = row.IntAt(i)) {
        out += StrCat(v->AsInt());
      } else {
        obs::AppendJsonString(out, row.cells[i + 1]);
      }
    }
    out += "}";
  }
  out += "]";
  return out;
}

std::string FormatFlatRelation(const FlatRelation& relation) {
  const Schema& schema = relation.schema();
  std::vector<std::string> header;
  for (size_t i = 0; i < schema.size(); ++i) header.push_back(schema.name(i));
  std::vector<std::vector<std::string>> rows;
  for (const Item& item : relation.Rows()) {
    std::vector<std::string> row;
    for (size_t i = 0; i < schema.size(); ++i) {
      row.push_back(schema.hierarchy(i)->NodeName(item[i]));
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return FormatTable(StrCat(relation.name(), " (", relation.size(), " rows)"),
                     header, rows);
}

std::string FormatExtension(const Schema& schema,
                            const std::vector<Item>& extension,
                            const std::string& title) {
  std::vector<std::string> header;
  for (size_t i = 0; i < schema.size(); ++i) header.push_back(schema.name(i));
  std::vector<std::vector<std::string>> rows;
  for (const Item& item : extension) {
    std::vector<std::string> row;
    for (size_t i = 0; i < schema.size(); ++i) {
      row.push_back(schema.hierarchy(i)->NodeName(item[i]));
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return FormatTable(title, header, rows);
}

}  // namespace hirel
