#include "algebra/project.h"

#include <unordered_set>

#include "algebra/derivation.h"
#include "common/str_util.h"
#include "core/inference.h"

namespace hirel {

namespace {

/// True iff some atomic completion of the removed attributes makes the
/// (possibly class-valued) kept item `kept` true in `relation`.
Result<bool> HasWitness(const HierarchicalRelation& relation,
                        const std::vector<size_t>& keep,
                        const std::vector<size_t>& removed, const Item& kept,
                        const ProjectOptions& options) {
  const Schema& schema = relation.schema();

  // Witnesses can only be true under some positive tuple that applies to
  // the kept components, so probe the removed-attribute coverage of those
  // tuples only.
  std::unordered_set<Item, ItemHash> probed;
  size_t probes = 0;
  for (TupleId id : relation.TupleIds()) {
    TupleView t = relation.tuple(id);
    if (t.truth != Truth::kPositive) continue;
    bool applies = true;
    for (size_t k = 0; k < keep.size(); ++k) {
      if (!schema.hierarchy(keep[k])->Subsumes(t.item[keep[k]], kept[k])) {
        applies = false;
        break;
      }
    }
    if (!applies) continue;

    // Enumerate atoms under the tuple's removed components.
    std::vector<std::vector<NodeId>> choices(removed.size());
    bool empty = false;
    for (size_t r = 0; r < removed.size(); ++r) {
      const Hierarchy* h = schema.hierarchy(removed[r]);
      NodeId component = t.item[removed[r]];
      choices[r] =
          h->is_class(component) ? h->AtomsUnder(component)
                                 : std::vector<NodeId>{component};
      if (choices[r].empty()) {
        empty = true;
        break;
      }
    }
    if (empty) continue;

    Item full(schema.size());
    for (size_t k = 0; k < keep.size(); ++k) full[keep[k]] = kept[k];
    std::vector<size_t> idx(removed.size(), 0);
    while (true) {
      for (size_t r = 0; r < removed.size(); ++r) {
        full[removed[r]] = choices[r][idx[r]];
      }
      Item witness(removed.size());
      for (size_t r = 0; r < removed.size(); ++r) witness[r] = full[removed[r]];
      if (probed.insert(witness).second) {
        if (++probes > options.max_witness_probes) {
          return Status::ResourceExhausted(
              StrCat("projection witness search for ", probes,
                     " probes exceeded the cap; raise "
                     "ProjectOptions::max_witness_probes"));
        }
        HIREL_ASSIGN_OR_RETURN(Truth truth,
                               InferTruth(relation, full, options.inference));
        if (truth == Truth::kPositive) return true;
      }
      size_t k = removed.size();
      bool done = removed.empty();
      while (k > 0) {
        --k;
        if (++idx[k] < choices[k].size()) break;
        idx[k] = 0;
        if (k == 0) done = true;
      }
      if (done) break;
    }
  }
  return false;
}

}  // namespace

Result<HierarchicalRelation> Project(const HierarchicalRelation& relation,
                                     const std::vector<size_t>& keep,
                                     const ProjectOptions& options) {
  const Schema& schema = relation.schema();
  std::vector<bool> kept_mask(schema.size(), false);
  Schema result_schema;
  for (size_t p : keep) {
    if (p >= schema.size()) {
      return Status::InvalidArgument(
          StrCat("project: attribute position ", p, " out of range"));
    }
    if (kept_mask[p]) {
      return Status::InvalidArgument(
          StrCat("project: duplicate attribute position ", p));
    }
    kept_mask[p] = true;
    HIREL_RETURN_IF_ERROR(
        result_schema.Append(schema.name(p), schema.hierarchy(p)));
  }
  std::vector<size_t> removed;
  for (size_t i = 0; i < schema.size(); ++i) {
    if (!kept_mask[i]) removed.push_back(i);
  }

  // Candidates: every tuple's kept projection.
  std::vector<Item> candidates;
  for (TupleId id : relation.TupleIds()) {
    TupleView t = relation.tuple(id);
    Item projected(keep.size());
    for (size_t k = 0; k < keep.size(); ++k) projected[k] = t.item[keep[k]];
    candidates.push_back(std::move(projected));
  }

  return DeriveRelation(
      StrCat(relation.name(), "_project"), result_schema,
      std::move(candidates),
      [&](const Item& item) -> Result<Truth> {
        HIREL_ASSIGN_OR_RETURN(
            bool witnessed, HasWitness(relation, keep, removed, item, options));
        return witnessed ? Truth::kPositive : Truth::kNegative;
      },
      options.max_items);
}

Result<HierarchicalRelation> Project(const HierarchicalRelation& relation,
                                     const std::vector<std::string>& keep,
                                     const ProjectOptions& options) {
  std::vector<size_t> positions;
  positions.reserve(keep.size());
  for (const std::string& name : keep) {
    HIREL_ASSIGN_OR_RETURN(size_t p, relation.schema().IndexOf(name));
    positions.push_back(p);
  }
  return Project(relation, positions, options);
}

}  // namespace hirel
