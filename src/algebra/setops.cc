#include "algebra/setops.h"

#include <functional>
#include <iterator>

#include "algebra/derivation.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "core/inference.h"

namespace hirel {

namespace {

Result<HierarchicalRelation> SetOp(
    const HierarchicalRelation& left, const HierarchicalRelation& right,
    const char* op_name, const std::function<bool(bool, bool)>& combine,
    const SetOpOptions& options) {
  if (!left.schema().CompatibleWith(right.schema())) {
    return Status::InvalidArgument(
        StrCat("set operation '", op_name, "': schemas of '", left.name(),
               "' and '", right.name(), "' are not domain-compatible"));
  }
  const Schema& schema = left.schema();

  // Chunk-parallel collection of each relation's items; per-chunk vectors
  // are concatenated in chunk order, matching the serial ascending-id scan
  // at any thread count.
  auto collect = [&](const HierarchicalRelation& rel,
                     std::vector<Item>& out) -> Status {
    std::vector<std::vector<Item>> per_chunk(rel.num_chunks());
    ParallelOptions par;
    par.threads = options.inference.threads;
    HIREL_RETURN_IF_ERROR(ParallelFor(
        per_chunk.size(), par,
        [&](size_t /*chunk*/, size_t lo, size_t hi) -> Status {
          for (size_t c = lo; c < hi; ++c) {
            rel.ForEachLiveInChunk(c, [&](TupleId id) {
              per_chunk[c].push_back(rel.ItemAt(id).ToItem());
            });
          }
          return Status::OK();
        }));
    for (std::vector<Item>& chunk : per_chunk) {
      out.insert(out.end(), std::make_move_iterator(chunk.begin()),
                 std::make_move_iterator(chunk.end()));
    }
    return Status::OK();
  };
  std::vector<Item> candidates;
  HIREL_RETURN_IF_ERROR(collect(left, candidates));
  HIREL_RETURN_IF_ERROR(collect(right, candidates));
  // Cross MCDs: where overlapping-but-incomparable classes from the two
  // relations meet, the combined truth can differ from either default (e.g.
  // an intersection is true only inside the overlap).
  size_t left_count = left.size();
  size_t initial = candidates.size();
  for (size_t i = 0; i < left_count; ++i) {
    for (size_t j = left_count; j < initial; ++j) {
      if (ItemComparable(schema, candidates[i], candidates[j])) continue;
      if (!ItemLeafDisjoint(schema, candidates[i], candidates[j])) {
        // Copy: ItemMaximalCommonDescendants must not hold references into
        // the vector we are appending to.
        Item a = candidates[i];
        Item b = candidates[j];
        for (Item& mcd : ItemMaximalCommonDescendants(schema, a, b)) {
          candidates.push_back(std::move(mcd));
        }
      }
      if (candidates.size() > options.max_items) {
        return Status::ResourceExhausted(
            StrCat("set operation '", op_name, "' exceeds ",
                   options.max_items, " candidate items"));
      }
    }
  }

  return DeriveRelation(
      StrCat(left.name(), "_", op_name, "_", right.name()), schema,
      std::move(candidates), options.inference,
      [&](const Item& item, const InferenceOptions& opts) -> Result<Truth> {
        HIREL_ASSIGN_OR_RETURN(Truth lt, InferTruth(left, item, opts));
        HIREL_ASSIGN_OR_RETURN(Truth rt, InferTruth(right, item, opts));
        return combine(lt == Truth::kPositive, rt == Truth::kPositive)
                   ? Truth::kPositive
                   : Truth::kNegative;
      },
      options.max_items);
}

}  // namespace

Result<HierarchicalRelation> Union(const HierarchicalRelation& left,
                                   const HierarchicalRelation& right,
                                   const SetOpOptions& options) {
  return SetOp(left, right, "union",
               [](bool l, bool r) { return l || r; }, options);
}

Result<HierarchicalRelation> Intersect(const HierarchicalRelation& left,
                                       const HierarchicalRelation& right,
                                       const SetOpOptions& options) {
  return SetOp(left, right, "intersect",
               [](bool l, bool r) { return l && r; }, options);
}

Result<HierarchicalRelation> Difference(const HierarchicalRelation& left,
                                        const HierarchicalRelation& right,
                                        const SetOpOptions& options) {
  return SetOp(left, right, "difference",
               [](bool l, bool r) { return l && !r; }, options);
}

}  // namespace hirel
