#include "probes.h"

#include <chrono>
#include <iostream>
#include <utility>

#include "algebra/join.h"
#include "algebra/select.h"
#include "algebra/setops.h"
#include "core/conflict.h"

namespace hqlbench {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t Since(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

const hirel::HierarchicalRelation* Find(Executor& exec,
                                        const std::string& rel) {
  auto r = std::as_const(exec.database()).GetRelation(rel);
  if (!r.ok()) {
    std::cerr << "probe: " << r.status() << "\n";
    return nullptr;
  }
  return *r;
}

uint64_t Report(const hirel::Status& status, uint64_t ns) {
  if (status.ok()) return ns;
  std::cerr << "probe: " << status << "\n";
  return 0;
}

}  // namespace

uint64_t ProbeSelect(Executor& exec, const std::string& rel,
                     const std::string& attr, const std::string& node) {
  const hirel::HierarchicalRelation* r = Find(exec, rel);
  if (r == nullptr) return 0;
  auto start = Clock::now();
  auto out = hirel::SelectEquals(*r, attr, node, exec.options());
  return Report(out.status(), Since(start));
}

uint64_t ProbeJoin(Executor& exec, const std::string& left,
                   const std::string& right, const std::string& attr,
                   const std::string& node) {
  const hirel::HierarchicalRelation* l = Find(exec, left);
  const hirel::HierarchicalRelation* r = Find(exec, right);
  if (l == nullptr || r == nullptr) return 0;
  auto ls = hirel::SelectEquals(*l, attr, node, exec.options());
  auto rs = hirel::SelectEquals(*r, attr, node, exec.options());
  if (!ls.ok() || !rs.ok()) return Report(ls.ok() ? rs.status() : ls.status(), 0);
  hirel::JoinOptions options;
  options.inference = exec.options();
  auto start = Clock::now();
  auto out = hirel::NaturalJoin(*ls, *rs, options);
  return Report(out.status(), Since(start));
}

uint64_t ProbeSetOp(Executor& exec, const std::string& left,
                    const std::string& right, const std::string& attr,
                    const std::string& node, bool intersect) {
  const hirel::HierarchicalRelation* l = Find(exec, left);
  const hirel::HierarchicalRelation* r = Find(exec, right);
  if (l == nullptr || r == nullptr) return 0;
  auto ls = hirel::SelectEquals(*l, attr, node, exec.options());
  auto rs = hirel::SelectEquals(*r, attr, node, exec.options());
  if (!ls.ok() || !rs.ok()) return Report(ls.ok() ? rs.status() : ls.status(), 0);
  hirel::SetOpOptions options;
  options.inference = exec.options();
  auto start = Clock::now();
  auto out = intersect ? hirel::Intersect(*ls, *rs, options)
                       : hirel::Difference(*ls, *rs, options);
  return Report(out.status(), Since(start));
}

uint64_t ProbeCheck(Executor& exec, const std::string& rel) {
  const hirel::HierarchicalRelation* r = Find(exec, rel);
  if (r == nullptr) return 0;
  auto start = Clock::now();
  hirel::Status status = hirel::CheckAmbiguity(*r, exec.options());
  return Report(status, Since(start));
}

uint64_t ProbeCacheGet(Executor& exec, const std::string& rel) {
  const hirel::HierarchicalRelation* r = Find(exec, rel);
  if (r == nullptr) return 0;
  auto start = Clock::now();
  exec.database().subsumption_cache().Get(*r, exec.options().threads);
  return Since(start);
}

uint64_t ProbeSubsuming(Executor& exec, const std::string& rel,
                        const std::string& node) {
  const hirel::HierarchicalRelation* r = Find(exec, rel);
  if (r == nullptr) return 0;
  auto id = r->schema().hierarchy(0)->FindByName(node);
  if (!id.ok()) return Report(id.status(), 0);
  hirel::Item item = {*id};
  auto start = Clock::now();
  std::vector<hirel::TupleId> ids = r->TuplesSubsuming(item);
  uint64_t ns = Since(start);
  return ids.size() > r->size() ? 0 : ns;
}

double ProbeScanNsPerTuple(Executor& exec, const std::string& rel) {
  const hirel::HierarchicalRelation* r = Find(exec, rel);
  if (r == nullptr || r->size() == 0) return 0;
  auto start = Clock::now();
  size_t positive = 0;
  for (hirel::TupleId id : r->TupleIds()) {
    positive += r->TruthOf(id) == hirel::Truth::kPositive;
  }
  uint64_t ns = Since(start);
  return positive > r->size() ? 0 : static_cast<double>(ns) / r->size();
}

void StoreFootprint(Executor& exec, const std::vector<std::string>& rels,
                    uint64_t* bytes, uint64_t* tuples) {
  *bytes = 0;
  *tuples = 0;
  for (const std::string& name : rels) {
    const hirel::HierarchicalRelation* r = Find(exec, name);
    if (r == nullptr) continue;
    *bytes += r->ApproxBytes();
    *tuples += r->size();
  }
}

bool InsertUnguarded(Executor& exec, const std::string& rel,
                     const std::vector<std::string>& item, bool positive) {
  auto r = exec.database().GetRelation(rel);
  if (!r.ok()) return Report(r.status(), 0) != 0;
  hirel::HierarchicalRelation* relation = *r;
  if (item.size() != relation->schema().size()) return false;
  hirel::Item ids;
  for (size_t attr = 0; attr < item.size(); ++attr) {
    auto id = relation->schema().hierarchy(attr)->FindByName(item[attr]);
    if (!id.ok()) return Report(id.status(), 0) != 0;
    ids.push_back(*id);
  }
  auto inserted = relation->Insert(
      std::move(ids), positive ? hirel::Truth::kPositive : hirel::Truth::kNegative);
  return Report(inserted.status(), 1) != 0;
}

CacheCounters ReadCacheCounters(const Executor& exec) {
  hirel::SubsumptionCache::Stats s =
      exec.database().subsumption_cache().stats();
  return CacheCounters{s.hits, s.misses, s.patches, s.rebuilds,
                       s.journal_overflows};
}

}  // namespace hqlbench
