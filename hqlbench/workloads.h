// Seeded HQL workload generators. Each workload emits a set-up script and
// then an endless closed-loop trace, one action at a time, and keeps the
// oracle model (oracle.h) in step with every statement it emits, so each
// statement carries the answer the engine must give. Output is a pure
// function of the seed (mt19937_64, no iteration over unordered
// containers). Every emitted statement is expected to succeed.

#ifndef HQLBENCH_WORKLOADS_H_
#define HQLBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "oracle.h"

namespace hqlbench {

/// Statement classes the benchmark reports latencies for.
enum class Cls {
  kRead,   // SELECT, COUNT, EXPLAIN, EXTENSION
  kWrite,  // guarded ASSERT / DENY / RETRACT outside a transaction
  kMaint,  // CONSOLIDATE, DERIVE, BEGIN ... COMMIT
  kEdit,   // hierarchy edits (CREATE INSTANCE)
  kOther,  // set-up DDL, LOAD
};

struct Stmt {
  std::string text;
  Cls cls = Cls::kOther;
  Expect expect;
  // ASSERT / DENY / RETRACT only: the relation written and the item, one
  // node name per attribute (what `text` spells out in HQL).
  std::string relation;
  std::vector<std::string> item;
};

/// One step of the trace. A maintenance group (BEGIN ... COMMIT + DERIVE)
/// counts as one maintenance sample: the sum of its kMaint statements.
struct Action {
  std::vector<Stmt> stmts;
  bool maint_group = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// The data-building script. For a snapshot workload it is run once in
  /// a separate process that then SAVEs the database; otherwise it is the
  /// timed set-up itself.
  virtual std::vector<Stmt> Build() = 0;

  /// True when the timed set-up is LOAD of a snapshot written by Build().
  virtual bool from_snapshot() const { return false; }

  /// Statements run at the end of set-up to finish lazy state (the first
  /// query that builds a subsumption graph).
  virtual std::vector<Stmt> Warm() = 0;

  /// The next trace action.
  virtual Action Next() = 0;

  /// Relations whose storage the benchmark reports.
  virtual std::vector<std::string> user_relations() const = 0;
};

/// "browse", "update" or "analytic"; null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(std::string_view name, uint64_t seed);

}  // namespace hqlbench

#endif  // HQLBENCH_WORKLOADS_H_
