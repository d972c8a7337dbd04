#include "hql/printer.h"

namespace hirel {
namespace hql {

std::string HelpText() {
  return R"(HQL statements (';'-terminated, '--' starts a comment):

  schema
    CREATE HIERARCHY h;
    CREATE CLASS c IN h [UNDER p1, p2, ...];
    CREATE INSTANCE v IN h [UNDER p1, ...];      -- v: name, 'string', or number
    CONNECT parent TO child IN h;                -- extra subsumption edge
    PREFER stronger OVER weaker IN h;            -- preference edge (appendix)
    CREATE RELATION r (attr: h, ...);

  facts
    ASSERT r(term, ...);                         -- positive tuple
    DENY r(term, ...);                           -- negated tuple (exception)
    RETRACT r(term, ...);                        -- remove a tuple
      term := ALL class | name | 'string' | 42 | 3.5
    BEGIN r; ... COMMIT;                         -- stage facts, check once
    ABORT;                                       -- discard staged facts

  queries
    SELECT * FROM r [WHERE attr = term];
    SELECT * FROM r JOIN s [WHERE attr = term];  -- also UNION / INTERSECT / EXCEPT
    EXPLAIN PLAN query;                          -- optimized plan, no execution
    EXPLAIN ANALYZE query;                       -- plan + actual rows/time/probes
    EXPLAIN r(term, ...);                        -- justification (Fig. 9)
    EXTENSION r;                                 -- equivalent flat relation
    EXPLICATE r [ON (attr, ...)];
    CONSOLIDATE r;                               -- drop redundant tuples
    COUNT r [BY attr];                           -- extension statistics
    COMPRESS r;                                  -- re-encode minimally
    SET PREEMPTION offpath;                      -- or onpath / none
    SET INCREMENTAL on|off;                      -- journal-patched graphs, delta
                                                 -- consolidate, semi-naive DERIVE
    SHOW STORAGE [JSON];                         -- sys.relations + sys.columns

  rules (Datalog layer)
    RULE 'head(?x) :- body(?x), not other(?x).';
    DERIVE;                                      -- evaluate to fixpoint
    SHOW RULES;

  derived relations
    CREATE RELATION x AS a UNION b;              -- also INTERSECT / EXCEPT / JOIN
    CREATE RELATION x AS PROJECT r ON (attr, ...);

  catalog
    SHOW HIERARCHIES; SHOW RELATIONS;
    SHOW SUBSUMPTION r;                          -- Fig. 6a construction
    SHOW BINDING r(term, ...);                   -- Fig. 1d construction
    DROP CLASS c IN h; DROP INSTANCE v IN h;     -- node elimination
    SHOW HIERARCHY h; SHOW RELATION r;
    DROP HIERARCHY h; DROP RELATION r;
    SAVE 'path'; LOAD 'path';
    HELP;

  observability (SHOW x [JSON] renders sys.x; JSON = one line of row objects)
    SHOW METRICS [JSON | PROMETHEUS];            -- sys.metrics (or Prometheus text)
    SHOW QUERIES [JSON];                         -- sys.queries, oldest first
    SHOW TRACE [JSON];                           -- last query's span tree
    SHOW LOG [JSON];                             -- sys.log
    SET LOG debug|info|warn|error|off;           -- logger minimum level
    SET SLOW_QUERY_MS n;                         -- log statements >= n ms (OFF to disable)
    SET TELEMETRY ON|OFF|INTERVAL n|TICK;        -- background metric sampler (TICK = one sample now)
    SHOW TELEMETRY [JSON];                       -- sys.metrics_history
    CREATE ALERT a ON metric > n [FOR k SAMPLES] [SEVERITY info|warn|crit];
                                                 -- rule evaluated on every telemetry tick (> < >= <= =)
    DROP ALERT a;                                -- remove a user rule (watchdog rules refuse)
    SHOW ALERTS [JSON];                          -- sys.alerts
    SHOW HEALTH [JSON];                          -- sys.health
    SHOW WAITS [JSON];                           -- sys.waits
    SET WATCHDOG_QUERY_MS n;                     -- slow-query watchdog budget (OFF to disable)
    SET DIAGNOSTICS_DIR 'dir';                   -- auto-capture a bundle per alert fire (OFF to disable)
    EXPORT DIAGNOSTICS 'file.json';              -- one-shot bundle: the JSON rows of every sys.*
                                                 -- relation, plus capture time and cause
    EXPORT TRACE 'file.json';                    -- Chrome trace-event JSON (incl. wait spans)
    RESET METRICS;                               -- zero every metric and wait aggregate

  system catalog (read-only virtual relations; SELECT/JOIN like any other)
    sys.metrics    -- every counter/gauge/histogram; name is hierarchical,
                   -- so SELECT ... WHERE name = ALL cache covers the subtree
    sys.log        -- event-log ring; severity hierarchy debug>info>warn>error
    sys.relations  -- stored + virtual relations with kind, tuples and bytes
    sys.columns    -- per-column byte breakdown
    sys.cache      -- subsumption-cache entries with version stamps
    sys.queries    -- per-query accounting (ok, wall, wait, rows, probes, peak bytes)
    sys.waits      -- wait-event aggregates with p50/p90/p99; site hierarchy classed by
                   -- latch/lock/io, so WHERE site = ALL latch works
    sys.metrics_history -- the telemetry sampler's rings; name shares the
                   -- sys.metrics hierarchy, so WHERE name = ALL cache works
    sys.alerts     -- alert rules + state; severity chain info>warn>crit,
                   -- so WHERE severity = ALL warn covers warn and crit
    sys.health     -- one verdict per component (wal/cache/queries/telemetry)
                   -- plus an overall row, each naming its worst firing alert
    sys.session    -- session settings and telemetry sampler state (key, value)
)";
}

std::string Banner() {
  return
      "hirel shell — hierarchical relational model "
      "(Jagadish, SIGMOD 1989)\n"
      "type HELP; for the statement list, or Ctrl-D to exit.\n";
}

}  // namespace hql
}  // namespace hirel
