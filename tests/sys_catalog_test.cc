// System catalog: the sys.* virtual relations (metrics, log, relations,
// columns, cache, queries, session), subsumption-aware selection
// over the telemetry hierarchies, per-query resource accounting in the
// history ring, the read-only guards on the sys. namespace, and the
// contract that every introspection SHOW and EXPORT DIAGNOSTICS renders
// exactly these relations.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "catalog/database.h"
#include "hql/executor.h"
#include "io/text_dump.h"
#include "obs/query_stats.h"
#include "obs/sys_catalog.h"
#include "plan/execute.h"
#include "plan/planner.h"
#include "plan/rewrite.h"
#include "json_rows.h"

namespace hirel {
namespace {

constexpr const char* kFlyingScript = R"(
CREATE HIERARCHY animal;
CREATE CLASS bird IN animal;
CREATE CLASS penguin IN animal UNDER bird;
CREATE INSTANCE tweety IN animal UNDER bird;
CREATE INSTANCE paul IN animal UNDER penguin;
CREATE RELATION flies (who: animal);
ASSERT flies(ALL bird);
DENY flies(ALL penguin);
)";

/// The cells of one column of a FormatRelation table, top to bottom
/// (column 0 is the truth column).
std::vector<std::string> TableColumn(const std::string& table, size_t column) {
  std::vector<std::string> cells;
  std::istringstream lines(table);
  std::string line;
  bool header = true;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] != '|') continue;
    if (header) {  // the first '|' line names the columns
      header = false;
      continue;
    }
    size_t start = 0;
    for (size_t c = 0; c <= column; ++c) start = line.find('|', start) + 1;
    size_t end = line.find('|', start);
    std::string cell = line.substr(start, end - start);
    cell.erase(0, cell.find_first_not_of(' '));
    cell.erase(cell.find_last_not_of(' ') + 1);
    cells.push_back(cell);
  }
  return cells;
}

TEST(SysCatalogTest, ShowRelationsListsVirtualRelations) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  std::string out = exec.Execute("SHOW RELATIONS;").value();
  EXPECT_NE(out.find("flies"), std::string::npos);
  EXPECT_NE(out.find("sys.metrics (virtual)"), std::string::npos);
  EXPECT_NE(out.find("sys.queries (virtual)"), std::string::npos);
}

TEST(SysCatalogTest, SelectOverSysRelationsSeesStoredAndVirtual) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  std::string out = exec.Execute("SELECT * FROM sys.relations;").value();
  EXPECT_NE(out.find("flies"), std::string::npos);
  EXPECT_NE(out.find("sys.metrics"), std::string::npos);
  EXPECT_NE(out.find("virtual"), std::string::npos);
}

/// One storage engine: sys.relations tells stored from virtual relations
/// by `kind`, and no introspection relation carries a layout column.
TEST(SysCatalogTest, StorageColumnsHaveNoLayoutDimension) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  auto columns = [](const json_rows::Row& row) {
    std::set<std::string> names;
    for (const auto& [name, cell] : row.cells) names.insert(name);
    return names;
  };
  std::vector<json_rows::Row> relations =
      json_rows::SysRows(exec.database(), "sys.relations");
  const json_rows::Row* flies =
      json_rows::FindRow(relations, {{"relation", "flies"}});
  ASSERT_NE(flies, nullptr);
  EXPECT_EQ(flies->cells.at("kind"), "stored");
  EXPECT_EQ(columns(*flies), (std::set<std::string>{
                                 "relation", "kind", "tuples", "bytes"}));
  const json_rows::Row* metrics =
      json_rows::FindRow(relations, {{"relation", "sys.metrics"}});
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->cells.at("kind"), "virtual");

  std::vector<json_rows::Row> cols =
      json_rows::SysRows(exec.database(), "sys.columns");
  ASSERT_FALSE(cols.empty());
  EXPECT_EQ(columns(cols.front()),
            (std::set<std::string>{"relation", "column", "col_bytes"}));

  std::vector<json_rows::Row> queries =
      json_rows::SysRows(exec.database(), "sys.queries");
  ASSERT_FALSE(queries.empty());
  EXPECT_EQ(columns(queries.front()),
            (std::set<std::string>{"id", "kind", "statement", "ok", "wall_us",
                                   "wait_us", "rows_in", "rows_out", "probes",
                                   "peak_bytes", "digest"}));

  std::vector<json_rows::Row> session =
      json_rows::SysRows(exec.database(), "sys.session");
  EXPECT_NE(json_rows::FindRow(session, {{"key", "preemption"}}), nullptr);
  EXPECT_EQ(json_rows::FindRow(session, {{"key", "threads"}}), nullptr);
  EXPECT_EQ(json_rows::FindRow(session, {{"key", "storage"}}), nullptr);
}

TEST(SysCatalogTest, MetricNameSubtreeSelection) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  // `ALL cache` names the class covering every cache.* metric: subsumption
  // clamps each row into the subtree, so only cache metrics survive.
  std::string out =
      exec.Execute("SELECT * FROM sys.metrics WHERE name = ALL cache;")
          .value();
  EXPECT_NE(out.find("cache.patched"), std::string::npos);
  EXPECT_EQ(out.find("subsumption_cache."), std::string::npos);
  EXPECT_EQ(out.find("query.statements"), std::string::npos);
  EXPECT_EQ(out.find("storage.bytes"), std::string::npos);
}

TEST(SysCatalogTest, ProcessGaugesPresent) {
  hql::Executor exec;
  std::string out =
      exec.Execute("SELECT * FROM sys.metrics WHERE name = ALL process;")
          .value();
  EXPECT_NE(out.find("process.uptime_ms"), std::string::npos);
}

TEST(SysCatalogTest, LogSeveritySubsumption) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute("SET LOG info;").ok());
  // DDL logs at info; an over-threshold query logs slow_query at warn.
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  ASSERT_TRUE(exec.Execute("SET SLOW_QUERY_MS 0;").ok());
  ASSERT_TRUE(exec.Execute("SELECT * FROM flies WHERE who = paul;").ok());
  // ALL warn covers the {warn, error} subtree: slow_query is in, DDL out.
  std::string warn =
      exec.Execute("SELECT * FROM sys.log WHERE level = ALL warn;").value();
  EXPECT_NE(warn.find("slow_query"), std::string::npos);
  EXPECT_EQ(warn.find("create_relation"), std::string::npos);
  // ALL debug is the root: everything is covered.
  std::string all =
      exec.Execute("SELECT * FROM sys.log WHERE level = ALL debug;").value();
  EXPECT_NE(all.find("slow_query"), std::string::npos);
  ASSERT_TRUE(exec.Execute("SET SLOW_QUERY_MS OFF;").ok());
}

TEST(SysCatalogTest, ProjectionOverSysMetricsViaPlan) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  Database& db = exec.database();
  hql::CreateProjectStmt stmt;
  stmt.name = "tmp";
  stmt.source = "sys.metrics";
  stmt.attributes = {"name", "kind"};
  Result<plan::PlanPtr> compiled = plan::CompileCreateProject(db, stmt);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  Result<plan::PlanPtr> rewritten =
      plan::RewritePlan(std::move(*compiled), db);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status();
  Result<plan::PlanOutput> out = plan::ExecutePlan(**rewritten, db);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_TRUE(out->relation.has_value());
  EXPECT_EQ(out->relation->schema().size(), 2u);
  EXPECT_GT(out->relation->size(), 0u);
}

TEST(SysCatalogTest, JoinRelationsWithColumns) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  // Natural join on the shared `relation` attribute (same sys.label
  // hierarchy in both schemas). Only stored relations have column rows.
  std::string out =
      exec.Execute("SELECT * FROM sys.columns JOIN sys.relations;").value();
  EXPECT_NE(out.find("flies"), std::string::npos);
  EXPECT_NE(out.find("col_bytes"), std::string::npos);
  EXPECT_NE(out.find("stored"), std::string::npos);
  EXPECT_EQ(out.find("sys.metrics"), std::string::npos);
}

TEST(SysCatalogTest, EveryStatementRecordedInQueryHistory) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  ASSERT_TRUE(exec.Execute("SELECT * FROM flies WHERE who = paul;").ok());
  std::vector<std::shared_ptr<const obs::QueryStats>> entries =
      exec.query_history().Snapshot();
  // 8 script statements + the select.
  ASSERT_EQ(entries.size(), 9u);
  uint64_t last_id = 0;
  for (const auto& entry : entries) {
    EXPECT_GT(entry->id, last_id);
    last_id = entry->id;
    EXPECT_GE(entry->wall_ns, 1u);  // non-zero wall time, always
    EXPECT_TRUE(entry->ok);
    EXPECT_FALSE(entry->kind.empty());
    EXPECT_FALSE(entry->statement.empty());
  }
  EXPECT_EQ(entries.front()->kind, "create hierarchy");
  EXPECT_EQ(entries.back()->kind, "select");
  EXPECT_GT(entries.back()->rows_in, 0u);
  EXPECT_FALSE(entries.back()->plan_digest.empty());
}

TEST(SysCatalogTest, FailedStatementsRecordedToo) {
  hql::Executor exec;
  EXPECT_FALSE(exec.Execute("SELECT * FROM nonexistent;").ok());
  std::vector<std::shared_ptr<const obs::QueryStats>> entries =
      exec.query_history().Snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_FALSE(entries.front()->ok);
}

TEST(SysCatalogTest, SelectOverSysQueriesDoesNotSeeItself) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  std::string out = exec.Execute("SELECT * FROM sys.queries;").value();
  EXPECT_NE(out.find("create hierarchy"), std::string::npos);
  // The running SELECT is appended after it completes, not during: no
  // recorded statement text mentions sys.queries yet.
  EXPECT_EQ(out.find("FROM sys.queries"), std::string::npos);
  std::vector<std::shared_ptr<const obs::QueryStats>> entries =
      exec.query_history().Snapshot();
  EXPECT_EQ(entries.back()->kind, "select");
}

TEST(SysCatalogTest, ProbesMatchExplainAnalyzeTotals) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  std::string out =
      exec.Execute(
              "EXPLAIN ANALYZE SELECT * FROM flies WHERE who = ALL penguin;")
          .value();
  size_t pos = out.find("totals:");
  ASSERT_NE(pos, std::string::npos);
  pos = out.find("probes=", pos);
  ASSERT_NE(pos, std::string::npos);
  uint64_t reported = std::strtoull(out.c_str() + pos + 7, nullptr, 10);
  std::vector<std::shared_ptr<const obs::QueryStats>> entries =
      exec.query_history().Snapshot();
  ASSERT_FALSE(entries.empty());
  EXPECT_EQ(entries.back()->kind, "explain analyze");
  EXPECT_EQ(entries.back()->subsumption_probes, reported);
}

TEST(SysCatalogTest, ShowQueriesRendersTextAndJson) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  std::string text = exec.Execute("SHOW QUERIES;").value();
  EXPECT_EQ(text.find("sys.queries (8 tuples)"), 0u);
  EXPECT_NE(text.find("| create hierarchy "), std::string::npos);
  // Oldest first: the rows read in statement order.
  EXPECT_EQ(TableColumn(text, 1),
            (std::vector<std::string>{"1", "2", "3", "4", "5", "6", "7",
                                      "8"}));
  std::optional<std::vector<json_rows::Row>> rows =
      json_rows::ParseRows(exec.Execute("SHOW QUERIES JSON;").value());
  ASSERT_TRUE(rows.has_value());
  ASSERT_EQ(rows->size(), 9u);  // the script plus the SHOW QUERIES
  const json_rows::Row* assert_row =
      json_rows::FindRow(*rows, {{"kind", "assert"}, {"ok", "true"}});
  ASSERT_NE(assert_row, nullptr);
  EXPECT_TRUE(assert_row->is_number("wall_us"));
  EXPECT_TRUE(assert_row->is_number("probes"));
}

TEST(SysCatalogTest, ShowQueriesMarksFailedStatements) {
  hql::Executor exec;
  EXPECT_FALSE(exec.Execute("SELECT * FROM nonexistent;").ok());
  std::optional<std::vector<json_rows::Row>> rows =
      json_rows::ParseRows(exec.Execute("SHOW QUERIES JSON;").value());
  ASSERT_TRUE(rows.has_value());
  EXPECT_NE(json_rows::FindRow(*rows, {{"kind", "select"}, {"ok", "false"}}),
            nullptr);
}

TEST(SysCatalogTest, IntCellsSortNumerically) {
  hql::Executor exec;
  for (int i = 0; i < 11; ++i) {
    ASSERT_TRUE(exec.Execute("SHOW RELATIONS;").ok());
  }
  // Ids 1..11 read in numeric order, not as text (1 10 11 2 ...).
  std::string out = exec.Execute("SELECT * FROM sys.queries;").value();
  std::vector<std::string> ids = TableColumn(out, 1);
  ASSERT_EQ(ids.size(), 11u);
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], std::to_string(i + 1));
  }
}

TEST(SysCatalogTest, CacheGaugesNeedNoShowMetrics) {
  const std::string kQuery =
      "SELECT * FROM sys.metrics WHERE name = ALL cache;";
  const std::vector<std::string> kCacheGauges = {
      "cache.journal_overflows", "cache.patched", "cache.rebuilt"};
  hql::Executor exec;
  Result<std::string> fresh = exec.Execute(kQuery);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_EQ(TableColumn(*fresh, 1), kCacheGauges);

  // A LOADed database brings a fresh registry; the scan syncs it too.
  std::string snap = std::string(::testing::TempDir()) + "/sys_cache_gauges.db";
  ASSERT_TRUE(
      exec.Execute("SAVE '" + snap + "'; LOAD '" + snap + "';").ok());
  Result<std::string> loaded = exec.Execute(kQuery);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(TableColumn(*loaded, 1), kCacheGauges);
  EXPECT_EQ(TableColumn(*loaded, 3),
            (std::vector<std::string>{"0", "0", "0"}));
  std::remove(snap.c_str());
}

TEST(SysCatalogTest, EveryIntrospectionShowRendersItsSysRelations) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  std::string snap = std::string(::testing::TempDir()) + "/sys_contract.db";
  ASSERT_TRUE(exec.Execute("CREATE ALERT hot ON query.statements > 1;"
                           "SET TELEMETRY TICK; SAVE '" + snap + "';")
                  .ok());
  std::remove(snap.c_str());
  // Freeze metric values so back-to-back renderings see one state. Each
  // statement appends its sys.queries record after it renders, so the
  // expected text is always rendered just before the statement runs.
  exec.database().metrics().set_enabled(false);

  const std::vector<std::pair<std::string, std::vector<std::string>>>
      kShows = {{"METRICS", {"sys.metrics"}},
                {"LOG", {"sys.log"}},
                {"QUERIES", {"sys.queries"}},
                {"TELEMETRY", {"sys.metrics_history"}},
                {"ALERTS", {"sys.alerts"}},
                {"HEALTH", {"sys.health"}},
                {"WAITS", {"sys.waits"}},
                {"STORAGE", {"sys.relations", "sys.columns"}}};
  for (const auto& [what, relations] : kShows) {
    std::vector<size_t> sizes;
    auto render = [&](bool json) {
      std::string out;
      sizes.clear();
      for (const std::string& name : relations) {
        HierarchicalRelation r =
            exec.database().FindVirtualRelation(name)->Materialize().value();
        sizes.push_back(r.size());
        out += json ? FormatRelationJson(r) + "\n" : FormatRelation(r);
      }
      return out;
    };
    std::string show_relation;
    for (const std::string& name : relations) {
      show_relation += "SHOW RELATION " + name + ";";
    }
    std::string expected = render(false);
    EXPECT_EQ(exec.Execute("SHOW " + what + ";").value(), expected) << what;
    expected = render(false);
    EXPECT_EQ(exec.Execute(show_relation).value(), expected) << what;
    expected = render(true);
    std::string json = exec.Execute("SHOW " + what + " JSON;").value();
    EXPECT_EQ(json, expected) << what;

    // One JSON line per relation, each one element per row.
    std::istringstream lines(json);
    std::string line;
    size_t i = 0;
    for (; std::getline(lines, line); ++i) {
      ASSERT_LT(i, sizes.size()) << what;
      std::optional<std::vector<json_rows::Row>> rows =
          json_rows::ParseRows(line);
      ASSERT_TRUE(rows.has_value()) << what << ": " << line;
      EXPECT_EQ(rows->size(), sizes[i]) << what;
      EXPECT_GT(rows->size(), 0u) << what;
    }
    EXPECT_EQ(i, relations.size()) << what;
  }
}

TEST(SysCatalogTest, ExportDiagnosticsHoldsEverySysRelation) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  std::string path = std::string(::testing::TempDir()) + "/sys_bundle.json";
  ASSERT_TRUE(exec.Execute("EXPORT DIAGNOSTICS '" + path + "';").ok());
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::remove(path.c_str());

  std::optional<json_rows::Bundle> bundle =
      json_rows::ParseBundle(buffer.str());
  ASSERT_TRUE(bundle.has_value());
  std::set<std::string> keys;
  for (const auto& [name, rows] : bundle->relations) keys.insert(name);
  std::vector<std::string> names = exec.database().VirtualRelationNames();
  EXPECT_EQ(keys, std::set<std::string>(names.begin(), names.end()));
  EXPECT_EQ(bundle->relations.size(), names.size());
  std::set<std::string> header;
  for (const auto& [key, value] : bundle->header.cells) header.insert(key);
  EXPECT_EQ(header, (std::set<std::string>{"format", "engine",
                                           "captured_unix_ms", "cause"}));
}

TEST(SysCatalogTest, SysSessionReportsSettings) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute("SET SLOW_QUERY_MS 7;"
                           "SET INCREMENTAL off; SET TELEMETRY TICK;")
                  .ok());
  std::vector<json_rows::Row> rows =
      json_rows::SysRows(exec.database(), "sys.session");
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"slow_query_ms", "7"},
           {"incremental", "off"},
           {"telemetry", "off"},
           {"telemetry_ticks", "1"},
           {"diagnostics_dir", "off"},
           {"preemption", "off-path"}}) {
    const json_rows::Row* row = json_rows::FindRow(rows, {{"key", key}});
    ASSERT_NE(row, nullptr) << key;
    EXPECT_EQ(row->at("value"), value) << key;
  }
  EXPECT_TRUE(json_rows::FindRow(rows, {{"key", "slow_query_ms"}})
                  ->is_number("value"));
  // WHERE terms resolve against the session domain like any other.
  std::string out =
      exec.Execute("SELECT * FROM sys.session WHERE key = 'slow_query_ms';")
          .value();
  EXPECT_NE(out.find("(1 tuples)"), std::string::npos);
}

TEST(SysCatalogTest, ShowRelationMaterializesVirtual) {
  hql::Executor exec;
  std::string out = exec.Execute("SHOW RELATION sys.session;").value();
  EXPECT_NE(out.find("preemption"), std::string::npos);
  EXPECT_NE(out.find("value"), std::string::npos);
}

TEST(SysCatalogTest, SysCacheListsEntriesAfterConsolidate) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  ASSERT_TRUE(exec.Execute("SHOW SUBSUMPTION flies;").ok());
  std::string out = exec.Execute("SELECT * FROM sys.cache;").value();
  EXPECT_NE(out.find("flies"), std::string::npos);
}

TEST(SysCatalogTest, ReadOnlyGuards) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());

  Result<std::string> r = exec.Execute("ASSERT sys.metrics(x, y, z, w);");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("read-only"), std::string::npos);

  r = exec.Execute("DROP RELATION sys.metrics;");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("cannot be dropped"),
            std::string::npos);

  r = exec.Execute("CREATE RELATION sys.mine (who: animal);");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("reserved"), std::string::npos);

  r = exec.Execute("CREATE HIERARCHY sys.h;");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("reserved"), std::string::npos);

  r = exec.Execute("BEGIN sys.queries;");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("read-only"), std::string::npos);

  r = exec.Execute("CONSOLIDATE sys.metrics;");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("read-only"), std::string::npos);

  r = exec.Execute("COMPRESS sys.log;");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("read-only"), std::string::npos);

  // Results over sys. relations range over hidden system hierarchies, so
  // they cannot be adopted into the catalog (or saved).
  r = exec.Execute("CREATE RELATION snap AS PROJECT sys.metrics ON (name);");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("cannot be stored"),
            std::string::npos);
}

TEST(SysCatalogTest, SystemCatalogSurvivesLoad) {
  std::string path = ::testing::TempDir() + "sys_catalog_load_test.hirel";
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  ASSERT_TRUE(exec.Execute("SAVE '" + path + "';").ok());
  size_t before = exec.query_history().Snapshot().size();
  ASSERT_TRUE(exec.Execute("LOAD '" + path + "';").ok());
  // Providers are re-registered on the loaded database and the history
  // ring survives the swap.
  std::string out = exec.Execute("SELECT * FROM sys.relations;").value();
  EXPECT_NE(out.find("flies"), std::string::npos);
  EXPECT_NE(out.find("sys.metrics"), std::string::npos);
  EXPECT_GT(exec.query_history().Snapshot().size(), before);
  std::remove(path.c_str());
}

TEST(SysCatalogTest, SysWaitsAggregatesAndClassSubsumption) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  // SAVE blocks on snapshot.save, so the io class is guaranteed a row
  // even in an otherwise uncontended single-threaded run.
  std::string path = ::testing::TempDir() + "sys_waits_test.hirel";
  ASSERT_TRUE(exec.Execute("SAVE '" + path + "';").ok());
  std::remove(path.c_str());

  std::string out = exec.Execute("SELECT * FROM sys.waits;").value();
  EXPECT_NE(out.find("snapshot.save"), std::string::npos);
  EXPECT_NE(out.find("io"), std::string::npos);

  // Sites live under their wait-class node, so `ALL io` selects exactly
  // the io sites by subsumption.
  std::string io =
      exec.Execute("SELECT * FROM sys.waits WHERE site = ALL io;").value();
  EXPECT_NE(io.find("snapshot.save"), std::string::npos);
  EXPECT_EQ(io.find("query_ring"), std::string::npos);
}

TEST(SysCatalogTest, SysMetricsHistorySubtreeSelection) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  // Populate cache.* (and everything else) via the gauge sync, then take
  // two deterministic manual samples.
  obs::SyncEngineGauges(exec.database());
  exec.telemetry().Tick();
  exec.telemetry().Tick();

  std::string out =
      exec.Execute("SELECT * FROM sys.metrics_history;").value();
  EXPECT_NE(out.find("query.statements"), std::string::npos);
  EXPECT_NE(out.find("cache.patched"), std::string::npos);

  // The name attribute shares the sys.metrics dotted hierarchy, so
  // `ALL cache` clamps the history to the cache.* subtree.
  std::string cache =
      exec.Execute(
              "SELECT * FROM sys.metrics_history WHERE name = ALL cache;")
          .value();
  EXPECT_NE(cache.find("cache.patched"), std::string::npos);
  EXPECT_EQ(cache.find("query.statements"), std::string::npos);
}

TEST(SysCatalogTest, SysQueriesReportsWaitColumn) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  std::string out = exec.Execute("SELECT * FROM sys.queries;").value();
  EXPECT_NE(out.find("wait_us"), std::string::npos);
}

TEST(SysCatalogTest, SysMetricsExposesPercentileRows) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  ASSERT_TRUE(exec.Execute("SELECT * FROM flies;").ok());  // records a histogram
  std::string out =
      exec.Execute("SELECT * FROM sys.metrics WHERE name = ALL query;")
          .value();
  EXPECT_NE(out.find("p50_ns"), std::string::npos);
  EXPECT_NE(out.find("p99_ns"), std::string::npos);
}

TEST(QueryHistoryRingTest, BoundedAndOrdered) {
  obs::QueryHistoryRing ring(4);
  for (uint64_t i = 1; i <= 10; ++i) {
    obs::QueryStats stats;
    stats.id = i;
    stats.wall_ns = i * 100;
    ring.Append(std::move(stats));
  }
  EXPECT_EQ(ring.total_recorded(), 10u);
  EXPECT_EQ(ring.capacity(), 4u);
  std::vector<std::shared_ptr<const obs::QueryStats>> entries =
      ring.Snapshot();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries.front()->id, 7u);  // oldest surviving
  EXPECT_EQ(entries.back()->id, 10u);  // newest
}

TEST(SysCatalogTest, ExplainAnalyzeMarksVirtualScan) {
  hql::Executor exec;
  std::string out =
      exec.Execute("EXPLAIN ANALYZE SELECT * FROM sys.relations;").value();
  EXPECT_NE(out.find("virtual=true"), std::string::npos);
}

}  // namespace
}  // namespace hirel
