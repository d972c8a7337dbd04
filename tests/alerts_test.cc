// Alerting layer: CREATE/DROP ALERT parsing and semantics, the
// deterministic fire → still-firing → resolve lifecycle driven by manual
// ticks, FOR-n hysteresis, severity subsumption through sys.alerts, the
// health verdict, the stall watchdog, sys.waits percentiles, and the
// EXPORT DIAGNOSTICS / auto-capture bundles.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "hql/executor.h"
#include "obs/alerts.h"
#include "obs/export.h"
#include "obs/wait.h"
#include "json_rows.h"

namespace hirel {
namespace obs {
namespace {

using hql::Executor;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The rows of `SHOW <what> JSON`, which must parse.
std::vector<json_rows::Row> ShowRows(Executor& exec, const std::string& what) {
  std::optional<std::vector<json_rows::Row>> rows =
      json_rows::ParseRows(exec.Execute("SHOW " + what + " JSON;").value());
  EXPECT_TRUE(rows.has_value()) << what;
  return rows.value_or(std::vector<json_rows::Row>{});
}

// ---- pure helpers ------------------------------------------------------

TEST(AlertRuleTest, ParseSeverityAndOp) {
  AlertSeverity sev;
  EXPECT_TRUE(ParseAlertSeverity("info", &sev));
  EXPECT_EQ(sev, AlertSeverity::kInfo);
  EXPECT_TRUE(ParseAlertSeverity("WARN", &sev));
  EXPECT_EQ(sev, AlertSeverity::kWarn);
  EXPECT_TRUE(ParseAlertSeverity("critical", &sev));
  EXPECT_EQ(sev, AlertSeverity::kCrit);
  EXPECT_FALSE(ParseAlertSeverity("fatal", &sev));

  AlertOp op;
  EXPECT_TRUE(ParseAlertOp(">", &op));
  EXPECT_EQ(op, AlertOp::kGt);
  EXPECT_TRUE(ParseAlertOp("<=", &op));
  EXPECT_EQ(op, AlertOp::kLe);
  EXPECT_TRUE(ParseAlertOp("=", &op));
  EXPECT_EQ(op, AlertOp::kEq);
  EXPECT_FALSE(ParseAlertOp("!=", &op));
}

TEST(AlertRuleTest, ComponentMapping) {
  EXPECT_STREQ(AlertComponent("wal.appends"), "wal");
  EXPECT_STREQ(AlertComponent("snapshot.saves"), "wal");
  EXPECT_STREQ(AlertComponent("cache.hits"), "cache");
  EXPECT_STREQ(AlertComponent("subsumption_cache.entries"), "cache");
  EXPECT_STREQ(AlertComponent("query.statements"), "queries");
  EXPECT_STREQ(AlertComponent("watchdog.slow_query"), "queries");
  EXPECT_STREQ(AlertComponent("watchdog.io_wait_share"), "wal");
  EXPECT_STREQ(AlertComponent("log.events"), "telemetry");
}

TEST(AlertRuleTest, DeriveHealthAlwaysEmitsFourComponents) {
  std::vector<ComponentHealth> health = DeriveHealth({});
  ASSERT_EQ(health.size(), 4u);
  for (const ComponentHealth& c : health) {
    EXPECT_EQ(c.verdict, HealthVerdict::kOk);
    EXPECT_EQ(c.firing, 0u);
  }

  AlertSnapshot warn;
  warn.rule.name = "w";
  warn.rule.metric = "query.statements";
  warn.rule.severity = AlertSeverity::kWarn;
  warn.state = AlertState::kFiring;
  AlertSnapshot crit = warn;
  crit.rule.name = "c";
  crit.rule.metric = "cache.patched";
  crit.rule.severity = AlertSeverity::kCrit;
  health = DeriveHealth({warn, crit});
  for (const ComponentHealth& c : health) {
    if (c.component == "queries") {
      EXPECT_EQ(c.verdict, HealthVerdict::kDegraded);
      EXPECT_EQ(c.worst_alert, "w");
    } else if (c.component == "cache") {
      EXPECT_EQ(c.verdict, HealthVerdict::kCritical);
      EXPECT_EQ(c.worst_alert, "c");
    } else {
      EXPECT_EQ(c.verdict, HealthVerdict::kOk);
    }
  }
}

// ---- statement surface -------------------------------------------------

TEST(AlertStatementTest, CreateShowDrop) {
  Executor exec;
  std::string out = exec.Execute(
                            "CREATE ALERT hot ON query.statements >= 10 "
                            "FOR 2 SAMPLES SEVERITY crit;")
                        .value();
  EXPECT_NE(out.find("alert 'hot'"), std::string::npos);

  std::vector<json_rows::Row> alerts = ShowRows(exec, "ALERTS");
  EXPECT_NE(json_rows::FindRow(alerts, {{"alert", "hot"},
                                        {"severity", "crit"},
                                        {"metric", "query.statements"},
                                        {"op", ">="},
                                        {"threshold", "10"},
                                        {"for_samples", "2"},
                                        {"builtin", "false"}}),
            nullptr);
  // The built-in watchdog rules are always listed, marked builtin.
  EXPECT_NE(json_rows::FindRow(alerts, {{"alert", "watchdog_slow_query"},
                                        {"builtin", "true"}}),
            nullptr);

  EXPECT_TRUE(exec.Execute("DROP ALERT hot;").ok());
  EXPECT_EQ(json_rows::FindRow(ShowRows(exec, "ALERTS"), {{"alert", "hot"}}),
            nullptr);
}

TEST(AlertStatementTest, ParseAndValidationErrors) {
  Executor exec;
  // Missing operator.
  EXPECT_FALSE(exec.Execute("CREATE ALERT a ON query.statements 10;").ok());
  // Unknown severity.
  EXPECT_FALSE(
      exec.Execute("CREATE ALERT a ON query.statements > 1 SEVERITY bad;")
          .ok());
  // Non-positive FOR window.
  EXPECT_FALSE(
      exec.Execute("CREATE ALERT a ON query.statements > 1 FOR 0 SAMPLES;")
          .ok());
  // Duplicate name.
  ASSERT_TRUE(exec.Execute("CREATE ALERT a ON query.statements > 1;").ok());
  EXPECT_FALSE(exec.Execute("CREATE ALERT a ON cache.patched > 1;").ok());
  // Colliding with a built-in.
  EXPECT_FALSE(
      exec.Execute("CREATE ALERT watchdog_slow_query ON cache.patched > 1;")
          .ok());
  // Dropping built-ins and unknowns.
  EXPECT_FALSE(exec.Execute("DROP ALERT watchdog_slow_query;").ok());
  EXPECT_FALSE(exec.Execute("DROP ALERT nonesuch;").ok());
}

TEST(AlertStatementTest, LifecycleFireStillFiringResolve) {
  Executor exec;
  ASSERT_TRUE(exec.Execute("SET WATCHDOG_QUERY_MS 600000;").ok());
  ASSERT_TRUE(
      exec.Execute("CREATE ALERT hot ON query.statements > 1;").ok());

  // First tick: query.statements is already past 1, so the rule fires.
  ASSERT_TRUE(exec.Execute("SET TELEMETRY TICK;").ok());
  std::vector<AlertSnapshot> snap = exec.alerts().Snapshot();
  const AlertSnapshot* hot = nullptr;
  for (const AlertSnapshot& a : snap) {
    if (a.rule.name == "hot") hot = &a;
  }
  ASSERT_NE(hot, nullptr);
  EXPECT_EQ(hot->state, AlertState::kFiring);
  EXPECT_EQ(hot->fires, 1u);
  EXPECT_GT(hot->fired_epoch_ms, 0u);

  // Still breaching: stays firing, no second fire transition.
  ASSERT_TRUE(exec.Execute("SET TELEMETRY TICK;").ok());
  snap = exec.alerts().Snapshot();
  for (const AlertSnapshot& a : snap) {
    if (a.rule.name == "hot") {
      EXPECT_EQ(a.state, AlertState::kFiring);
      EXPECT_EQ(a.fires, 1u);
    }
  }
  EXPECT_EQ(exec.alerts().FiringCount(), 1u);
  // The fire transition was counted (RESET METRICS below will zero it).
  EXPECT_EQ(exec.database().metrics().counter("alerts.fired").value(), 1u);

  // Zeroing the counter resolves it on the next tick.
  ASSERT_TRUE(exec.Execute("RESET METRICS;").ok());
  ASSERT_TRUE(exec.Execute("SET TELEMETRY TICK;").ok());
  snap = exec.alerts().Snapshot();
  for (const AlertSnapshot& a : snap) {
    if (a.rule.name == "hot") {
      EXPECT_EQ(a.state, AlertState::kResolved);
      EXPECT_EQ(a.fires, 1u);
      EXPECT_GT(a.resolved_seq, a.fired_seq);
    }
  }
  EXPECT_EQ(exec.alerts().FiringCount(), 0u);

  // The resolve transition landed after the reset, so it reads 1.
  EXPECT_EQ(exec.database().metrics().counter("alerts.resolved").value(),
            1u);
}

TEST(AlertStatementTest, ForSamplesHysteresis) {
  Executor exec;
  ASSERT_TRUE(exec.Execute("SET WATCHDOG_QUERY_MS 600000;").ok());
  ASSERT_TRUE(
      exec.Execute("CREATE ALERT slow_burn ON query.statements > 1 "
                   "FOR 3 SAMPLES;")
          .ok());

  auto state_of = [&](const char* name) {
    for (const AlertSnapshot& a : exec.alerts().Snapshot()) {
      if (a.rule.name == name) return a.state;
    }
    return AlertState::kOk;
  };

  ASSERT_TRUE(exec.Execute("SET TELEMETRY TICK;").ok());
  EXPECT_EQ(state_of("slow_burn"), AlertState::kPending);
  ASSERT_TRUE(exec.Execute("SET TELEMETRY TICK;").ok());
  EXPECT_EQ(state_of("slow_burn"), AlertState::kPending);
  ASSERT_TRUE(exec.Execute("SET TELEMETRY TICK;").ok());
  EXPECT_EQ(state_of("slow_burn"), AlertState::kFiring);

  // A non-breaching sample resets the window: after it, three more
  // breaching samples are needed again.
  ASSERT_TRUE(exec.Execute("RESET METRICS;").ok());
  ASSERT_TRUE(exec.Execute("SET TELEMETRY TICK;").ok());
  EXPECT_EQ(state_of("slow_burn"), AlertState::kResolved);
  ASSERT_TRUE(exec.Execute("SET TELEMETRY TICK;").ok());
  EXPECT_EQ(state_of("slow_burn"), AlertState::kPending);
}

TEST(AlertStatementTest, SeveritySubsumptionInSysAlerts) {
  Executor exec;
  ASSERT_TRUE(
      exec.Execute("CREATE ALERT note ON query.statements > 1 "
                   "SEVERITY info;")
          .ok());
  ASSERT_TRUE(
      exec.Execute("CREATE ALERT worry ON query.statements > 2 "
                   "SEVERITY warn;")
          .ok());
  ASSERT_TRUE(
      exec.Execute("CREATE ALERT page ON query.statements > 3 "
                   "SEVERITY crit;")
          .ok());

  // ALL warn covers warn and crit rows but not info (info ⊃ warn ⊃ crit).
  std::string out =
      exec.Execute("SELECT * FROM sys.alerts WHERE severity = ALL warn;")
          .value();
  EXPECT_NE(out.find("worry"), std::string::npos);
  EXPECT_NE(out.find("page"), std::string::npos);
  EXPECT_EQ(out.find("note"), std::string::npos);
  // The built-in watchdog rules are warn, so they are covered too.
  EXPECT_NE(out.find("watchdog_slow_query"), std::string::npos);

  // ALL info covers everything; ALL crit only the crit row.
  out = exec.Execute("SELECT * FROM sys.alerts WHERE severity = ALL info;")
            .value();
  EXPECT_NE(out.find("note"), std::string::npos);
  EXPECT_NE(out.find("worry"), std::string::npos);
  out = exec.Execute("SELECT * FROM sys.alerts WHERE severity = ALL crit;")
            .value();
  EXPECT_NE(out.find("page"), std::string::npos);
  EXPECT_EQ(out.find("worry"), std::string::npos);
}

TEST(AlertStatementTest, HealthVerdictFollowsFiringSet) {
  Executor exec;
  ASSERT_TRUE(exec.Execute("SET WATCHDOG_QUERY_MS 600000;").ok());
  EXPECT_NE(json_rows::FindRow(ShowRows(exec, "HEALTH"),
                               {{"component", "overall"},
                                {"verdict", "ok"},
                                {"firing", "0"},
                                {"worst_alert", "-"}}),
            nullptr);

  ASSERT_TRUE(
      exec.Execute("CREATE ALERT warny ON query.statements > 1;").ok());
  ASSERT_TRUE(exec.Execute("SET TELEMETRY TICK;").ok());
  std::vector<json_rows::Row> health = ShowRows(exec, "HEALTH");
  EXPECT_NE(json_rows::FindRow(health, {{"component", "overall"},
                                        {"verdict", "degraded"}}),
            nullptr);
  EXPECT_NE(json_rows::FindRow(health, {{"component", "queries"},
                                        {"verdict", "degraded"},
                                        {"firing", "1"},
                                        {"worst_alert", "warny"}}),
            nullptr);

  ASSERT_TRUE(
      exec.Execute(
              "CREATE ALERT crity ON query.statements >= 0 SEVERITY crit;")
          .ok());
  ASSERT_TRUE(exec.Execute("SET TELEMETRY TICK;").ok());
  health = ShowRows(exec, "HEALTH");
  EXPECT_NE(json_rows::FindRow(health, {{"component", "overall"},
                                        {"verdict", "critical"},
                                        {"firing", "2"},
                                        {"worst_alert", "crity"}}),
            nullptr);
  EXPECT_NE(json_rows::FindRow(health, {{"component", "queries"},
                                        {"verdict", "critical"}}),
            nullptr);

  // SHOW HEALTH is sys.health: the text form carries the same rows.
  std::string out = exec.Execute("SHOW HEALTH;").value();
  EXPECT_EQ(out.find("sys.health (5 tuples)"), 0u);  // four + overall
  EXPECT_NE(out.find("critical"), std::string::npos);
  EXPECT_NE(out.find("telemetry"), std::string::npos);
}

TEST(AlertStatementTest, WatchdogSlowQueryFiresAndDisables) {
  Executor exec;
  // Budget 0: every completed statement breaches.
  ASSERT_TRUE(exec.Execute("SET WATCHDOG_QUERY_MS 0;").ok());
  ASSERT_TRUE(exec.Execute("SHOW RELATIONS;").ok());
  ASSERT_TRUE(exec.Execute("SET TELEMETRY TICK;").ok());
  std::string out = exec.Execute("SHOW ALERTS;").value();
  EXPECT_NE(out.find("watchdog_slow_query"), std::string::npos);
  bool firing = false;
  for (const AlertSnapshot& a : exec.alerts().Snapshot()) {
    if (a.rule.name == "watchdog_slow_query") {
      firing = a.state == AlertState::kFiring;
    }
  }
  EXPECT_TRUE(firing);

  // OFF disables the check; the rule observes a non-breach and resolves.
  ASSERT_TRUE(exec.Execute("SET WATCHDOG_QUERY_MS OFF;").ok());
  ASSERT_TRUE(exec.Execute("SET TELEMETRY TICK;").ok());
  for (const AlertSnapshot& a : exec.alerts().Snapshot()) {
    if (a.rule.name == "watchdog_slow_query") {
      EXPECT_EQ(a.state, AlertState::kResolved);
    }
  }
}

TEST(AlertStatementTest, ExportDiagnosticsWritesValidBundle) {
  Executor exec;
  ASSERT_TRUE(
      exec.Execute("CREATE ALERT hot ON query.statements > 1;").ok());
  ASSERT_TRUE(exec.Execute("SET TELEMETRY TICK;").ok());
  std::string path =
      std::string(::testing::TempDir()) + "/alerts_diag_bundle.json";
  std::string out =
      exec.Execute("EXPORT DIAGNOSTICS '" + path + "';").value();
  EXPECT_NE(out.find("exported diagnostics"), std::string::npos);

  std::optional<json_rows::Bundle> bundle =
      json_rows::ParseBundle(ReadFile(path));
  ASSERT_TRUE(bundle.has_value());
  EXPECT_EQ(bundle->header.at("format"), "2");
  EXPECT_EQ(bundle->header.at("engine"), "hirel");
  EXPECT_EQ(bundle->header.at("cause"), "statement");
  EXPECT_TRUE(bundle->header.is_number("captured_unix_ms"));
  // Session settings, alerts + health, metrics, waits, query history,
  // telemetry and the log each arrive as their sys.* relation.
  const auto& rel = bundle->relations;
  EXPECT_NE(
      json_rows::FindRow(rel.at("sys.session"), {{"key", "preemption"}}),
      nullptr);
  EXPECT_NE(json_rows::FindRow(rel.at("sys.alerts"),
                               {{"alert", "hot"}, {"state", "firing"}}),
            nullptr);
  EXPECT_NE(json_rows::FindRow(rel.at("sys.health"),
                               {{"component", "overall"},
                                {"verdict", "degraded"}}),
            nullptr);
  EXPECT_NE(json_rows::FindRow(rel.at("sys.metrics"),
                               {{"name", "query.statements"}}),
            nullptr);
  EXPECT_NE(json_rows::FindRow(rel.at("sys.queries"),
                               {{"kind", "create alert"}, {"ok", "true"}}),
            nullptr);
  EXPECT_NE(json_rows::FindRow(rel.at("sys.metrics_history"),
                               {{"name", "query.statements"}, {"seq", "1"}}),
            nullptr);
  EXPECT_TRUE(rel.count("sys.waits"));
  EXPECT_TRUE(rel.count("sys.log"));
  std::filesystem::remove(path);

  // Unwritable path fails the statement, not the process.
  EXPECT_FALSE(
      exec.Execute("EXPORT DIAGNOSTICS '/nonexistent-dir/x.json';").ok());
}

TEST(AlertStatementTest, AutoCaptureOncePerFire) {
  std::string dir =
      std::string(::testing::TempDir()) + "/alerts_auto_capture";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    Executor exec;
    ASSERT_TRUE(exec.Execute("SET WATCHDOG_QUERY_MS 600000;").ok());
    ASSERT_TRUE(exec.Execute("SET DIAGNOSTICS_DIR '" + dir + "';").ok());
    ASSERT_TRUE(
        exec.Execute("CREATE ALERT hot ON query.statements > 1;").ok());
    ASSERT_TRUE(exec.Execute("SET TELEMETRY TICK;").ok());  // fires
    ASSERT_TRUE(exec.Execute("SET TELEMETRY TICK;").ok());  // still firing
    ASSERT_TRUE(exec.Execute("SHOW ALERTS;").ok());

    size_t bundles = 0;
    std::string bundle_path;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      ++bundles;
      bundle_path = entry.path().string();
    }
    // Exactly one capture per fire transition, not one per firing tick.
    ASSERT_EQ(bundles, 1u);
    EXPECT_NE(bundle_path.find("diag.hot."), std::string::npos);
    std::string json = ReadFile(bundle_path);
    EXPECT_NE(json.find("\"cause\":\"alert:hot\""), std::string::npos);

    // Re-firing after a resolve captures a second bundle.
    ASSERT_TRUE(exec.Execute("RESET METRICS;").ok());
    ASSERT_TRUE(exec.Execute("SET TELEMETRY TICK;").ok());  // resolves
    ASSERT_TRUE(exec.Execute("SHOW RELATIONS;").ok());
    ASSERT_TRUE(exec.Execute("SET TELEMETRY TICK;").ok());  // fires again
    bundles = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      (void)entry;
      ++bundles;
    }
    EXPECT_EQ(bundles, 2u);

    ASSERT_TRUE(exec.Execute("SET DIAGNOSTICS_DIR OFF;").ok());
  }
  std::filesystem::remove_all(dir);
}

TEST(AlertStatementTest, ShowWaitsRendersSitesWithPercentiles) {
  Executor exec;
  // Record a deterministic latency distribution on a private site.
  WaitEventRegistry::Site& site = WaitEventRegistry::Global().RegisterSite(
      "alerts_test_wait", WaitClass::kIo);
  for (int i = 0; i < 100; ++i) {
    site.Record(0, 50'000);  // 50 us
  }
  site.Record(0, 4'000'000);  // 4 ms outlier

  std::string out = exec.Execute("SHOW WAITS;").value();
  EXPECT_NE(out.find("| io "), std::string::npos);
  EXPECT_NE(out.find("alerts_test_wait"), std::string::npos);
  EXPECT_NE(out.find("| p99_us "), std::string::npos);

  std::vector<json_rows::Row> waits = ShowRows(exec, "WAITS");
  const json_rows::Row* row = json_rows::FindRow(
      waits,
      {{"site", "alerts_test_wait"}, {"wait_class", "io"}, {"waits", "101"}});
  ASSERT_NE(row, nullptr);
  // 100 of 101 waits took 50 us: the median sits in their bucket, the
  // p99 reaches toward the 4 ms outlier.
  EXPECT_LE(std::stoull(row->at("p50_us")), 65u);
  EXPECT_LE(std::stoull(row->at("p50_us")), std::stoull(row->at("p90_us")));
  EXPECT_LE(std::stoull(row->at("p90_us")), std::stoull(row->at("p99_us")));
  EXPECT_EQ(row->at("max_us"), "4000");

  // The site's histogram also reaches the Prometheus exposition.
  std::string prom = exec.Execute("SHOW METRICS PROMETHEUS;").value();
  EXPECT_NE(prom.find("hirel_wait_site_ns_bucket"), std::string::npos);
  EXPECT_NE(prom.find("site=\"alerts_test_wait\""), std::string::npos);
  EXPECT_NE(prom.find("class=\"io\""), std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);

  WaitEventRegistry::Global().Reset();
}

TEST(AlertStatementTest, SiteQuantileMatchesDistribution) {
  WaitEventRegistry::SiteSnapshot site;
  site.name = "q";
  // 100 waits in the (16384, 32768] ns bucket (index 5, bound 1024<<5).
  site.count = 100;
  site.buckets[5] = 100;
  site.max_ns = 30'000;
  uint64_t p50 = WaitEventRegistry::SiteQuantileNs(site, 0.50);
  EXPECT_GE(p50, 16'384u);
  EXPECT_LE(p50, 30'000u);
  // Empty site: zero.
  WaitEventRegistry::SiteSnapshot empty;
  EXPECT_EQ(WaitEventRegistry::SiteQuantileNs(empty, 0.99), 0u);
}

TEST(AlertStatementTest, TelemetryJsonCarriesEpochMs) {
  Executor exec;
  ASSERT_TRUE(exec.Execute("SET TELEMETRY TICK;").ok());
  // Every sample row carries its wall-clock epoch_ms: the first tick has
  // seq 1 and a 13-digit epoch.
  std::vector<json_rows::Row> samples = ShowRows(exec, "TELEMETRY");
  const json_rows::Row* sample = json_rows::FindRow(samples, {{"seq", "1"}});
  ASSERT_NE(sample, nullptr);
  EXPECT_TRUE(sample->is_number("epoch_ms"));
  EXPECT_EQ(sample->at("epoch_ms").size(), 13u);

  // sys.metrics_history exposes the same epoch_ms as a column.
  std::string out =
      exec.Execute("SELECT * FROM sys.metrics_history;").value();
  EXPECT_NE(out.find("epoch_ms"), std::string::npos);
}

TEST(AlertStatementTest, AlertsSurviveLoadSwap) {
  std::string snap =
      std::string(::testing::TempDir()) + "/alerts_load_swap.db";
  Executor exec;
  ASSERT_TRUE(exec.Execute("CREATE HIERARCHY h;").ok());
  ASSERT_TRUE(exec.Execute("SAVE '" + snap + "';").ok());
  ASSERT_TRUE(
      exec.Execute("CREATE ALERT hot ON query.statements > 1;").ok());
  ASSERT_TRUE(exec.Execute("LOAD '" + snap + "';").ok());
  // Rules survive the database swap and evaluate against the new registry.
  ASSERT_TRUE(exec.Execute("SET TELEMETRY TICK;").ok());
  EXPECT_NE(json_rows::FindRow(ShowRows(exec, "ALERTS"),
                               {{"alert", "hot"}, {"severity", "warn"}}),
            nullptr);
  std::string out = exec.Execute("SELECT * FROM sys.alerts;").value();
  EXPECT_NE(out.find("hot"), std::string::npos);
  std::filesystem::remove(snap);
}

TEST(AlertStatementTest, HelpMentionsAlertSurface) {
  Executor exec;
  std::string help = exec.Execute("HELP;").value();
  EXPECT_NE(help.find("CREATE ALERT"), std::string::npos);
  EXPECT_NE(help.find("SHOW HEALTH"), std::string::npos);
  EXPECT_NE(help.find("EXPORT DIAGNOSTICS"), std::string::npos);
  EXPECT_NE(help.find("sys.alerts"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace hirel
