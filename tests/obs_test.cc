// Observability: MetricsRegistry semantics, histogram bucketing, the
// disabled fast path, trace span trees, the structured event log, the
// exporters (Chrome trace JSON, Prometheus text), and the executor-facing
// surface (EXPLAIN ANALYZE, SHOW METRICS, SHOW TRACE, SHOW LOG, slow-query
// log, EXPORT TRACE, RESET METRICS).

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <shared_mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/str_util.h"
#include "core/tuple_store.h"
#include "hql/executor.h"
#include "io/wal.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "obs/wait.h"
#include "json_rows.h"

namespace hirel {
namespace obs {
namespace {

TEST(MetricsRegistryTest, FindOrCreateReturnsStableHandles) {
  MetricsRegistry reg;
  Counter& c = reg.counter("queries");
  c.Add();
  c.Add(4);
  EXPECT_EQ(reg.counter("queries").value(), 5u);
  EXPECT_EQ(&reg.counter("queries"), &c);

  Gauge& g = reg.gauge("entries");
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(reg.gauge("entries").value(), 7);

  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricsRegistryTest, HandlesSurviveRegistryMove) {
  MetricsRegistry reg;
  Counter& c = reg.counter("moved");
  MetricsRegistry other = std::move(reg);
  c.Add(3);  // heap-allocated metric + heap-allocated enabled flag
  EXPECT_EQ(other.counter("moved").value(), 3u);
}

TEST(MetricsRegistryTest, HistogramBucketBoundaries) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat");
  h.Record(0);        // bucket 0: < 1024 ns
  h.Record(1023);     // bucket 0
  h.Record(1024);     // bucket 1: < 2048 ns
  h.Record(1u << 20); // bucket 11: < 1024 << 11
  h.Record(uint64_t{1} << 60);  // overflow

  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.max_ns(), uint64_t{1} << 60);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(11), 1u);
  EXPECT_EQ(h.bucket(Histogram::kBuckets - 1), 1u);

  EXPECT_EQ(Histogram::BucketBound(0), 1024u);
  EXPECT_EQ(Histogram::BucketBound(1), 2048u);
  EXPECT_EQ(Histogram::BucketBound(Histogram::kBuckets - 1), 0u);
}

TEST(MetricsRegistryTest, DisabledUpdatesAreNoOps) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  Gauge& g = reg.gauge("g");
  Histogram& h = reg.histogram("h");

  reg.set_enabled(false);
  c.Add(5);
  g.Set(5);
  h.Record(5);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);

  reg.set_enabled(true);
  c.Add(5);
  EXPECT_EQ(c.value(), 5u);
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsNames) {
  MetricsRegistry reg;
  reg.counter("a").Add(7);
  reg.histogram("b").Record(100);
  reg.Reset();
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.counter("a").value(), 0u);
  EXPECT_EQ(reg.histogram("b").count(), 0u);
}

TEST(MetricsRegistryTest, RenderAndJsonShapes) {
  // The registry renders through sys.metrics: one row per counter and
  // gauge, and per histogram statistic and non-empty bucket.
  hql::Executor exec;
  MetricsRegistry& reg = exec.database().metrics();
  reg.counter("queries").Add(2);
  reg.gauge("depth").Set(-1);
  reg.histogram("lat").Record(3000);
  std::string text = exec.Execute("SHOW METRICS;").value();
  EXPECT_EQ(text.find("sys.metrics ("), 0u);
  EXPECT_NE(text.find("| queries "), std::string::npos);
  EXPECT_NE(text.find("| depth "), std::string::npos);

  std::string json = exec.Execute("SHOW METRICS JSON;").value();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), '\n');
  std::optional<std::vector<json_rows::Row>> rows =
      json_rows::ParseRows(json);
  ASSERT_TRUE(rows.has_value());
  const json_rows::Row* queries =
      json_rows::FindRow(*rows, {{"name", "queries"}});
  ASSERT_NE(queries, nullptr);
  EXPECT_EQ(queries->at("kind"), "counter");
  EXPECT_EQ(queries->at("value"), "2");
  EXPECT_TRUE(queries->is_number("value"));
  const json_rows::Row* depth = json_rows::FindRow(*rows, {{"name", "depth"}});
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->at("kind"), "gauge");
  EXPECT_EQ(depth->at("value"), "-1");
  EXPECT_NE(json_rows::FindRow(*rows, {{"name", "lat"}, {"bucket", "count"}}),
            nullptr);
}

TEST(TraceTest, ScopesBuildNestedSpanTree) {
  Trace trace;
  EXPECT_TRUE(trace.empty());
  {
    Trace::Scope outer(&trace, "execute");
    outer.Note("rows", 42);
    { Trace::Scope inner(&trace, "plan"); }
  }
  { Trace::Scope other(&trace, "derive"); }

  ASSERT_EQ(trace.spans().size(), 2u);
  const TraceSpan& execute = *trace.spans()[0];
  EXPECT_EQ(execute.name, "execute");
  ASSERT_EQ(execute.notes.size(), 1u);
  EXPECT_EQ(execute.notes[0].first, "rows");
  EXPECT_EQ(execute.notes[0].second, 42u);
  ASSERT_EQ(execute.children.size(), 1u);
  EXPECT_EQ(execute.children[0]->name, "plan");
  EXPECT_EQ(trace.spans()[1]->name, "derive");

  std::string text = trace.Render();
  EXPECT_NE(text.find("execute"), std::string::npos);
  EXPECT_NE(text.find("rows=42"), std::string::npos);

  std::string json = trace.RenderJson();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"name\":\"plan\""), std::string::npos);

  trace.Clear();
  EXPECT_TRUE(trace.empty());
  EXPECT_NE(trace.Render().find("(none)"), std::string::npos);
}

TEST(TraceTest, NullTraceScopesAreNoOps) {
  Trace::Scope scope(nullptr, "nothing");
  scope.Note("rows", 1);  // must not crash
}

// ---------------------------------------------------------------------------
// Shared JSON escaping (used by SHOW ... JSON, the log, and the exporters).

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(JsonEscape("plain text"), "plain text");
  EXPECT_EQ(JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("line\nbreak\ttab\rret"), "line\\nbreak\\ttab\\rret");
  EXPECT_EQ(JsonEscape(std::string_view("\x01\x1f", 2)), "\\u0001\\u001f");

  std::string out;
  AppendJsonString(out, "k\"v");
  EXPECT_EQ(out, "\"k\\\"v\"");
}

// ---------------------------------------------------------------------------
// Histogram edges.

TEST(MetricsRegistryTest, HistogramEdgeValuesLandInExpectedBuckets) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("edges");

  // A value equal to a bucket's bound belongs to the next bucket: bounds
  // are exclusive upper limits.
  h.Record(Histogram::BucketBound(1) - 1);  // 2047 -> bucket 1
  h.Record(Histogram::BucketBound(1));      // 2048 -> bucket 2
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);

  // The last finite bucket and the first value past it (overflow).
  const size_t last_finite = Histogram::kBuckets - 2;
  const uint64_t top_bound = Histogram::BucketBound(last_finite);
  ASSERT_NE(top_bound, 0u);
  h.Record(top_bound - 1);
  h.Record(top_bound);
  EXPECT_EQ(h.bucket(last_finite), 1u);
  EXPECT_EQ(h.bucket(Histogram::kBuckets - 1), 1u);

  // Bounds double from 1024; the +Inf bucket reports bound 0.
  for (size_t i = 0; i + 1 < Histogram::kBuckets; ++i) {
    EXPECT_EQ(Histogram::BucketBound(i), uint64_t{1024} << i) << i;
  }
  EXPECT_EQ(Histogram::BucketBound(Histogram::kBuckets - 1), 0u);
}

TEST(MetricsRegistryTest, HistogramQuantilesFromKnownDistribution) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("q");
  EXPECT_EQ(h.QuantileNs(0.5), 0u);  // empty histogram

  // 90 samples in bucket 0 ([0, 1024)) and 10 at 100 µs (bucket 7,
  // [65536, 131072)): p50 and p90 land in the first bucket, p99 in the
  // slow tail, clamped to the observed max.
  for (int i = 0; i < 90; ++i) h.Record(500);
  for (int i = 0; i < 10; ++i) h.Record(100'000);
  EXPECT_LT(h.QuantileNs(0.5), 1024u);
  EXPECT_LE(h.QuantileNs(0.9), 1024u);  // rank 90 of 90 in bucket 0: at the bound
  EXPECT_GE(h.QuantileNs(0.99), 65536u);
  EXPECT_LE(h.QuantileNs(0.99), 100'000u);
  EXPECT_EQ(h.QuantileNs(1.0), h.QuantileNs(0.99));

  // Overflow-bucket samples resolve to the exact max.
  Histogram& over = reg.histogram("over");
  over.Record(uint64_t{1} << 40);
  EXPECT_EQ(over.QuantileNs(0.99), uint64_t{1} << 40);

  // sys.metrics carries the same estimates, one row per percentile.
  hql::Executor exec;
  Histogram& shown = exec.database().metrics().histogram("q");
  for (int i = 0; i < 90; ++i) shown.Record(500);
  for (int i = 0; i < 10; ++i) shown.Record(100'000);
  std::optional<std::vector<json_rows::Row>> rows =
      json_rows::ParseRows(exec.Execute("SHOW METRICS JSON;").value());
  ASSERT_TRUE(rows.has_value());
  for (const auto& [bucket, q] : {std::pair<const char*, double>{"p50_ns", 0.5},
                                  {"p90_ns", 0.9},
                                  {"p99_ns", 0.99}}) {
    const json_rows::Row* row =
        json_rows::FindRow(*rows, {{"name", "q"}, {"bucket", bucket}});
    ASSERT_NE(row, nullptr) << bucket;
    EXPECT_EQ(row->at("value"), StrCat(shown.QuantileNs(q))) << bucket;
  }
}

// ---------------------------------------------------------------------------
// Metric help registry (Prometheus # HELP).

TEST(MetricHelpTest, ExactPrefixOverrideAndFallback) {
  // Exact names and dotted-prefix rules resolve to real text; unknown
  // names fall back to a generic description that still mentions them.
  EXPECT_EQ(MetricHelp("no.such.metric"), "engine metric no.such.metric");
  EXPECT_NE(MetricHelp("query.statements"),
            "engine metric query.statements");
  EXPECT_NE(MetricHelp("waits.latch.total_ns"),
            "engine metric waits.latch.total_ns");
  RegisterMetricHelp("test.custom.metric", "custom help text");
  EXPECT_EQ(MetricHelp("test.custom.metric"), "custom help text");
}

// ---------------------------------------------------------------------------
// Wait-event registry.

TEST(WaitRegistryTest, RecordAggregatesPerSiteAndClass) {
  WaitEventRegistry& reg = WaitEventRegistry::Global();
  WaitEventRegistry::Site& site =
      reg.RegisterSite("test.wait_a", WaitClass::kLatch);
  EXPECT_EQ(&reg.RegisterSite("test.wait_a", WaitClass::kLatch), &site);

  reg.Reset();
  const uint64_t attributed_before = reg.attributed_wait_ns();
  site.Record(0, 1500);
  site.Record(0, 3000);
  EXPECT_GE(reg.attributed_wait_ns() - attributed_before, 4500u);

  bool found = false;
  for (const WaitEventRegistry::SiteSnapshot& s : reg.Snapshot()) {
    if (s.name != "test.wait_a") continue;
    found = true;
    EXPECT_EQ(s.cls, WaitClass::kLatch);
    EXPECT_EQ(s.count, 2u);
    EXPECT_EQ(s.total_ns, 4500u);
    EXPECT_EQ(s.max_ns, 3000u);
    EXPECT_EQ(s.buckets[1], 1u);  // 1500 -> [1024, 2048)
    EXPECT_EQ(s.buckets[2], 1u);  // 3000 -> [2048, 4096)
  }
  EXPECT_TRUE(found);

  const auto per_class = reg.PerClass();
  EXPECT_GE(per_class[static_cast<size_t>(WaitClass::kLatch)].count, 2u);
  EXPECT_GE(per_class[static_cast<size_t>(WaitClass::kLatch)].total_ns,
            4500u);
}

TEST(WaitRegistryTest, DisabledScopedWaitRecordsNothing) {
  WaitEventRegistry& reg = WaitEventRegistry::Global();
  WaitEventRegistry::Site& site =
      reg.RegisterSite("test.wait_disabled", WaitClass::kLock);
  reg.set_enabled(false);
  { ScopedWait wait(site); }
  reg.set_enabled(true);
  for (const WaitEventRegistry::SiteSnapshot& s : reg.Snapshot()) {
    if (s.name == "test.wait_disabled") {
      EXPECT_EQ(s.count, 0u);
    }
  }
}

TEST(WaitRegistryTest, CaptureCollectsSpansOnSessionTrack) {
  WaitEventRegistry& reg = WaitEventRegistry::Global();
  WaitEventRegistry::Site& site =
      reg.RegisterSite("test.wait_capture", WaitClass::kIo);
  reg.StartCapture();
  site.Record(WaitNowNs(), 2000);
  std::vector<WaitEventRegistry::WaitSpan> spans = reg.StopCapture();
  bool found = false;
  for (const WaitEventRegistry::WaitSpan& s : spans) {
    if (std::string_view(s.site) != "test.wait_capture") continue;
    found = true;
    EXPECT_EQ(s.cls, WaitClass::kIo);
    EXPECT_EQ(s.dur_ns, 2000u);
  }
  EXPECT_TRUE(found);

  // Outside a capture window nothing is collected.
  site.Record(WaitNowNs(), 2000);
  EXPECT_TRUE(reg.StopCapture().empty());
}

TEST(WaitRegistryTest, TrackedLockUncontendedRecordsNothing) {
  WaitEventRegistry& reg = WaitEventRegistry::Global();
  WaitEventRegistry::Site& site =
      reg.RegisterSite("test.wait_tracked_lock", WaitClass::kLock);
  std::mutex m;
  { TrackedLock<std::mutex> lock(m, site); }
  std::shared_mutex sm;
  { TrackedSharedLock<std::shared_mutex> lock(sm, site); }
  for (const WaitEventRegistry::SiteSnapshot& s : reg.Snapshot()) {
    if (s.name == "test.wait_tracked_lock") {
      EXPECT_EQ(s.count, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Telemetry sampler (manual Tick: deterministic, no thread, no sleeps).

TEST(TelemetrySamplerTest, ManualTickSamplesAndBoundsRings) {
  MetricsRegistry reg;
  Counter& c = reg.counter("t.count");
  reg.gauge("t.gauge").Set(7);
  reg.histogram("t.hist").Record(100);

  TelemetrySampler sampler(/*ring_capacity=*/3);
  sampler.SetRegistry(&reg);
  for (int i = 1; i <= 5; ++i) {
    c.Add(1);
    sampler.Tick();
  }
  EXPECT_EQ(sampler.ticks(), 5u);
  EXPECT_EQ(sampler.ring_capacity(), 3u);

  std::vector<TelemetrySampler::SeriesSnapshot> series = sampler.Snapshot();
  ASSERT_EQ(series.size(), 3u);  // sorted by name
  const TelemetrySampler::SeriesSnapshot& count = series[0];
  EXPECT_EQ(count.name, "t.count");
  EXPECT_EQ(count.kind, 'c');
  EXPECT_EQ(count.total_samples, 5u);
  ASSERT_EQ(count.samples.size(), 3u);  // oldest two evicted
  EXPECT_EQ(count.samples.front().seq, 3u);
  EXPECT_EQ(count.samples.front().value, 3u);
  EXPECT_EQ(count.samples.back().seq, 5u);
  EXPECT_EQ(count.samples.back().value, 5u);

  EXPECT_EQ(series[1].name, "t.gauge");
  EXPECT_EQ(series[1].kind, 'g');
  EXPECT_EQ(series[1].samples.back().value, 7u);
  EXPECT_EQ(series[2].name, "t.hist");
  EXPECT_EQ(series[2].kind, 'h');
  EXPECT_EQ(series[2].samples.back().value, 1u);  // histograms: their count

  sampler.Clear();
  EXPECT_EQ(sampler.ticks(), 0u);
  EXPECT_TRUE(sampler.Snapshot().empty());
}

TEST(TelemetrySamplerTest, IntervalClampAndStartStopIdempotent) {
  TelemetrySampler sampler;
  EXPECT_EQ(sampler.interval_ms(), 100u);  // default
  sampler.SetIntervalMs(0);
  EXPECT_EQ(sampler.interval_ms(), 1u);
  sampler.SetIntervalMs(10'000'000);
  EXPECT_EQ(sampler.interval_ms(), 3'600'000u);

  MetricsRegistry reg;
  reg.counter("x").Add(1);
  sampler.SetRegistry(&reg);
  sampler.SetIntervalMs(1);
  EXPECT_FALSE(sampler.running());
  sampler.Start();
  EXPECT_TRUE(sampler.running());
  sampler.Start();  // idempotent
  EXPECT_TRUE(sampler.running());
  sampler.Stop();
  EXPECT_FALSE(sampler.running());
  sampler.Stop();  // idempotent

  // A detached sampler ignores ticks entirely: no samples, no count.
  sampler.SetRegistry(nullptr);
  sampler.Clear();
  sampler.Tick();
  EXPECT_EQ(sampler.ticks(), 0u);
  EXPECT_TRUE(sampler.Snapshot().empty());
}

// ---------------------------------------------------------------------------
// Structured event log.

TEST(LoggerTest, LevelGatesEventsAndRingRecordsThem) {
  Logger logger(LogLevel::kWarn, /*ring_capacity=*/8);
  EXPECT_FALSE(logger.ShouldLog(LogLevel::kInfo));
  EXPECT_TRUE(logger.ShouldLog(LogLevel::kWarn));

  logger.Log(LogLevel::kInfo, "wal", "append");  // filtered out
  logger.Log(LogLevel::kWarn, "wal", "checkpoint", {{"records", "12"}});
  std::vector<LogEvent> events = logger.ring().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].component, "wal");
  EXPECT_EQ(events[0].event, "checkpoint");

  std::string text = events[0].ToText();
  EXPECT_NE(text.find("warn"), std::string::npos);
  EXPECT_NE(text.find("wal.checkpoint"), std::string::npos);
  EXPECT_NE(text.find("records=12"), std::string::npos);

  std::string json = events[0].ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"component\":\"wal\""), std::string::npos);
  EXPECT_NE(json.find("\"event\":\"checkpoint\""), std::string::npos);
  EXPECT_NE(json.find("\"records\":\"12\""), std::string::npos);
}

TEST(LoggerTest, RingDropsOldestAtCapacity) {
  Logger logger(LogLevel::kInfo, /*ring_capacity=*/2);
  logger.Log(LogLevel::kInfo, "t", "first");
  logger.Log(LogLevel::kInfo, "t", "second");
  logger.Log(LogLevel::kInfo, "t", "third");

  EXPECT_EQ(logger.ring().size(), 2u);
  EXPECT_EQ(logger.ring().dropped(), 1u);
  std::vector<LogEvent> events = logger.ring().Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].event, "second");
  EXPECT_EQ(events[1].event, "third");
  EXPECT_LT(events[0].seq, events[1].seq);

  logger.ring().Clear();
  EXPECT_EQ(logger.ring().size(), 0u);
}

TEST(LoggerTest, ParseLogLevelRoundTrips) {
  LogLevel level;
  ASSERT_TRUE(ParseLogLevel("DEBUG", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  ASSERT_TRUE(ParseLogLevel("off", &level));
  EXPECT_EQ(level, LogLevel::kOff);
  EXPECT_FALSE(ParseLogLevel("chatty", &level));
  EXPECT_STREQ(LogLevelName(LogLevel::kWarn), "warn");
}

// ---------------------------------------------------------------------------
// Exporters.

TEST(ExportTest, ChromeTraceJsonRendersSpansAndSessionWaits) {
  Trace trace;
  {
    Trace::Scope outer(&trace, "execute");
    outer.Note("rows", 7);
    { Trace::Scope inner(&trace, "plan"); }
  }
  std::vector<WaitEventRegistry::WaitSpan> waits;
  waits.push_back(
      {"cache.map_latch", WaitClass::kLatch, trace.epoch_ns() + 1000, 500});

  std::string json = ChromeTraceJson(trace, waits);
  EXPECT_EQ(json.find("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["), 0u);
  EXPECT_EQ(json.substr(json.size() - 2), "]}");
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"execute\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"plan\""), std::string::npos);
  EXPECT_NE(json.find("\"rows\":7"), std::string::npos);
  // The wait span lands on the session track (tid 2), named as such.
  EXPECT_NE(json.find("\"tid\":2,\"name\":\"thread_name\","
                      "\"args\":{\"name\":\"session\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"tid\":2,\"name\":\"wait:cache.map_latch\","
                      "\"cat\":\"wait\",\"ts\":1.000,\"dur\":0.500"),
            std::string::npos);
  EXPECT_NE(json.find("\"class\":\"latch\""), std::string::npos);
}

TEST(ExportTest, PrometheusTextExposition) {
  MetricsRegistry reg;
  reg.counter("query.statements").Add(3);
  reg.gauge("cache.entries").Set(2);
  reg.histogram("query.latency_ns").Record(1500);

  std::string text = PrometheusText(reg);
  EXPECT_NE(text.find("# TYPE hirel_query_statements counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("hirel_query_statements{name=\"query.statements\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE hirel_cache_entries gauge\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE hirel_query_latency_ns histogram\n"),
            std::string::npos);
  // 1500 ns lands in [1024, 2048): cumulative buckets step 0 -> 1.
  EXPECT_NE(text.find("le=\"1024\"} 0\n"), std::string::npos);
  EXPECT_NE(text.find("le=\"2048\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\"} 1\n"), std::string::npos);
  EXPECT_NE(
      text.find("hirel_query_latency_ns_sum{name=\"query.latency_ns\"} 1500\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("hirel_query_latency_ns_count{name=\"query.latency_ns\"} 1\n"),
      std::string::npos);
}

TEST(ExportTest, PrometheusHelpLinePrecedesEveryTypeLine) {
  MetricsRegistry reg;
  reg.counter("query.statements").Add(3);
  reg.gauge("cache.entries").Set(1);
  reg.histogram("wal.flush_ns").Record(10);
  RegisterMetricHelp("wal.flush_ns", "time spent in WAL flushes");

  std::string text = PrometheusText(reg);
  // Every # TYPE line is immediately preceded by a # HELP line for the
  // same exported metric name.
  std::istringstream lines(text);
  std::string prev, line;
  size_t types = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      ++types;
      std::string metric = line.substr(7, line.find(' ', 7) - 7);
      EXPECT_EQ(prev.rfind("# HELP " + metric + " ", 0), 0u) << line;
    }
    prev = line;
  }
  EXPECT_EQ(types, 3u);
  EXPECT_NE(text.find("# HELP hirel_wal_flush_ns time spent in WAL flushes"),
            std::string::npos);
}

TEST(ExportTest, PrometheusEscapesRawNameLabel) {
  MetricsRegistry reg;
  reg.counter("weird\"name\\with\nstuff").Add(1);
  std::string text = PrometheusText(reg);
  EXPECT_NE(text.find("# TYPE hirel_weird_name_with_stuff counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("name=\"weird\\\"name\\\\with\\nstuff\""),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Executor surface.

constexpr const char* kFlyingScript = R"(
CREATE HIERARCHY animal;
CREATE CLASS bird IN animal;
CREATE CLASS penguin IN animal UNDER bird;
CREATE CLASS afp IN animal UNDER penguin;
CREATE INSTANCE peter IN animal UNDER afp;
CREATE RELATION flies (who: animal);
ASSERT flies(ALL bird);
DENY flies(ALL penguin);
ASSERT flies(ALL afp);
)";

TEST(ExecutorObsTest, DeterministicCountersAfterScript) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  MetricsRegistry& m = exec.database().metrics();
  EXPECT_EQ(m.counter("query.statements").value(), 9u);
  EXPECT_EQ(m.counter("facts.asserted").value(), 2u);
  EXPECT_EQ(m.counter("facts.denied").value(), 1u);
  EXPECT_EQ(m.counter("query.errors").value(), 0u);
}

TEST(ExecutorObsTest, ShowMetricsIsNonzeroAndJsonWellFormed) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  ASSERT_TRUE(exec.Execute("SELECT * FROM flies WHERE who = penguin;").ok());

  std::string text = exec.Execute("SHOW METRICS;").value();
  EXPECT_NE(text.find("query.statements"), std::string::npos);
  EXPECT_NE(text.find("plan.nodes_executed"), std::string::npos);
  EXPECT_NE(text.find("subsumption_cache."), std::string::npos);
  EXPECT_EQ(text.find("(0 tuples)"), std::string::npos);

  std::string json = exec.Execute("SHOW METRICS JSON;").value();
  std::optional<std::vector<json_rows::Row>> rows =
      json_rows::ParseRows(json);
  ASSERT_TRUE(rows.has_value());
  const json_rows::Row* statements =
      json_rows::FindRow(*rows, {{"name", "query.statements"}});
  ASSERT_NE(statements, nullptr);
  EXPECT_EQ(statements->at("kind"), "counter");
  EXPECT_NE(statements->at("value"), "0");
}

TEST(ExecutorObsTest, ExplainAnalyzeReportsActuals) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  std::string out =
      exec.Execute("EXPLAIN ANALYZE SELECT * FROM flies WHERE who = penguin;")
          .value();
  EXPECT_NE(out.find("analyzed plan for"), std::string::npos);
  EXPECT_NE(out.find("actual rows="), std::string::npos);
  EXPECT_NE(out.find("probes="), std::string::npos);
  EXPECT_NE(out.find("totals: nodes="), std::string::npos);
}

TEST(ExecutorObsTest, ShowTraceReportsPreviousQuery) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  ASSERT_TRUE(exec.Execute("SELECT * FROM flies;").ok());

  std::string trace = exec.Execute("SHOW TRACE;").value();
  EXPECT_NE(trace.find("select"), std::string::npos);
  EXPECT_NE(trace.find("plan"), std::string::npos);
  EXPECT_NE(trace.find("execute"), std::string::npos);

  // SHOW TRACE itself is not trace-worthy: asking again reports the same
  // query, not the SHOW TRACE statement.
  std::string again = exec.Execute("SHOW TRACE;").value();
  EXPECT_NE(again.find("select"), std::string::npos);

  std::string json = exec.Execute("SHOW TRACE JSON;").value();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"name\":\"execute\""), std::string::npos);
}

TEST(ExecutorObsTest, DeriveFixpointRoundsAreTraced) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(R"(
CREATE HIERARCHY h;
CREATE INSTANCE a IN h;
CREATE INSTANCE b IN h;
CREATE INSTANCE c IN h;
CREATE RELATION edge (src: h, dst: h);
CREATE RELATION path (src: h, dst: h);
ASSERT edge(a, b);
ASSERT edge(b, c);
RULE 'path(?x, ?y) :- edge(?x, ?y).';
RULE 'path(?x, ?z) :- path(?x, ?y), edge(?y, ?z).';
DERIVE;
)")
                  .ok());
  std::string trace = exec.Execute("SHOW TRACE;").value();
  EXPECT_NE(trace.find("derive fixpoint"), std::string::npos);
  EXPECT_NE(trace.find("derive round"), std::string::npos);
  EXPECT_GT(exec.database().metrics().counter("derive.facts_derived").value(),
            0u);
}

TEST(ExecutorObsTest, DeriveShowsItsJoinWork) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(R"(
CREATE HIERARCHY h;
CREATE INSTANCE a IN h;
CREATE INSTANCE b IN h;
CREATE INSTANCE c IN h;
CREATE RELATION edge (src: h, dst: h);
CREATE RELATION path (src: h, dst: h);
ASSERT edge(a, b);
ASSERT edge(b, c);
RULE 'path(?x, ?y) :- edge(?x, ?y).';
RULE 'path(?x, ?z) :- path(?x, ?y), edge(?y, ?z).';
)")
                  .ok());
  ASSERT_EQ(exec.Execute("DERIVE;").value(),
            "derived 3 fact(s) from 2 rule(s)\n");

  // Round 0 scans both edges (path's snapshot is empty). Round 1 scans the
  // two delta rows and looks each ?y up in edge's index on src, which
  // holds one row for b. Round 2 scans the delta (a, c): one lookup, no row.
  std::string trace = exec.Execute("SHOW TRACE JSON;").value();
  EXPECT_NE(trace.find("\"derived\":2,\"scanned\":2,\"probes\":0"),
            std::string::npos)
      << trace;
  EXPECT_NE(trace.find("\"derived\":1,\"scanned\":3,\"probes\":2"),
            std::string::npos)
      << trace;
  EXPECT_NE(trace.find("\"derived\":0,\"scanned\":1,\"probes\":1"),
            std::string::npos)
      << trace;

  // sys.queries: rows_in is every body row visited, rows_out the facts.
  std::optional<std::vector<json_rows::Row>> rows =
      json_rows::ParseRows(exec.Execute("SHOW QUERIES JSON;").value());
  ASSERT_TRUE(rows.has_value());
  const json_rows::Row* derive =
      json_rows::FindRow(*rows, {{"kind", "derive"}});
  ASSERT_NE(derive, nullptr);
  EXPECT_EQ(derive->at("rows_in"), "6");
  EXPECT_EQ(derive->at("rows_out"), "3");
}

TEST(ExecutorObsTest, GraphBuildAndPatchAreTraced) {
  std::string snap = std::string(::testing::TempDir()) + "/obs_graph_snap.db";
  {
    hql::Executor writer;
    ASSERT_TRUE(writer.Execute(kFlyingScript).ok());
    ASSERT_TRUE(writer.Execute("SAVE '" + snap + "';").ok());
  }
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute("LOAD '" + snap + "';").ok());
  std::remove(snap.c_str());

  // The first COUNT after LOAD builds the graph under its execute span.
  ASSERT_TRUE(exec.Execute("COUNT flies;").ok());
  std::string first = exec.Execute("SHOW TRACE JSON;").value();
  EXPECT_NE(first.find("\"name\":\"graph.build\""), std::string::npos)
      << first;
  EXPECT_NE(first.find("\"nodes\":3"), std::string::npos) << first;
  EXPECT_NE(first.find("\"edges\":2"), std::string::npos) << first;
  EXPECT_NE(first.find("\"candidates\":3"), std::string::npos) << first;

  // The second is served from the cache and builds nothing.
  ASSERT_TRUE(exec.Execute("COUNT flies;").ok());
  std::string second = exec.Execute("SHOW TRACE JSON;").value();
  EXPECT_EQ(second.find("graph.build"), std::string::npos) << second;
  EXPECT_EQ(second.find("graph.patch"), std::string::npos) << second;

  // A mutation makes the next COUNT patch the cached graph instead.
  ASSERT_TRUE(exec.Execute("ASSERT flies(peter);").ok());
  ASSERT_TRUE(exec.Execute("COUNT flies;").ok());
  std::string third = exec.Execute("SHOW TRACE JSON;").value();
  EXPECT_NE(third.find("\"name\":\"graph.patch\""), std::string::npos)
      << third;
  EXPECT_EQ(third.find("graph.build"), std::string::npos) << third;

  std::optional<std::vector<json_rows::Row>> rows =
      json_rows::ParseRows(exec.Execute("SHOW METRICS JSON;").value());
  ASSERT_TRUE(rows.has_value());
  EXPECT_NE(json_rows::FindRow(*rows, {{"name", "subsumption_cache.build_us"}}),
            nullptr);
  EXPECT_NE(json_rows::FindRow(*rows, {{"name", "subsumption_cache.patch_us"}}),
            nullptr);
}

TEST(ExecutorObsTest, CountShowsItsSweep) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  ASSERT_TRUE(exec.Execute("COUNT flies;").ok());

  // The claim sweep is a span under execute: three tuples swept. The walk
  // from afp claims peter; the walks from penguin and bird stop at the
  // nodes already walked, so no atom is enumerated twice.
  std::string trace = exec.Execute("SHOW TRACE JSON;").value();
  EXPECT_NE(trace.find("\"name\":\"aggregate.sweep\""), std::string::npos)
      << trace;
  EXPECT_NE(trace.find("\"tuples\":3"), std::string::npos) << trace;
  EXPECT_NE(trace.find("\"atoms\":1"), std::string::npos) << trace;
  EXPECT_NE(trace.find("\"claimed\":1"), std::string::npos) << trace;

  // sys.queries charges the visited set to the COUNT.
  std::optional<std::vector<json_rows::Row>> rows =
      json_rows::ParseRows(exec.Execute("SHOW QUERIES JSON;").value());
  ASSERT_TRUE(rows.has_value());
  const json_rows::Row* count = json_rows::FindRow(*rows, {{"kind", "count"}});
  ASSERT_NE(count, nullptr);
  EXPECT_GT(std::stoull(count->at("peak_bytes")), 0u);
  EXPECT_EQ(count->at("rows_in"), "3");

  // EXPLAIN ANALYZE puts the swept tuples on the Aggregate line.
  std::string plan = exec.Execute("EXPLAIN ANALYZE COUNT flies;").value();
  EXPECT_NE(plan.find("rows_in=3"), std::string::npos) << plan;
  std::string again = exec.Execute("SHOW TRACE JSON;").value();
  EXPECT_NE(again.find("\"name\":\"aggregate.sweep\""), std::string::npos)
      << again;
}

/// Spans named `name` anywhere under `spans`.
size_t CountSpans(const std::vector<std::unique_ptr<TraceSpan>>& spans,
                  const std::string& name) {
  size_t n = 0;
  for (const auto& span : spans) {
    n += (span->name == name) + CountSpans(span->children, name);
  }
  return n;
}

TEST(ExecutorObsTest, IntegrityChecksAreTraced) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());

  // Each guarded fact statement runs the ambiguity check once, in its own
  // span noted with the relation's size after the change.
  ASSERT_TRUE(exec.Execute("ASSERT flies(peter);").ok());
  EXPECT_EQ(CountSpans(exec.last_trace().spans(), "integrity.check"), 1u);
  std::string json = exec.Execute("SHOW TRACE JSON;").value();
  EXPECT_NE(json.find("\"name\":\"integrity.check\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"tuples\":4"), std::string::npos) << json;
  ASSERT_TRUE(exec.Execute("RETRACT flies(peter);").ok());
  EXPECT_EQ(CountSpans(exec.last_trace().spans(), "integrity.check"), 1u);

  // Inside a transaction, staging checks nothing; COMMIT checks once.
  ASSERT_TRUE(exec.Execute("BEGIN flies;").ok());
  ASSERT_TRUE(exec.Execute("ASSERT flies(peter);").ok());
  EXPECT_EQ(CountSpans(exec.last_trace().spans(), "integrity.check"), 0u);
  ASSERT_TRUE(exec.Execute("COMMIT;").ok());
  EXPECT_EQ(CountSpans(exec.last_trace().spans(), "integrity.check"), 1u);
  EXPECT_NE(exec.Execute("SHOW TRACE;").value().find("integrity.check"),
            std::string::npos);
}

TEST(ExecutorObsTest, WalCountersTrackAppendsAndReplay) {
  std::string dir = std::string(::testing::TempDir()) + "/obs_wal_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  {
    auto ldb = LoggedDatabase::Open(dir).value();
    ASSERT_TRUE(ldb->CreateHierarchy("h").ok());
    ASSERT_TRUE(ldb->CreateRelation("r", {{"x", "h"}}).ok());
    MetricsRegistry& m = ldb->db().metrics();
    EXPECT_EQ(m.counter("wal.records_appended").value(), 2u);
    EXPECT_GT(m.counter("wal.bytes_appended").value(), 0u);
    EXPECT_EQ(m.counter("wal.flushes").value(), 2u);
  }
  {
    auto ldb = LoggedDatabase::Open(dir).value();
    EXPECT_EQ(ldb->db().metrics().counter("wal.records_replayed").value(), 2u);
  }
  std::filesystem::remove_all(dir);
}

TEST(ExecutorObsTest, ResetMetricsZeroesEverything) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  ASSERT_GT(exec.database().metrics().counter("facts.asserted").value(), 0u);

  std::string out = exec.Execute("RESET METRICS;").value();
  EXPECT_NE(out.find("metrics reset"), std::string::npos);
  EXPECT_EQ(exec.database().metrics().counter("facts.asserted").value(), 0u);
}

TEST(ExecutorObsTest, ResetMetricsKeepsHandlesValid) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  MetricsRegistry& m = exec.database().metrics();
  Counter& asserted = m.counter("facts.asserted");
  Histogram& latency = m.histogram("query.latency_ns");
  ASSERT_GT(asserted.value(), 0u);

  ASSERT_TRUE(exec.Execute("RESET METRICS;").ok());
  EXPECT_EQ(asserted.value(), 0u);
  asserted.Add(2);
  latency.Record(4096);
  EXPECT_EQ(m.counter("facts.asserted").value(), 2u);
  EXPECT_EQ(m.histogram("query.latency_ns").count(), 1u);
}

TEST(ExecutorObsTest, ShowLogEmptyRendersNoRows) {
  hql::Executor exec;
  // The logger is process-wide and earlier tests may have filled it;
  // clear after the first statement so the ring is genuinely empty.
  ASSERT_TRUE(exec.Execute("SHOW METRICS;").ok());
  Logger::Global().ring().Clear();
  std::string out = exec.Execute("SHOW LOG;").value();
  EXPECT_EQ(out.find("sys.log (0 tuples)"), 0u);
  EXPECT_EQ(exec.Execute("SHOW LOG JSON;").value(), "[]\n");
}

TEST(ExecutorObsTest, DdlEventsReachShowLog) {
  Logger::Global().ring().Clear();
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());

  std::string text = exec.Execute("SHOW LOG;").value();
  EXPECT_EQ(text.find("sys.log ("), 0u);
  EXPECT_NE(text.find("| catalog "), std::string::npos);
  EXPECT_NE(text.find("| create_hierarchy name=animal"), std::string::npos);
  EXPECT_NE(text.find("| create_relation "), std::string::npos);

  std::optional<std::vector<json_rows::Row>> rows =
      json_rows::ParseRows(exec.Execute("SHOW LOG JSON;").value());
  ASSERT_TRUE(rows.has_value());
  EXPECT_NE(json_rows::FindRow(*rows, {{"component", "catalog"},
                                       {"message", "create_hierarchy name=animal"}}),
            nullptr);
}

TEST(ExecutorObsTest, SetLogValidatesAndSetsLevel) {
  hql::Executor exec;
  std::string out = exec.Execute("SET LOG debug;").value();
  EXPECT_NE(out.find("log level: debug"), std::string::npos);
  EXPECT_EQ(Logger::Global().min_level(), LogLevel::kDebug);

  EXPECT_TRUE(exec.Execute("SET LOG chatty;").status().IsInvalidArgument());
  EXPECT_EQ(Logger::Global().min_level(), LogLevel::kDebug);

  ASSERT_TRUE(exec.Execute("SET LOG info;").ok());
  EXPECT_EQ(Logger::Global().min_level(), LogLevel::kInfo);
}

TEST(ExecutorObsTest, SlowQueryLogVisibleInShowLogJson) {
  Logger::Global().ring().Clear();
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());

  std::string armed = exec.Execute("SET SLOW_QUERY_MS 0;").value();
  EXPECT_NE(armed.find("threshold 0 ms"), std::string::npos);
  ASSERT_TRUE(exec.Execute("SELECT * FROM flies WHERE who = penguin;").ok());

  std::string json = exec.Execute("SHOW LOG JSON;").value();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"message\":\"slow_query "), std::string::npos);
  EXPECT_NE(json.find("text=SELECT * FROM flies WHERE who = penguin"),
            std::string::npos);
  EXPECT_NE(json.find(" digest="), std::string::npos);
  EXPECT_NE(json.find(" nodes_executed="), std::string::npos);
  EXPECT_GE(exec.database().metrics().counter("query.slow_queries").value(),
            1u);

  std::string off = exec.Execute("SET SLOW_QUERY_MS OFF;").value();
  EXPECT_NE(off.find("slow-query log: off"), std::string::npos);
}

TEST(ExecutorObsTest, ShowMetricsPrometheusRendersExposition) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  ASSERT_TRUE(exec.Execute("SELECT * FROM flies;").ok());

  std::string text = exec.Execute("SHOW METRICS PROMETHEUS;").value();
  EXPECT_NE(text.find("# TYPE hirel_query_statements counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE hirel_query_execute_ns histogram"),
            std::string::npos);
  EXPECT_NE(text.find("hirel_subsumption_cache_entries"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
}

TEST(ExecutorObsTest, ExportTraceWritesParseableChromeJson) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  ASSERT_TRUE(exec.Execute("SELECT * FROM flies;").ok());

  std::string path = std::string(::testing::TempDir()) + "/obs_trace.json";
  std::string out = exec.Execute("EXPORT TRACE '" + path + "';").value();
  EXPECT_NE(out.find("exported trace to"), std::string::npos);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string json = buffer.str();
  EXPECT_EQ(json.find("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["), 0u);
  EXPECT_EQ(json.substr(json.size() - 2), "]}");
  EXPECT_NE(json.find("\"name\":\"execute\""), std::string::npos);
  // Braces and brackets stay balanced: the escaping above means none can
  // appear inside string values unmatched.
  int depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  std::remove(path.c_str());
}

TEST(ExecutorObsTest, ShowMetricsReportsStorageGauges) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());

  std::string text = exec.Execute("SHOW METRICS;").value();
  EXPECT_NE(text.find("storage.relations"), std::string::npos);
  EXPECT_NE(text.find("storage.bytes"), std::string::npos);

  // The gauges count `flies` and its bytes.
  MetricsRegistry& m = exec.database().metrics();
  EXPECT_GE(m.gauge("storage.relations").value(), 1);
  EXPECT_EQ(m.gauge("storage.bytes").value(),
            static_cast<int64_t>(
                exec.database().GetRelation("flies").value()->ApproxBytes()));
}

// ---------------------------------------------------------------------------
// Wait attribution and telemetry on the executor surface.

TEST(ExecutorObsTest, ExplainAnalyzeReportsPerNodeWaitNs) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  std::string out =
      exec.Execute("EXPLAIN ANALYZE SELECT * FROM flies WHERE who = penguin;")
          .value();
  EXPECT_NE(out.find("wait_ns="), std::string::npos);
  EXPECT_NE(out.find("totals: nodes="), std::string::npos);
}

TEST(ExecutorObsTest, SlowQueryLogSplitsWaitAndExec) {
  Logger::Global().ring().Clear();
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  ASSERT_TRUE(exec.Execute("SET SLOW_QUERY_MS 0;").ok());
  ASSERT_TRUE(exec.Execute("SELECT * FROM flies;").ok());

  std::string json = exec.Execute("SHOW LOG JSON;").value();
  EXPECT_NE(json.find("\"message\":\"slow_query "), std::string::npos);
  EXPECT_NE(json.find(" wait_ms="), std::string::npos);
  EXPECT_NE(json.find(" exec_ms="), std::string::npos);
}

TEST(ExecutorObsTest, ShowQueriesReportsWaitShare) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  ASSERT_TRUE(exec.Execute("SELECT * FROM flies;").ok());

  std::string text = exec.Execute("SHOW QUERIES;").value();
  EXPECT_NE(text.find("| wait_us "), std::string::npos);
  std::optional<std::vector<json_rows::Row>> rows =
      json_rows::ParseRows(exec.Execute("SHOW QUERIES JSON;").value());
  ASSERT_TRUE(rows.has_value());
  const json_rows::Row* select = json_rows::FindRow(*rows, {{"kind", "select"}});
  ASSERT_NE(select, nullptr);
  EXPECT_TRUE(select->is_number("wait_us"));
}

TEST(ExecutorObsTest, SetTelemetryControlsSampler) {
  hql::Executor exec;
  std::string on = exec.Execute("SET TELEMETRY ON;").value();
  EXPECT_NE(on.find("telemetry: on"), std::string::npos);
  EXPECT_TRUE(exec.telemetry().running());

  std::string off = exec.Execute("SET TELEMETRY OFF;").value();
  EXPECT_NE(off.find("telemetry: off"), std::string::npos);
  EXPECT_FALSE(exec.telemetry().running());

  std::string interval = exec.Execute("SET TELEMETRY INTERVAL 250;").value();
  EXPECT_NE(interval.find("interval 250 ms"), std::string::npos);
  EXPECT_EQ(exec.telemetry().interval_ms(), 250u);
  EXPECT_TRUE(exec.Execute("SET TELEMETRY INTERVAL 0;")
                  .status()
                  .IsInvalidArgument());
}

TEST(ExecutorObsTest, ShowTelemetryRendersHistoryAfterManualTicks) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  ASSERT_TRUE(exec.Execute("SET TELEMETRY INTERVAL 50;").ok());
  exec.telemetry().Tick();
  exec.telemetry().Tick();

  std::string text = exec.Execute("SHOW TELEMETRY;").value();
  EXPECT_EQ(text.find("sys.metrics_history ("), 0u);
  EXPECT_NE(text.find("query.statements"), std::string::npos);

  // One row per retained sample: both ticks of query.statements.
  std::optional<std::vector<json_rows::Row>> rows =
      json_rows::ParseRows(exec.Execute("SHOW TELEMETRY JSON;").value());
  ASSERT_TRUE(rows.has_value());
  for (const char* seq : {"1", "2"}) {
    const json_rows::Row* sample = json_rows::FindRow(
        *rows, {{"name", "query.statements"}, {"seq", seq}});
    ASSERT_NE(sample, nullptr) << seq;
    EXPECT_TRUE(sample->is_number("value"));
  }

  // The sampler's state lives in sys.session.
  std::vector<json_rows::Row> session =
      json_rows::SysRows(exec.database(), "sys.session");
  EXPECT_NE(json_rows::FindRow(session, {{"key", "telemetry"}, {"value", "off"}}),
            nullptr);
  EXPECT_NE(json_rows::FindRow(session, {{"key", "telemetry_interval_ms"},
                                         {"value", "50"}}),
            nullptr);
  EXPECT_NE(json_rows::FindRow(session, {{"key", "telemetry_ticks"},
                                         {"value", "2"}}),
            nullptr);
}

TEST(ExecutorObsTest, ExportTraceIncludesWaitSpans) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  // SAVE blocks on snapshot.save (an io wait), which the trace-worthy
  // statement's capture window records.
  std::string snap = std::string(::testing::TempDir()) + "/obs_wait_snap.db";
  ASSERT_TRUE(exec.Execute("SAVE '" + snap + "';").ok());

  std::string path = std::string(::testing::TempDir()) + "/obs_wait_trace.json";
  ASSERT_TRUE(exec.Execute("EXPORT TRACE '" + path + "';").ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string json = buffer.str();
  EXPECT_NE(json.find("\"name\":\"wait:snapshot.save\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"wait\""), std::string::npos);
  EXPECT_NE(json.find("\"class\":\"io\""), std::string::npos);
  std::remove(path.c_str());
  std::remove(snap.c_str());
}

TEST(ExecutorObsTest, ResultsIdenticalWithWaitInstrumentationOff) {
  auto run = [] {
    hql::Executor exec;
    std::string out;
    out += exec.Execute(kFlyingScript).value();
    out += exec.Execute("SELECT * FROM flies;").value();
    out += exec.Execute("SELECT * FROM flies WHERE who = penguin;").value();
    out += exec.Execute("COUNT flies;").value();
    return out;
  };
  std::string with_waits = run();
  WaitEventRegistry::Global().set_enabled(false);
  std::string without_waits = run();
  WaitEventRegistry::Global().set_enabled(true);
  EXPECT_EQ(with_waits, without_waits);
}

TEST(ExecutorObsTest, ResetMetricsAlsoZeroesWaitAggregates) {
  hql::Executor exec;
  WaitEventRegistry& reg = WaitEventRegistry::Global();
  reg.RegisterSite("test.wait_reset", WaitClass::kIo).Record(0, 5000);
  ASSERT_TRUE(exec.Execute("RESET METRICS;").ok());
  for (const WaitEventRegistry::SiteSnapshot& s : reg.Snapshot()) {
    EXPECT_EQ(s.count, 0u) << s.name;
  }
  EXPECT_EQ(reg.attributed_wait_ns(), 0u);
}

}  // namespace
}  // namespace obs
}  // namespace hirel
