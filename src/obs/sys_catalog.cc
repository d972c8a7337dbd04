#include "obs/sys_catalog.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/str_util.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/wait.h"

namespace hirel {
namespace obs {
namespace {

/// The hidden hierarchies shared by every provider: one per semantic
/// domain, so attributes with the same name across sys relations range
/// over the same hierarchy and natural joins stay well-typed.
struct SysDomains {
  Hierarchy* label = nullptr;     // sys.label: names, kinds, buckets, ...
  Hierarchy* metric = nullptr;    // sys.metric: dotted metric-name tree
  Hierarchy* severity = nullptr;  // sys.severity: debug ⊃ info ⊃ warn ⊃ error
  Hierarchy* num = nullptr;       // sys.num: interned integer measures
  Hierarchy* text = nullptr;      // sys.text: free-form strings
  Hierarchy* waitsite = nullptr;  // sys.waitsite: wait class ⊃ wait site
  Hierarchy* alertsev = nullptr;  // sys.alertsev: info ⊃ warn ⊃ crit
};

/// Interns a metric name into the metric-name hierarchy: one class per
/// dotted prefix ("waits", "waits.io"), the full name as an instance
/// under the deepest prefix. `ALL waits` then covers the waits.* subtree.
NodeId InternMetricName(Hierarchy& h, const std::string& name) {
  NodeId parent = h.root();
  size_t pos = 0;
  for (size_t dot = name.find('.'); dot != std::string::npos;
       dot = name.find('.', pos)) {
    std::string prefix = name.substr(0, dot);
    Result<NodeId> cls = h.FindClass(prefix);
    if (cls.ok()) {
      parent = *cls;
    } else {
      Result<NodeId> added = h.AddClass(prefix, parent);
      if (!added.ok()) break;  // unreachable: names are prefix-unique
      parent = *added;
    }
    pos = dot + 1;
  }
  Result<NodeId> instance = h.FindInstance(Value::String(name));
  if (instance.ok()) return *instance;
  Result<NodeId> added = h.AddInstance(Value::String(name), parent);
  return added.ok() ? *added : h.Intern(Value::String(name));
}

/// Interns a wait site under its wait-class class node (added at
/// registration), so `ALL latch` covers every latch site.
NodeId InternWaitSite(Hierarchy& h, WaitClass cls, const std::string& site) {
  NodeId parent = h.root();
  Result<NodeId> cls_node = h.FindClass(WaitClassName(cls));
  if (cls_node.ok()) parent = *cls_node;
  Result<NodeId> instance = h.FindInstance(Value::String(site));
  if (instance.ok()) return *instance;
  Result<NodeId> added = h.AddInstance(Value::String(site), parent);
  return added.ok() ? *added : h.Intern(Value::String(site));
}

/// Common shape of a provider: fixed name + schema, rows built fresh on
/// every Materialize. schema() refreshes the hierarchy domains first so
/// WHERE terms resolve at plan-compile time.
class SysProviderBase : public VirtualRelationProvider {
 public:
  SysProviderBase(std::string name, Schema schema, SysDomains domains)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        domains_(domains) {}

  const std::string& name() const override { return name_; }

  const Schema& schema() override {
    RefreshDomains();
    return schema_;
  }

 protected:
  virtual void RefreshDomains() {}

  HierarchicalRelation NewRelation() const {
    return HierarchicalRelation(name_, schema_);
  }

  static Status AddRow(HierarchicalRelation& rel, Item item) {
    return rel.Upsert(std::move(item), Truth::kPositive).status();
  }

  NodeId Label(const std::string& s) {
    return domains_.label->Intern(Value::String(s));
  }
  NodeId Num(uint64_t v) {
    return domains_.num->Intern(Value::Int(static_cast<int64_t>(v)));
  }
  NodeId Text(const std::string& s) {
    return domains_.text->Intern(Value::String(s));
  }

  std::string name_;
  Schema schema_;
  SysDomains domains_;
};

// ----- sys.metrics ----------------------------------------------------------

class SysMetricsProvider : public SysProviderBase {
 public:
  SysMetricsProvider(std::string name, Schema schema, SysDomains domains,
                     const Database* db)
      : SysProviderBase(std::move(name), std::move(schema), domains),
        db_(db) {}

  size_t EstimatedRows() override {
    const MetricsRegistry& m = db_->metrics();
    return m.counters().size() + m.gauges().size() +
           8 * m.histograms().size();
  }

  Result<HierarchicalRelation> Materialize() override {
    RefreshDomains();
    HierarchicalRelation rel = NewRelation();
    const MetricsRegistry& m = db_->metrics();
    NodeId counter_kind = Label("counter");
    NodeId gauge_kind = Label("gauge");
    NodeId histogram_kind = Label("histogram");
    NodeId no_bucket = Label("-");
    for (const auto& [metric, c] : m.counters()) {
      HIREL_RETURN_IF_ERROR(AddRow(
          rel, Item{InternMetricName(*domains_.metric, metric), counter_kind,
                    Num(c->value()), no_bucket}));
    }
    for (const auto& [metric, g] : m.gauges()) {
      HIREL_RETURN_IF_ERROR(AddRow(
          rel, Item{InternMetricName(*domains_.metric, metric), gauge_kind,
                    Num(static_cast<uint64_t>(g->value())), no_bucket}));
    }
    for (const auto& [metric, h] : m.histograms()) {
      NodeId metric_node = InternMetricName(*domains_.metric, metric);
      HIREL_RETURN_IF_ERROR(AddRow(rel, Item{metric_node, histogram_kind,
                                             Num(h->count()),
                                             Label("count")}));
      HIREL_RETURN_IF_ERROR(AddRow(rel, Item{metric_node, histogram_kind,
                                             Num(h->sum_ns()),
                                             Label("sum_ns")}));
      HIREL_RETURN_IF_ERROR(AddRow(rel, Item{metric_node, histogram_kind,
                                             Num(h->max_ns()),
                                             Label("max_ns")}));
      if (h->count() > 0) {
        HIREL_RETURN_IF_ERROR(AddRow(rel, Item{metric_node, histogram_kind,
                                               Num(h->QuantileNs(0.5)),
                                               Label("p50_ns")}));
        HIREL_RETURN_IF_ERROR(AddRow(rel, Item{metric_node, histogram_kind,
                                               Num(h->QuantileNs(0.9)),
                                               Label("p90_ns")}));
        HIREL_RETURN_IF_ERROR(AddRow(rel, Item{metric_node, histogram_kind,
                                               Num(h->QuantileNs(0.99)),
                                               Label("p99_ns")}));
      }
      for (size_t i = 0; i < Histogram::kBuckets; ++i) {
        if (h->bucket(i) == 0) continue;
        uint64_t bound = Histogram::BucketBound(i);
        NodeId bucket = bound > 0 ? Label(StrCat("le_", bound, "_ns"))
                                  : Label("overflow");
        HIREL_RETURN_IF_ERROR(AddRow(rel, Item{metric_node, histogram_kind,
                                               Num(h->bucket(i)),
                                               bucket}));
      }
    }
    return rel;
  }

 protected:
  void RefreshDomains() override {
    SyncEngineGauges(*db_);
    const MetricsRegistry& m = db_->metrics();
    for (const auto& [metric, c] : m.counters()) {
      InternMetricName(*domains_.metric, metric);
      Num(c->value());
    }
    for (const auto& [metric, g] : m.gauges()) {
      InternMetricName(*domains_.metric, metric);
      Num(static_cast<uint64_t>(g->value()));
    }
    for (const auto& [metric, _] : m.histograms()) {
      InternMetricName(*domains_.metric, metric);
    }
  }

 private:
  const Database* db_;
};

// ----- sys.log --------------------------------------------------------------

class SysLogProvider : public SysProviderBase {
 public:
  using SysProviderBase::SysProviderBase;

  size_t EstimatedRows() override {
    return Logger::Global().ring().size();
  }

  Result<HierarchicalRelation> Materialize() override {
    HierarchicalRelation rel = NewRelation();
    for (const LogEvent& event : Logger::Global().ring().Snapshot()) {
      HIREL_RETURN_IF_ERROR(AddRow(
          rel, Item{Num(event.seq), Num(event.unix_micros),
                    domains_.severity->Intern(
                        Value::String(LogLevelName(event.level))),
                    Label(event.component),
                    Text(StrCat(event.event, FieldsSuffix(event)))}));
    }
    return rel;
  }

 protected:
  void RefreshDomains() override {
    // Interning grows with the ring contents, which are bounded by the
    // ring capacity; severity instances were added at registration.
    for (const LogEvent& event : Logger::Global().ring().Snapshot()) {
      Num(event.seq);
      Num(event.unix_micros);
      Label(event.component);
      Text(StrCat(event.event, FieldsSuffix(event)));
    }
  }

 private:
  static std::string FieldsSuffix(const LogEvent& event) {
    std::string out;
    for (const auto& [key, value] : event.fields) {
      out += StrCat(" ", key, "=", value);
    }
    return out;
  }
};

// ----- sys.relations --------------------------------------------------------

class SysRelationsProvider : public SysProviderBase {
 public:
  SysRelationsProvider(std::string name, Schema schema, SysDomains domains,
                       const Database* db)
      : SysProviderBase(std::move(name), std::move(schema), domains),
        db_(db) {}

  size_t EstimatedRows() override {
    return db_->RelationNames().size() + db_->VirtualRelationNames().size();
  }

  Result<HierarchicalRelation> Materialize() override {
    RefreshDomains();
    HierarchicalRelation rel = NewRelation();
    NodeId stored_kind = Label("stored");
    for (const std::string& stored : db_->RelationNames()) {
      Result<const HierarchicalRelation*> r = db_->GetRelation(stored);
      if (!r.ok()) continue;
      HIREL_RETURN_IF_ERROR(AddRow(
          rel, Item{Label(stored), stored_kind, Num((*r)->size()),
                    Num((*r)->ApproxBytes())}));
    }
    NodeId virt = Label("virtual");
    for (const std::string& name : db_->VirtualRelationNames()) {
      VirtualRelationProvider* provider = db_->FindVirtualRelation(name);
      if (provider == nullptr) continue;
      HIREL_RETURN_IF_ERROR(AddRow(
          rel, Item{Label(name), virt, Num(provider->EstimatedRows()),
                    Num(0)}));
    }
    return rel;
  }

 protected:
  void RefreshDomains() override {
    for (const std::string& stored : db_->RelationNames()) Label(stored);
    for (const std::string& name : db_->VirtualRelationNames()) Label(name);
    Label("stored");
    Label("virtual");
  }

 private:
  const Database* db_;
};

// ----- sys.columns ----------------------------------------------------------

class SysColumnsProvider : public SysProviderBase {
 public:
  SysColumnsProvider(std::string name, Schema schema, SysDomains domains,
                     const Database* db)
      : SysProviderBase(std::move(name), std::move(schema), domains),
        db_(db) {}

  size_t EstimatedRows() override {
    size_t rows = 0;
    for (const std::string& stored : db_->RelationNames()) {
      Result<const HierarchicalRelation*> r = db_->GetRelation(stored);
      if (r.ok()) rows += (*r)->ColumnInfo().size();
    }
    return rows;
  }

  Result<HierarchicalRelation> Materialize() override {
    HierarchicalRelation rel = NewRelation();
    for (const std::string& stored : db_->RelationNames()) {
      Result<const HierarchicalRelation*> r = db_->GetRelation(stored);
      if (!r.ok()) continue;
      for (const StorageColumnInfo& col : (*r)->ColumnInfo()) {
        HIREL_RETURN_IF_ERROR(AddRow(
            rel, Item{Label(stored), Label(col.name), Num(col.bytes)}));
      }
    }
    return rel;
  }

 protected:
  void RefreshDomains() override {
    for (const std::string& stored : db_->RelationNames()) {
      Label(stored);
      Result<const HierarchicalRelation*> r = db_->GetRelation(stored);
      if (!r.ok()) continue;
      for (const StorageColumnInfo& col : (*r)->ColumnInfo()) {
        Label(col.name);
      }
    }
  }

 private:
  const Database* db_;
};

// ----- sys.cache ------------------------------------------------------------

class SysCacheProvider : public SysProviderBase {
 public:
  SysCacheProvider(std::string name, Schema schema, SysDomains domains,
                   const Database* db)
      : SysProviderBase(std::move(name), std::move(schema), domains),
        db_(db) {}

  size_t EstimatedRows() override {
    return db_->subsumption_cache().size();
  }

  Result<HierarchicalRelation> Materialize() override {
    HierarchicalRelation rel = NewRelation();
    for (const SubsumptionCache::EntryInfo& entry : Entries()) {
      HIREL_RETURN_IF_ERROR(AddRow(
          rel, Item{Label(entry.relation), Num(entry.relation_version),
                    Num(entry.graph_nodes), Num(entry.patches),
                    Num(entry.rebuilds)}));
    }
    return rel;
  }

 protected:
  void RefreshDomains() override {
    for (const SubsumptionCache::EntryInfo& entry : Entries()) {
      Label(entry.relation);
      Num(entry.relation_version);
      Num(entry.graph_nodes);
      Num(entry.patches);
      Num(entry.rebuilds);
    }
  }

 private:
  std::vector<SubsumptionCache::EntryInfo> Entries() const {
    return db_->subsumption_cache().Entries();
  }

  const Database* db_;
};

// ----- sys.queries ----------------------------------------------------------

class SysQueriesProvider : public SysProviderBase {
 public:
  SysQueriesProvider(std::string name, Schema schema, SysDomains domains,
                     const QueryHistoryRing* history)
      : SysProviderBase(std::move(name), std::move(schema), domains),
        history_(history) {}

  size_t EstimatedRows() override {
    if (history_ == nullptr) return 0;
    uint64_t total = history_->total_recorded();
    return total < history_->capacity() ? total : history_->capacity();
  }

  Result<HierarchicalRelation> Materialize() override {
    HierarchicalRelation rel = NewRelation();
    if (history_ == nullptr) return rel;
    for (const auto& q : history_->Snapshot()) {
      HIREL_RETURN_IF_ERROR(AddRow(rel, RowFor(*q)));
    }
    return rel;
  }

 protected:
  void RefreshDomains() override {
    // Both `ok` labels resolve in WHERE terms before any statement fails.
    Label("true");
    Label("false");
    if (history_ == nullptr) return;
    for (const auto& q : history_->Snapshot()) RowFor(*q);
  }

 private:
  Item RowFor(const QueryStats& q) {
    uint64_t wall_us = q.wall_ns / 1000;
    if (wall_us == 0) wall_us = 1;
    return Item{Num(q.id),
                Label(q.kind),
                Text(q.statement),
                Label(q.ok ? "true" : "false"),
                Num(wall_us),
                Num(q.wait_ns / 1000),
                Num(q.rows_in),
                Num(q.rows_out),
                Num(q.subsumption_probes),
                Num(q.peak_tracked_bytes),
                Label(q.plan_digest.empty() ? "-" : q.plan_digest)};
  }

  const QueryHistoryRing* history_;
};

// ----- sys.waits ------------------------------------------------------------

class SysWaitsProvider : public SysProviderBase {
 public:
  using SysProviderBase::SysProviderBase;

  size_t EstimatedRows() override {
    return WaitEventRegistry::Global().Snapshot().size();
  }

  Result<HierarchicalRelation> Materialize() override {
    HierarchicalRelation rel = NewRelation();
    for (const auto& site : WaitEventRegistry::Global().Snapshot()) {
      if (site.count == 0) continue;  // never-hit sites stay invisible
      HIREL_RETURN_IF_ERROR(AddRow(rel, RowFor(site)));
    }
    return rel;
  }

 protected:
  void RefreshDomains() override {
    for (const auto& site : WaitEventRegistry::Global().Snapshot()) {
      if (site.count > 0) RowFor(site);
    }
  }

 private:
  Item RowFor(const WaitEventRegistry::SiteSnapshot& site) {
    auto quantile_us = [&](double q) {
      return Num(WaitEventRegistry::SiteQuantileNs(site, q) / 1000);
    };
    return Item{InternWaitSite(*domains_.waitsite, site.cls, site.name),
                Label(WaitClassName(site.cls)),
                Num(site.count),
                Num(site.total_ns / 1000),
                Num(site.max_ns / 1000),
                quantile_us(0.5),
                quantile_us(0.9),
                quantile_us(0.99)};
  }
};

// ----- sys.metrics_history --------------------------------------------------

class SysMetricsHistoryProvider : public SysProviderBase {
 public:
  SysMetricsHistoryProvider(std::string name, Schema schema,
                            SysDomains domains,
                            const TelemetrySampler* telemetry)
      : SysProviderBase(std::move(name), std::move(schema), domains),
        telemetry_(telemetry) {}

  size_t EstimatedRows() override {
    if (telemetry_ == nullptr) return 0;
    size_t rows = 0;
    for (const auto& series : telemetry_->Snapshot()) {
      rows += series.samples.size();
    }
    return rows;
  }

  Result<HierarchicalRelation> Materialize() override {
    HierarchicalRelation rel = NewRelation();
    if (telemetry_ == nullptr) return rel;
    for (const auto& series : telemetry_->Snapshot()) {
      NodeId metric_node = InternMetricName(*domains_.metric, series.name);
      for (const auto& sample : series.samples) {
        HIREL_RETURN_IF_ERROR(
            AddRow(rel, Item{metric_node, Num(sample.seq), Num(sample.ts_ms),
                             Num(sample.epoch_ms), Num(sample.value)}));
      }
    }
    return rel;
  }

 protected:
  void RefreshDomains() override {
    if (telemetry_ == nullptr) return;
    for (const auto& series : telemetry_->Snapshot()) {
      InternMetricName(*domains_.metric, series.name);
      for (const auto& sample : series.samples) {
        Num(sample.seq);
        Num(sample.ts_ms);
        Num(sample.epoch_ms);
        Num(sample.value);
      }
    }
  }

 private:
  const TelemetrySampler* telemetry_;
};

// ----- sys.alerts -----------------------------------------------------------

class SysAlertsProvider : public SysProviderBase {
 public:
  SysAlertsProvider(std::string name, Schema schema, SysDomains domains,
                    const AlertManager* alerts)
      : SysProviderBase(std::move(name), std::move(schema), domains),
        alerts_(alerts) {}

  size_t EstimatedRows() override {
    return alerts_ == nullptr ? 0 : alerts_->Snapshot().size();
  }

  Result<HierarchicalRelation> Materialize() override {
    HierarchicalRelation rel = NewRelation();
    if (alerts_ == nullptr) return rel;
    for (const AlertSnapshot& a : alerts_->Snapshot()) {
      HIREL_RETURN_IF_ERROR(AddRow(rel, RowFor(a)));
    }
    return rel;
  }

 protected:
  void RefreshDomains() override {
    if (alerts_ == nullptr) return;
    for (const AlertSnapshot& a : alerts_->Snapshot()) RowFor(a);
    // Severity instances were added at registration; state labels that
    // have not occurred yet still need to resolve in WHERE terms.
    for (AlertState s : {AlertState::kOk, AlertState::kPending,
                         AlertState::kFiring, AlertState::kResolved}) {
      Label(AlertStateName(s));
    }
  }

 private:
  Item RowFor(const AlertSnapshot& a) {
    return Item{Label(a.rule.name),
                domains_.alertsev->Intern(
                    Value::String(AlertSeverityName(a.rule.severity))),
                Label(AlertStateName(a.state)),
                InternMetricName(*domains_.metric, a.rule.metric),
                Num(static_cast<uint64_t>(a.last_value)),
                Label(AlertOpText(a.rule.op)),
                Num(static_cast<uint64_t>(a.rule.threshold)),
                Num(a.rule.for_samples),
                Num(a.fires),
                Label(a.rule.builtin ? "true" : "false")};
  }

  const AlertManager* alerts_;
};

// ----- sys.health -----------------------------------------------------------

class SysHealthProvider : public SysProviderBase {
 public:
  SysHealthProvider(std::string name, Schema schema, SysDomains domains,
                    const AlertManager* alerts)
      : SysProviderBase(std::move(name), std::move(schema), domains),
        alerts_(alerts) {}

  size_t EstimatedRows() override { return 6; }

  Result<HierarchicalRelation> Materialize() override {
    HierarchicalRelation rel = NewRelation();
    for (const ComponentHealth& c : Verdicts()) {
      HIREL_RETURN_IF_ERROR(AddRow(rel, RowFor(c)));
    }
    return rel;
  }

 protected:
  void RefreshDomains() override {
    for (const ComponentHealth& c : Verdicts()) RowFor(c);
    for (HealthVerdict v : {HealthVerdict::kOk, HealthVerdict::kDegraded,
                            HealthVerdict::kCritical}) {
      Label(HealthVerdictName(v));
    }
  }

 private:
  /// One verdict per component, then the engine-wide "overall" row.
  std::vector<ComponentHealth> Verdicts() const {
    if (alerts_ == nullptr) return {};
    const std::vector<AlertSnapshot> alerts = alerts_->Snapshot();
    std::vector<ComponentHealth> out = DeriveHealth(alerts);
    out.push_back(OverallHealth(alerts));
    return out;
  }

  Item RowFor(const ComponentHealth& c) {
    return Item{Label(c.component), Label(HealthVerdictName(c.verdict)),
                Num(c.firing),
                Label(c.worst_alert.empty() ? "-" : c.worst_alert)};
  }

  const AlertManager* alerts_;
};

// ----- sys.session ----------------------------------------------------------

class SysSessionProvider : public SysProviderBase {
 public:
  SysSessionProvider(std::string name, Schema schema, SysDomains domains,
                     SessionSettingsFn settings)
      : SysProviderBase(std::move(name), std::move(schema), domains),
        settings_(std::move(settings)) {}

  size_t EstimatedRows() override { return settings_ ? settings_().size() : 0; }

  Result<HierarchicalRelation> Materialize() override {
    HierarchicalRelation rel = NewRelation();
    if (!settings_) return rel;
    for (const SessionSetting& s : settings_()) {
      HIREL_RETURN_IF_ERROR(AddRow(rel, RowFor(s)));
    }
    return rel;
  }

 protected:
  void RefreshDomains() override {
    if (!settings_) return;
    for (const SessionSetting& s : settings_()) RowFor(s);
  }

 private:
  Item RowFor(const SessionSetting& s) {
    return Item{Label(s.key), domains_.text->Intern(s.value)};
  }

  SessionSettingsFn settings_;
};

Schema MakeSchema(
    std::initializer_list<std::pair<const char*, Hierarchy*>> attrs) {
  Schema schema;
  for (const auto& [attr, hierarchy] : attrs) {
    // Append only fails on duplicate names, which the literals below never
    // produce.
    (void)schema.Append(attr, hierarchy);
  }
  return schema;
}

}  // namespace

void RegisterSystemCatalog(Database& db, const QueryHistoryRing* history,
                           const TelemetrySampler* telemetry,
                           const AlertManager* alerts,
                           SessionSettingsFn session) {
  SysDomains domains;
  domains.label = db.AddSysHierarchy("sys.label");
  domains.metric = db.AddSysHierarchy("sys.metric");
  domains.severity = db.AddSysHierarchy("sys.severity");
  domains.num = db.AddSysHierarchy("sys.num");
  domains.text = db.AddSysHierarchy("sys.text");
  domains.waitsite = db.AddSysHierarchy("sys.waitsite");
  domains.alertsev = db.AddSysHierarchy("sys.alertsev");

  // Severity: a chain of classes from general (debug: every event) to
  // specific (error), each holding its level's events as an instance, so
  // `ALL warn` covers warn and error.
  NodeId parent = domains.severity->root();
  for (const char* level : {"debug", "info", "warn", "error"}) {
    Result<NodeId> cls = domains.severity->AddClass(level, parent);
    if (!cls.ok()) break;  // unreachable: fresh hierarchy
    (void)domains.severity->AddInstance(Value::String(level), *cls);
    parent = *cls;
  }

  // Alert severities: the same chain construction as sys.log's levels —
  // info (every alert) ⊃ warn ⊃ crit — so `ALL warn` covers warn + crit.
  NodeId sev_parent = domains.alertsev->root();
  for (const char* level : {"info", "warn", "crit"}) {
    Result<NodeId> cls = domains.alertsev->AddClass(level, sev_parent);
    if (!cls.ok()) break;  // unreachable: fresh hierarchy
    (void)domains.alertsev->AddInstance(Value::String(level), *cls);
    sev_parent = *cls;
  }

  // Wait classes: flat classes under the root; sites intern as instances
  // beneath their class, so `ALL io` covers every io site.
  for (size_t i = 0; i < kNumWaitClasses; ++i) {
    (void)domains.waitsite->AddClass(WaitClassName(static_cast<WaitClass>(i)),
                                     domains.waitsite->root());
  }

  (void)db.RegisterVirtualRelation(std::make_unique<SysMetricsProvider>(
      "sys.metrics",
      MakeSchema({{"name", domains.metric},
                  {"kind", domains.label},
                  {"value", domains.num},
                  {"bucket", domains.label}}),
      domains, &db));
  (void)db.RegisterVirtualRelation(std::make_unique<SysLogProvider>(
      "sys.log",
      MakeSchema({{"seq", domains.num},
                  {"ts_us", domains.num},
                  {"level", domains.severity},
                  {"component", domains.label},
                  {"message", domains.text}}),
      domains));
  (void)db.RegisterVirtualRelation(std::make_unique<SysRelationsProvider>(
      "sys.relations",
      MakeSchema({{"relation", domains.label},
                  {"kind", domains.label},
                  {"tuples", domains.num},
                  {"bytes", domains.num}}),
      domains, &db));
  (void)db.RegisterVirtualRelation(std::make_unique<SysColumnsProvider>(
      "sys.columns",
      MakeSchema({{"relation", domains.label},
                  {"column", domains.label},
                  {"col_bytes", domains.num}}),
      domains, &db));
  (void)db.RegisterVirtualRelation(std::make_unique<SysCacheProvider>(
      "sys.cache",
      MakeSchema({{"relation", domains.label},
                  {"version", domains.num},
                  {"graph_nodes", domains.num},
                  {"patched", domains.num},
                  {"rebuilt", domains.num}}),
      domains, &db));
  (void)db.RegisterVirtualRelation(std::make_unique<SysQueriesProvider>(
      "sys.queries",
      MakeSchema({{"id", domains.num},
                  {"kind", domains.label},
                  {"statement", domains.text},
                  {"ok", domains.label},
                  {"wall_us", domains.num},
                  {"wait_us", domains.num},
                  {"rows_in", domains.num},
                  {"rows_out", domains.num},
                  {"probes", domains.num},
                  {"peak_bytes", domains.num},
                  {"digest", domains.label}}),
      domains, history));
  (void)db.RegisterVirtualRelation(std::make_unique<SysWaitsProvider>(
      "sys.waits",
      MakeSchema({{"site", domains.waitsite},
                  {"wait_class", domains.label},
                  {"waits", domains.num},
                  {"total_us", domains.num},
                  {"max_us", domains.num},
                  {"p50_us", domains.num},
                  {"p90_us", domains.num},
                  {"p99_us", domains.num}}),
      domains));
  (void)db.RegisterVirtualRelation(
      std::make_unique<SysMetricsHistoryProvider>(
          "sys.metrics_history",
          MakeSchema({{"name", domains.metric},
                      {"seq", domains.num},
                      {"ts_ms", domains.num},
                      {"epoch_ms", domains.num},
                      {"value", domains.num}}),
          domains, telemetry));
  (void)db.RegisterVirtualRelation(std::make_unique<SysAlertsProvider>(
      "sys.alerts",
      MakeSchema({{"alert", domains.label},
                  {"severity", domains.alertsev},
                  {"state", domains.label},
                  {"metric", domains.metric},
                  {"value", domains.num},
                  {"op", domains.label},
                  {"threshold", domains.num},
                  {"for_samples", domains.num},
                  {"fires", domains.num},
                  {"builtin", domains.label}}),
      domains, alerts));
  (void)db.RegisterVirtualRelation(std::make_unique<SysHealthProvider>(
      "sys.health",
      MakeSchema({{"component", domains.label},
                  {"verdict", domains.label},
                  {"firing", domains.num},
                  {"worst_alert", domains.label}}),
      domains, alerts));
  (void)db.RegisterVirtualRelation(std::make_unique<SysSessionProvider>(
      "sys.session",
      MakeSchema({{"key", domains.label}, {"value", domains.text}}),
      domains, std::move(session)));
}

void SyncEngineGauges(const Database& db) {
  MetricsRegistry& m = db.metrics();
  const SubsumptionCache& cache = db.subsumption_cache();
  m.gauge("subsumption_cache.hits")
      .Set(static_cast<int64_t>(cache.stats().hits));
  m.gauge("subsumption_cache.misses")
      .Set(static_cast<int64_t>(cache.stats().misses));
  m.gauge("subsumption_cache.invalidations")
      .Set(static_cast<int64_t>(cache.stats().invalidations));
  m.gauge("subsumption_cache.entries")
      .Set(static_cast<int64_t>(cache.size()));
  // Cumulative time spent building and patching graphs, in microseconds.
  m.gauge("subsumption_cache.build_us")
      .Set(static_cast<int64_t>(cache.stats().build_ns / 1000));
  m.gauge("subsumption_cache.patch_us")
      .Set(static_cast<int64_t>(cache.stats().patch_ns / 1000));
  // Incremental-maintenance split of the miss count: patched in place vs
  // rebuilt from scratch, and how often the mutation journal had already
  // wrapped (forcing a rebuild).
  m.gauge("cache.patched").Set(static_cast<int64_t>(cache.stats().patches));
  m.gauge("cache.rebuilt").Set(static_cast<int64_t>(cache.stats().rebuilds));
  m.gauge("cache.journal_overflows")
      .Set(static_cast<int64_t>(cache.stats().journal_overflows));
  // Per-class wait-event totals (the coarse rollup of sys.waits), so the
  // metric surface — and with it the telemetry sampler — sees where the
  // engine blocks.
  const std::array<WaitEventRegistry::ClassTotals, kNumWaitClasses>
      wait_totals = WaitEventRegistry::Global().PerClass();
  for (size_t i = 0; i < wait_totals.size(); ++i) {
    const char* cls = WaitClassName(static_cast<WaitClass>(i));
    m.gauge(StrCat("waits.", cls, ".count"))
        .Set(static_cast<int64_t>(wait_totals[i].count));
    m.gauge(StrCat("waits.", cls, ".ms"))
        .Set(static_cast<int64_t>(wait_totals[i].total_ns / 1'000'000));
  }
  size_t relations = 0;
  size_t bytes = 0;
  for (const std::string& name : db.RelationNames()) {
    Result<const HierarchicalRelation*> r = db.GetRelation(name);
    if (!r.ok()) continue;
    ++relations;
    bytes += (*r)->ApproxBytes();
  }
  m.gauge("storage.relations").Set(static_cast<int64_t>(relations));
  m.gauge("storage.bytes").Set(static_cast<int64_t>(bytes));
  UpdateProcessGauges(m);
}

}  // namespace obs
}  // namespace hirel
