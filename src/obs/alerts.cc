#include "obs/alerts.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <iterator>
#include <utility>

#include "common/str_util.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/query_stats.h"
#include "obs/telemetry.h"
#include "obs/wait.h"

namespace hirel {
namespace obs {

namespace {

uint64_t WallEpochMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool Breaches(AlertOp op, int64_t value, int64_t threshold) {
  switch (op) {
    case AlertOp::kGt: return value > threshold;
    case AlertOp::kLt: return value < threshold;
    case AlertOp::kGe: return value >= threshold;
    case AlertOp::kLe: return value <= threshold;
    case AlertOp::kEq: return value == threshold;
  }
  return false;
}

bool HasPrefix(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.compare(0, prefix.size(), prefix) == 0;
}

LogLevel SeverityLogLevel(AlertSeverity severity) {
  switch (severity) {
    case AlertSeverity::kInfo: return LogLevel::kInfo;
    case AlertSeverity::kWarn: return LogLevel::kWarn;
    case AlertSeverity::kCrit: return LogLevel::kError;
  }
  return LogLevel::kWarn;
}

constexpr char kWatchdogSlowQuery[] = "watchdog.slow_query";
constexpr char kWatchdogIoShare[] = "watchdog.io_wait_share";
constexpr char kWatchdogLatchShare[] = "watchdog.latch_wait_share";

}  // namespace

const char* AlertSeverityName(AlertSeverity severity) {
  switch (severity) {
    case AlertSeverity::kInfo: return "info";
    case AlertSeverity::kWarn: return "warn";
    case AlertSeverity::kCrit: return "crit";
  }
  return "warn";
}

bool ParseAlertSeverity(std::string_view text, AlertSeverity* out) {
  std::string lower(text);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "info") {
    *out = AlertSeverity::kInfo;
  } else if (lower == "warn" || lower == "warning") {
    *out = AlertSeverity::kWarn;
  } else if (lower == "crit" || lower == "critical") {
    *out = AlertSeverity::kCrit;
  } else {
    return false;
  }
  return true;
}

const char* AlertOpText(AlertOp op) {
  switch (op) {
    case AlertOp::kGt: return ">";
    case AlertOp::kLt: return "<";
    case AlertOp::kGe: return ">=";
    case AlertOp::kLe: return "<=";
    case AlertOp::kEq: return "=";
  }
  return ">";
}

bool ParseAlertOp(std::string_view text, AlertOp* out) {
  if (text == ">") {
    *out = AlertOp::kGt;
  } else if (text == "<") {
    *out = AlertOp::kLt;
  } else if (text == ">=") {
    *out = AlertOp::kGe;
  } else if (text == "<=") {
    *out = AlertOp::kLe;
  } else if (text == "=") {
    *out = AlertOp::kEq;
  } else {
    return false;
  }
  return true;
}

const char* AlertStateName(AlertState state) {
  switch (state) {
    case AlertState::kOk: return "ok";
    case AlertState::kPending: return "pending";
    case AlertState::kFiring: return "firing";
    case AlertState::kResolved: return "resolved";
  }
  return "ok";
}

const char* HealthVerdictName(HealthVerdict verdict) {
  switch (verdict) {
    case HealthVerdict::kOk: return "ok";
    case HealthVerdict::kDegraded: return "degraded";
    case HealthVerdict::kCritical: return "critical";
  }
  return "ok";
}

const char* AlertComponent(std::string_view metric) {
  if (HasPrefix(metric, "wal.") || HasPrefix(metric, "snapshot.") ||
      metric == kWatchdogIoShare) {
    return "wal";
  }
  if (HasPrefix(metric, "cache.") ||
      HasPrefix(metric, "subsumption_cache.") ||
      HasPrefix(metric, "reachability.") || metric == kWatchdogLatchShare) {
    return "cache";
  }
  if (HasPrefix(metric, "query.") || HasPrefix(metric, "derive.") ||
      HasPrefix(metric, "plan.") || metric == kWatchdogSlowQuery) {
    return "queries";
  }
  return "telemetry";
}

namespace {

/// Folds the firing alerts that `counts` selects into one verdict: any
/// firing alert degrades it, a crit one makes it critical, and the
/// highest-severity offender is named.
template <typename Pred>
ComponentHealth FoldHealth(std::string component,
                           const std::vector<AlertSnapshot>& alerts,
                           Pred counts) {
  ComponentHealth health;
  health.component = std::move(component);
  AlertSeverity worst = AlertSeverity::kInfo;
  for (const AlertSnapshot& alert : alerts) {
    if (alert.state != AlertState::kFiring || !counts(alert)) continue;
    ++health.firing;
    if (health.worst_alert.empty() || alert.rule.severity > worst) {
      health.worst_alert = alert.rule.name;
      worst = alert.rule.severity;
    }
    HealthVerdict verdict = alert.rule.severity == AlertSeverity::kCrit
                                ? HealthVerdict::kCritical
                                : HealthVerdict::kDegraded;
    if (verdict > health.verdict) health.verdict = verdict;
  }
  return health;
}

}  // namespace

std::vector<ComponentHealth> DeriveHealth(
    const std::vector<AlertSnapshot>& alerts) {
  static constexpr const char* kComponents[] = {"wal", "cache", "queries",
                                                "telemetry"};
  std::vector<ComponentHealth> out;
  out.reserve(std::size(kComponents));
  for (const char* component : kComponents) {
    out.push_back(FoldHealth(component, alerts, [&](const AlertSnapshot& a) {
      return std::string_view(AlertComponent(a.rule.metric)) == component;
    }));
  }
  return out;
}

ComponentHealth OverallHealth(const std::vector<AlertSnapshot>& alerts) {
  return FoldHealth("overall", alerts,
                    [](const AlertSnapshot&) { return true; });
}

AlertManager::AlertManager() {
  // The stall watchdog's built-in rules: always present, evaluated from
  // engine state (not the sampled rings), never droppable. Thresholds
  // mirror the WatchdogConfig and are refreshed into rule.threshold on
  // every tick so SHOW ALERTS displays the live configuration.
  auto builtin = [this](const char* name, const char* metric,
                        AlertSeverity severity) {
    RuleState rs;
    rs.rule.name = name;
    rs.rule.metric = metric;
    rs.rule.op = AlertOp::kGt;
    rs.rule.for_samples = 1;
    rs.rule.severity = severity;
    rs.rule.builtin = true;
    rules_.emplace(rs.rule.name, std::move(rs));
  };
  builtin("watchdog_slow_query", kWatchdogSlowQuery, AlertSeverity::kWarn);
  builtin("watchdog_io_wait", kWatchdogIoShare, AlertSeverity::kWarn);
  builtin("watchdog_latch_wait", kWatchdogLatchShare, AlertSeverity::kWarn);
}

void AlertManager::Configure(MetricsRegistry* metrics,
                             const QueryHistoryRing* history) {
  std::lock_guard<std::mutex> lock(mutex_);
  metrics_ = metrics;
  history_ = history;
}

Status AlertManager::CreateAlert(AlertRule rule) {
  if (rule.name.empty()) {
    return Status::InvalidArgument("alert name must not be empty");
  }
  if (rule.metric.empty()) {
    return Status::InvalidArgument("alert metric must not be empty");
  }
  if (rule.for_samples < 1) rule.for_samples = 1;
  if (rule.for_samples > 10000) {
    return Status::InvalidArgument(
        "FOR n SAMPLES window too large (max 10000)");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = rules_.find(rule.name);
  if (it != rules_.end()) {
    return Status::AlreadyExists(
        StrCat("alert '", rule.name, "' already exists",
               it->second.rule.builtin ? " (built-in watchdog rule)" : ""));
  }
  RuleState rs;
  rs.rule = std::move(rule);
  HIREL_LOG(LogLevel::kInfo, "alerts", "create",
            {{"alert", rs.rule.name},
             {"metric", rs.rule.metric},
             {"op", AlertOpText(rs.rule.op)},
             {"threshold", StrCat(rs.rule.threshold)},
             {"for_samples", StrCat(rs.rule.for_samples)},
             {"severity", AlertSeverityName(rs.rule.severity)}});
  rules_.emplace(rs.rule.name, std::move(rs));
  return Status::OK();
}

Status AlertManager::DropAlert(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = rules_.find(name);
  if (it == rules_.end()) {
    return Status::NotFound(StrCat("no alert named '", name, "'"));
  }
  if (it->second.rule.builtin) {
    return Status::InvalidArgument(
        StrCat("alert '", name,
               "' is a built-in watchdog rule and cannot be dropped"));
  }
  rules_.erase(it);
  HIREL_LOG(LogLevel::kInfo, "alerts", "drop", {{"alert", name}});
  return Status::OK();
}

void AlertManager::FireLocked(RuleState& rs, uint64_t seq,
                              uint64_t epoch_ms) {
  rs.state = AlertState::kFiring;
  ++rs.fires;
  ++fired_total_;
  rs.fired_seq = seq;
  rs.fired_epoch_ms = epoch_ms;
  HIREL_LOG(SeverityLogLevel(rs.rule.severity), "alerts", "alert_fire",
            {{"alert", rs.rule.name},
             {"metric", rs.rule.metric},
             {"value", StrCat(rs.last_value)},
             {"op", AlertOpText(rs.rule.op)},
             {"threshold", StrCat(rs.rule.threshold)},
             {"severity", AlertSeverityName(rs.rule.severity)},
             {"seq", StrCat(seq)}});
  if (metrics_ != nullptr) metrics_->counter("alerts.fired").Add(1);
  if (!diagnostics_dir_.empty()) {
    pending_captures_.push_back(
        CaptureRequest{rs.rule.name, seq, diagnostics_dir_});
  }
}

void AlertManager::ResolveLocked(RuleState& rs, uint64_t seq) {
  rs.state = AlertState::kResolved;
  rs.resolved_seq = seq;
  ++resolved_total_;
  HIREL_LOG(LogLevel::kInfo, "alerts", "alert_resolve",
            {{"alert", rs.rule.name},
             {"metric", rs.rule.metric},
             {"value", StrCat(rs.last_value)},
             {"seq", StrCat(seq)}});
  if (metrics_ != nullptr) metrics_->counter("alerts.resolved").Add(1);
}

void AlertManager::ObserveLocked(RuleState& rs, bool breach, int64_t value,
                                 uint64_t seq, uint64_t epoch_ms) {
  rs.has_value = true;
  rs.last_value = value;
  if (breach) {
    ++rs.consecutive;
    if (rs.state != AlertState::kFiring &&
        rs.consecutive >= rs.rule.for_samples) {
      FireLocked(rs, seq, epoch_ms);
    } else if (rs.state != AlertState::kFiring) {
      rs.state = AlertState::kPending;
    }
  } else {
    rs.consecutive = 0;
    if (rs.state == AlertState::kFiring) {
      ResolveLocked(rs, seq);
    } else if (rs.state == AlertState::kPending) {
      rs.state = rs.fires > 0 ? AlertState::kResolved : AlertState::kOk;
    }
  }
}

void AlertManager::EvaluateWatchdogLocked(RuleState& rs, uint64_t seq,
                                          uint64_t epoch_ms) {
  const std::string& metric = rs.rule.metric;
  if (metric == kWatchdogSlowQuery) {
    if (watchdog_.query_budget_ms < 0 || history_ == nullptr) {
      rs.rule.threshold = watchdog_.query_budget_ms;
      ObserveLocked(rs, false, rs.last_value, seq, epoch_ms);
      return;
    }
    // Scan only the history entries that completed since the last tick;
    // the slowest over-budget newcomer is the observed value (in ms).
    rs.rule.threshold = watchdog_.query_budget_ms;
    const uint64_t budget_ns =
        static_cast<uint64_t>(watchdog_.query_budget_ms) * 1000000u;
    uint64_t max_id = last_query_id_;
    int64_t worst_ms = 0;
    bool breach = false;
    for (const auto& stats : history_->Snapshot()) {
      if (stats == nullptr || stats->id <= last_query_id_) continue;
      if (stats->id > max_id) max_id = stats->id;
      if (stats->wall_ns >= budget_ns) {
        breach = true;
        int64_t ms = static_cast<int64_t>(stats->wall_ns / 1000000u);
        if (ms > worst_ms) worst_ms = ms;
      }
    }
    last_query_id_ = max_id;
    ObserveLocked(rs, breach, breach ? worst_ms : 0, seq, epoch_ms);
    return;
  }
  // The wait-share rules need per-tick deltas, prepared by OnTick into
  // share_valid_/io_share_pct_/latch_share_pct_ before the rule loop.
  if (metric == kWatchdogIoShare || metric == kWatchdogLatchShare) {
    const bool io = metric == kWatchdogIoShare;
    const double threshold_share =
        io ? watchdog_.io_share : watchdog_.latch_share;
    rs.rule.threshold = static_cast<int64_t>(threshold_share * 100.0);
    if (threshold_share < 0 || !share_valid_) {
      ObserveLocked(rs, false, rs.last_value, seq, epoch_ms);
      return;
    }
    int64_t pct = io ? io_share_pct_ : latch_share_pct_;
    ObserveLocked(rs, pct > rs.rule.threshold, pct, seq, epoch_ms);
    return;
  }
}

void AlertManager::OnTick(const TelemetrySampler& sampler) {
  const uint64_t seq = sampler.ticks();
  const uint64_t epoch_ms = WallEpochMs();
  std::lock_guard<std::mutex> lock(mutex_);

  // Per-tick wait-class share deltas for the watchdog: observed class ns
  // over elapsed wall ns since the previous tick. The first tick only
  // records the baseline.
  const auto per_class = WaitEventRegistry::Global().PerClass();
  const uint64_t now_ns = SteadyNowNs();
  share_valid_ = false;
  if (have_prev_waits_ && now_ns > prev_tick_steady_ns_) {
    const uint64_t elapsed = now_ns - prev_tick_steady_ns_;
    auto pct = [&](WaitClass cls) {
      const size_t i = static_cast<size_t>(cls);
      const uint64_t total = per_class[i].total_ns;
      const uint64_t delta = total >= prev_wait_ns_[i]
                                 ? total - prev_wait_ns_[i]
                                 : 0;  // RESET METRICS zeroed the class
      return static_cast<int64_t>(delta * 100 / elapsed);
    };
    io_share_pct_ = pct(WaitClass::kIo);
    latch_share_pct_ = pct(WaitClass::kLatch);
    share_valid_ = true;
  }
  for (size_t i = 0; i < kNumWaitClasses; ++i) {
    prev_wait_ns_[i] = per_class[i].total_ns;
  }
  prev_tick_steady_ns_ = now_ns;
  have_prev_waits_ = true;

  size_t firing = 0;
  for (auto& [name, rs] : rules_) {
    if (rs.rule.builtin) {
      EvaluateWatchdogLocked(rs, seq, epoch_ms);
    } else {
      TelemetrySampler::Sample sample;
      if (sampler.Latest(rs.rule.metric, &sample)) {
        int64_t value = static_cast<int64_t>(sample.value);
        ObserveLocked(rs, Breaches(rs.rule.op, value, rs.rule.threshold),
                      value, seq, sample.epoch_ms);
      }
      // No sample for the metric yet: leave the rule's state untouched
      // rather than inventing an observation.
    }
    if (rs.state == AlertState::kFiring) ++firing;
  }
  if (metrics_ != nullptr) {
    metrics_->counter("alerts.evaluations").Add(1);
    metrics_->gauge("alerts.rules").Set(static_cast<int64_t>(rules_.size()));
    metrics_->gauge("alerts.firing").Set(static_cast<int64_t>(firing));
  }
}

std::vector<AlertSnapshot> AlertManager::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<AlertSnapshot> out;
  out.reserve(rules_.size());
  for (const auto& [name, rs] : rules_) {
    AlertSnapshot snap;
    snap.rule = rs.rule;
    snap.state = rs.state;
    snap.has_value = rs.has_value;
    snap.last_value = rs.last_value;
    snap.consecutive = rs.consecutive;
    snap.fires = rs.fires;
    snap.fired_seq = rs.fired_seq;
    snap.fired_epoch_ms = rs.fired_epoch_ms;
    snap.resolved_seq = rs.resolved_seq;
    out.push_back(std::move(snap));
  }
  // User rules first (what the operator created), built-ins after, each
  // group name-sorted. The map already sorted by name.
  std::stable_sort(out.begin(), out.end(),
                   [](const AlertSnapshot& a, const AlertSnapshot& b) {
                     return a.rule.builtin < b.rule.builtin;
                   });
  return out;
}

size_t AlertManager::FiringCount(AlertSeverity at_least) const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t n = 0;
  for (const auto& [name, rs] : rules_) {
    if (rs.state == AlertState::kFiring && rs.rule.severity >= at_least) {
      ++n;
    }
  }
  return n;
}

WatchdogConfig AlertManager::watchdog() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return watchdog_;
}

void AlertManager::set_watchdog(const WatchdogConfig& config) {
  std::lock_guard<std::mutex> lock(mutex_);
  watchdog_ = config;
}

void AlertManager::SetDiagnosticsDir(std::string dir) {
  std::lock_guard<std::mutex> lock(mutex_);
  diagnostics_dir_ = std::move(dir);
}

std::string AlertManager::diagnostics_dir() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return diagnostics_dir_;
}

std::vector<AlertManager::CaptureRequest>
AlertManager::TakePendingCaptures() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<CaptureRequest> out;
  out.swap(pending_captures_);
  return out;
}

}  // namespace obs
}  // namespace hirel
