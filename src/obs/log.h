// Structured, leveled event logging: the audit trail of what the engine
// did between queries.
//
// Metrics (obs/metrics.h) aggregate and traces (obs/trace.h) follow one
// query; neither records discrete *events* — a WAL checkpoint, a dropped
// relation, a cache invalidation — with their context. The Logger does:
// instrumented code emits (level, component, event, key=value fields)
// records, and pluggable sinks decide where they go:
//
//   * RingSink    — a bounded in-memory ring buffer, always installed on
//                   the global logger; SHOW LOG [JSON] reads it back.
//   * StderrSink  — one text line per event, for interactive debugging.
//   * FileSink    — one JSON line per event, for collection agents.
//
// Cost model mirrors the metrics registry: every HIREL_LOG site guards on
// a single predicted branch (a relaxed atomic level compare) before any
// argument is evaluated, so a disabled logger costs one compare per site.
//
// The logger is process-wide (`Logger::Global()`): the components it
// observes — WAL, snapshots, the subsumption cache — are not all owned by
// one Database. Independent instances can be constructed for
// tests.

#ifndef HIREL_OBS_LOG_H_
#define HIREL_OBS_LOG_H_

#include <atomic>
#include <cstdio>
#include <deque>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace hirel {
namespace obs {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4,  // only valid as a minimum level, never as an event level
};

const char* LogLevelName(LogLevel level);

/// Parses "debug" / "info" / "warn" / "error" / "off" (case-insensitive).
bool ParseLogLevel(std::string_view text, LogLevel* level);

/// One structured event.
struct LogEvent {
  uint64_t seq = 0;           // per-logger, monotonically increasing
  uint64_t unix_micros = 0;   // wall-clock timestamp
  LogLevel level = LogLevel::kInfo;
  std::string component;      // "wal", "txn", "catalog", "alerts", ...
  std::string event;          // "checkpoint", "commit", "drop_relation", ...
  std::vector<std::pair<std::string, std::string>> fields;

  /// {"seq":1,"ts_us":...,"level":"info","component":"wal",
  ///  "event":"checkpoint","fields":{...}} — one line, fully escaped.
  std::string ToJson() const;

  /// "info  wal.checkpoint  records=12 bytes=3456" — one line.
  std::string ToText() const;
};

/// Destination for events. Write is called with the logger's sink mutex
/// held, so sinks need no locking of their own but must not re-enter the
/// logger.
class LogSink {
 public:
  virtual ~LogSink() = default;
  virtual void Write(const LogEvent& event) = 0;
};

/// Bounded in-memory ring buffer; the oldest events are dropped (and
/// counted) once `capacity` is reached. Snapshot() is thread-safe.
class RingSink : public LogSink {
 public:
  explicit RingSink(size_t capacity = 1024) : capacity_(capacity) {}

  void Write(const LogEvent& event) override;

  std::vector<LogEvent> Snapshot() const;
  size_t size() const;
  uint64_t dropped() const;
  void Clear();

 private:
  mutable std::mutex mutex_;
  size_t capacity_;
  uint64_t dropped_ = 0;
  std::deque<LogEvent> events_;
};

/// One ToText line per event on stderr.
class StderrSink : public LogSink {
 public:
  void Write(const LogEvent& event) override;
};

/// One ToJson line per event, flushed per write.
class FileSink : public LogSink {
 public:
  static Result<std::unique_ptr<FileSink>> Open(const std::string& path);
  ~FileSink() override;

  void Write(const LogEvent& event) override;

 private:
  explicit FileSink(std::FILE* file) : file_(file) {}
  std::FILE* file_;
};

using LogFields =
    std::initializer_list<std::pair<std::string_view, std::string>>;

/// Owner of sinks and the minimum level. Thread-safe: events may be
/// emitted from the telemetry sampler concurrently with queries.
class Logger {
 public:
  /// Constructs a logger with one RingSink of `ring_capacity` events.
  explicit Logger(LogLevel min_level = LogLevel::kInfo,
                  size_t ring_capacity = 1024);

  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

  /// The process-wide logger every HIREL_LOG site writes to. Starts at
  /// kInfo with only the ring sink installed, so library users pay one
  /// predicted branch per site and nothing reaches stderr unasked.
  static Logger& Global();

  /// The one branch on the hot path. Relaxed is enough: a level change
  /// becoming visible one event late is harmless.
  bool ShouldLog(LogLevel level) const {
    return static_cast<int>(level) >= min_level_.load(std::memory_order_relaxed);
  }

  void set_min_level(LogLevel level) {
    min_level_.store(static_cast<int>(level), std::memory_order_relaxed);
  }
  LogLevel min_level() const {
    return static_cast<LogLevel>(min_level_.load(std::memory_order_relaxed));
  }

  /// Emits one event to every sink. Callers normally go through HIREL_LOG,
  /// which guards with ShouldLog before evaluating any field expression;
  /// Log itself re-checks, so direct calls are also safe.
  void Log(LogLevel level, std::string_view component, std::string_view event,
           LogFields fields = {});

  /// The built-in ring buffer (what SHOW LOG renders).
  RingSink& ring() { return *ring_; }
  const RingSink& ring() const { return *ring_; }

  /// Installs an additional sink (stderr, file, a test collector).
  void AddSink(std::unique_ptr<LogSink> sink);

 private:
  std::atomic<int> min_level_;
  RingSink* ring_;  // owned via sinks_.front()

  std::mutex mutex_;  // guards seq_ and sinks_
  uint64_t seq_ = 0;
  std::vector<std::unique_ptr<LogSink>> sinks_;
};

/// Logging call site: evaluates `fields` (and the name expressions) only
/// when the level passes, so a disabled logger costs one predicted branch.
///
///   HIREL_LOG(LogLevel::kInfo, "wal", "checkpoint",
///             {{"records", StrCat(n)}, {"bytes", StrCat(bytes)}});
#define HIREL_LOG(level, component, event, ...)                            \
  do {                                                                     \
    ::hirel::obs::Logger& hirel_log_g = ::hirel::obs::Logger::Global();    \
    if (hirel_log_g.ShouldLog(level)) {                                    \
      hirel_log_g.Log(level, component, event __VA_OPT__(, ) __VA_ARGS__); \
    }                                                                      \
  } while (0)

}  // namespace obs
}  // namespace hirel

#endif  // HIREL_OBS_LOG_H_
