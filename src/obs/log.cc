#include "obs/log.h"

#include <chrono>

#include "common/str_util.h"
#include "obs/json.h"

namespace hirel {
namespace obs {

namespace {

uint64_t WallMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    case LogLevel::kOff:
      return "off";
  }
  return "unknown";
}

bool ParseLogLevel(std::string_view text, LogLevel* level) {
  for (LogLevel candidate :
       {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn, LogLevel::kError,
        LogLevel::kOff}) {
    if (EqualsIgnoreCase(text, LogLevelName(candidate))) {
      *level = candidate;
      return true;
    }
  }
  return false;
}

std::string LogEvent::ToJson() const {
  std::string out = StrCat("{\"seq\":", seq, ",\"ts_us\":", unix_micros,
                           ",\"level\":\"", LogLevelName(level),
                           "\",\"component\":");
  AppendJsonString(out, component);
  out += ",\"event\":";
  AppendJsonString(out, event);
  out += ",\"fields\":{";
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ",";
    AppendJsonString(out, fields[i].first);
    out += ":";
    AppendJsonString(out, fields[i].second);
  }
  out += "}}";
  return out;
}

std::string LogEvent::ToText() const {
  std::string line = LogLevelName(level);
  line.append(line.size() < 5 ? 5 - line.size() + 1 : 1, ' ');
  line += StrCat(component, ".", event);
  for (const auto& [key, value] : fields) {
    line += StrCat("  ", key, "=", value);
  }
  return line;
}

void RingSink::Write(const LogEvent& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (capacity_ == 0) {
    ++dropped_;
    return;
  }
  if (events_.size() == capacity_) {
    events_.pop_front();
    ++dropped_;
  }
  events_.push_back(event);
}

std::vector<LogEvent> RingSink::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::vector<LogEvent>(events_.begin(), events_.end());
}

size_t RingSink::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

uint64_t RingSink::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

void RingSink::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  dropped_ = 0;
}

void StderrSink::Write(const LogEvent& event) {
  std::string line = event.ToText();
  line += '\n';
  std::fwrite(line.data(), 1, line.size(), stderr);
}

Result<std::unique_ptr<FileSink>> FileSink::Open(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "a");
  if (file == nullptr) {
    return Status::IoError(StrCat("cannot open log file '", path, "'"));
  }
  return std::unique_ptr<FileSink>(new FileSink(file));
}

FileSink::~FileSink() {
  if (file_ != nullptr) std::fclose(file_);
}

void FileSink::Write(const LogEvent& event) {
  std::string line = event.ToJson();
  line += '\n';
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fflush(file_);
}

Logger::Logger(LogLevel min_level, size_t ring_capacity)
    : min_level_(static_cast<int>(min_level)) {
  auto ring = std::make_unique<RingSink>(ring_capacity);
  ring_ = ring.get();
  sinks_.push_back(std::move(ring));
}

Logger& Logger::Global() {
  // Leaked on purpose: a background thread may log during static teardown,
  // when a destroyed logger would be a use-after-free.
  static Logger* logger = new Logger();
  return *logger;
}

void Logger::Log(LogLevel level, std::string_view component,
                 std::string_view event, LogFields fields) {
  if (!ShouldLog(level) || level == LogLevel::kOff) return;
  LogEvent record;
  record.unix_micros = WallMicros();
  record.level = level;
  record.component = std::string(component);
  record.event = std::string(event);
  record.fields.reserve(fields.size());
  for (const auto& [key, value] : fields) {
    record.fields.emplace_back(std::string(key), value);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  record.seq = ++seq_;
  for (const std::unique_ptr<LogSink>& sink : sinks_) {
    sink->Write(record);
  }
}

void Logger::AddSink(std::unique_ptr<LogSink> sink) {
  std::lock_guard<std::mutex> lock(mutex_);
  sinks_.push_back(std::move(sink));
}

}  // namespace obs
}  // namespace hirel
