// hqlbench: the end-to-end HQL benchmark binary.
//
//   hqlbench run --workload W --seed N --seconds S --trace 0|1
//                [--snapshot PATH] [--spans PATH]
//   hqlbench snapshot --workload browse --seed N --out PATH
//   hqlbench gen --workload W --seed N [--ops M] [--check]
//
// `run` sets the workload up (kSetups times with --trace 0, keeping the
// last, so set-up time is a median),
// then drives its trace through one hql::Executor in a closed loop from
// this thread for S seconds, checking every answer against the oracle. An
// untraced run goes on past S seconds until the read p99 has at least 10
// samples beyond it, and fails when that takes over 3 S seconds.
// Latencies are scaled by the reference kernel (refkernel.h) measured
// about every 25 ms of statement time. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones from
// a run whose blocks of actions alternate between traced and untraced.
// Per-verb means and per-class latency histograms print on the text lines
// above it.
//
// `snapshot` runs the workload's build script and SAVEs the database (the
// untimed writer process for snapshot workloads). `gen` prints the set-up
// script plus M trace statements; with --check it also executes them and
// verifies every answer.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "hql/executor.h"
#include "probes.h"
#include "refkernel.h"
#include "workloads.h"

namespace hqlbench {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t Since(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

struct Options {
  std::string mode;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string snapshot;
  std::string spans;
  std::string out;
  size_t ops = 100;
  bool check = false;
};

int Usage() {
  std::cerr << "usage: hqlbench run --workload W --seed N --seconds S "
               "--trace 0|1 [--snapshot PATH] [--spans PATH]\n"
               "       hqlbench snapshot --workload browse --seed N --out PATH\n"
               "       hqlbench gen --workload W --seed N [--ops M] [--check]\n";
  return 2;
}

/// First word of a statement ("SELECT", "COUNT", ...).
std::string Verb(const std::string& text) {
  return text.substr(0, text.find_first_of(" ;"));
}

// ---------------------------------------------------------------------------
// Reference normalisation.

/// Runs the reference kernel about every kCadenceNs of statement time. A
/// statement's window lies between two kernel runs; its factor is
/// kRefMs / (mean of the kernel times at the window's two ends).
class Meter {
 public:
  static constexpr uint64_t kCadenceNs = 25'000'000;

  Meter() { Tick(); }

  uint32_t window() const { return static_cast<uint32_t>(ref_ms_.size() - 1); }

  /// Counts `ns` of statement time toward the cadence.
  void Account(uint64_t ns) {
    since_ += ns;
    if (since_ >= kCadenceNs) Tick();
  }

  /// Runs the kernel now, closing the current window.
  void Tick() {
    ref_ms_.push_back(kernel_.RunMs());
    since_ = 0;
  }

  /// Scale factor of a closed window.
  double Factor(uint32_t w) const {
    return kRefMs / ((ref_ms_[w] + ref_ms_[w + 1]) / 2);
  }

  const std::vector<double>& ref_ms() const { return ref_ms_; }

 private:
  RefKernel kernel_;
  std::vector<double> ref_ms_;
  uint64_t since_ = 0;
};

// ---------------------------------------------------------------------------
// Per-statement records and the span log.

struct Rec {
  uint64_t raw_ns = 0;
  uint32_t window = 0;
  Cls cls = Cls::kOther;
  std::string verb;
  int group = -1;  // maintenance group id, or -1
  bool traced = false;
  size_t out_bytes = 0;
  // Traced statements only: span times and the query-history record.
  uint64_t lexparse_ns = 0;
  uint64_t stmt_ns = 0;
  uint64_t self_ns = 0;
  uint64_t plan_ns = 0;
  uint64_t rewrite_ns = 0;
  uint64_t execute_ns = 0;
  uint64_t resolve_ns = 0;
  uint64_t rounds = 0;
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  uint64_t subsumption_probes = 0;
  bool has_plan = false;
};

struct ProbeRec {
  std::string name;
  uint64_t ns = 0;
  uint32_t window = 0;
};

struct Span {
  uint32_t stmt = 0;
  int32_t parent = -1;
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Copies the executor's last trace under the benchmark's own statement
/// span `parent`, offset to the process clock.
void CopySpans(const hirel::obs::TraceSpan& span, uint64_t epoch_ns,
               uint32_t stmt, int32_t parent, std::vector<Span>& log) {
  int32_t self = static_cast<int32_t>(log.size());
  log.push_back(Span{stmt, parent, span.name, epoch_ns + span.start_ns,
                     epoch_ns + span.start_ns + span.ns});
  for (const auto& child : span.children) {
    CopySpans(*child, epoch_ns, stmt, self, log);
  }
}

uint64_t SumChildren(const hirel::obs::TraceSpan& span) {
  uint64_t ns = 0;
  for (const auto& c : span.children) ns += c->ns;
  return ns;
}

/// Fills the span-derived fields of `rec` from the executor's last trace.
void ReadTrace(const hirel::obs::Trace& trace, Rec& rec) {
  for (const auto& top : trace.spans()) {
    if (top->name == "lex" || top->name == "parse") {
      rec.lexparse_ns += top->ns;
      continue;
    }
    rec.stmt_ns += top->ns;
    rec.self_ns += top->ns - std::min(top->ns, SumChildren(*top));
    for (const auto& c : top->children) {
      if (c->name == "plan") {
        rec.plan_ns += c->ns;
        rec.has_plan = true;
      } else if (c->name == "rewrite") {
        rec.rewrite_ns += c->ns;
      } else if (c->name == "execute") {
        rec.execute_ns += c->ns;
      } else if (c->name == "resolve") {
        rec.resolve_ns += c->ns;
      } else if (c->name == "derive fixpoint") {
        rec.rounds += c->children.size();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Statistics.

/// Nearest-rank percentile of unsorted values; 0 for an empty set.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::max<size_t>(rank, 1) - 1];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / v.size();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // sample counts, printed on the text line
};

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-34s %14.6f %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

std::string Json(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::ostringstream o;
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(buf, sizeof buf, "%.10g", v);
    o << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
      << buf << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  o << "}}";
  return o.str();
}

/// Histogram of latencies in ms, four buckets per octave, one line per
/// bucket, with the cumulative share (to place p50 and p99 in it).
void PrintHistogram(const char* label, const std::vector<double>& ms) {
  if (ms.empty()) return;
  std::map<int, size_t> buckets;
  for (double v : ms) {
    buckets[static_cast<int>(std::floor(4 * std::log2(std::max(v, 1e-6))))]++;
  }
  std::printf("histogram %s (n=%zu, ms):\n", label, ms.size());
  size_t cumulative = 0;
  for (const auto& [b, n] : buckets) {
    cumulative += n;
    std::printf("  [%10.4f, %10.4f)  %7zu  cum %6.2f%%\n",
                std::exp2(b / 4.0), std::exp2((b + 1) / 4.0), n,
                100.0 * cumulative / ms.size());
  }
}

// ---------------------------------------------------------------------------
// The run.

class Runner {
 public:
  explicit Runner(const Options& o) : o_(o), t0_ns_(NowNs()) {}

  int Run() {
    // Untraced runs set up kSetups times for a median; all but the last
    // set-up run in forked children, so each starts on a fresh heap as a
    // user's process would, and the peak RSS is that of one set-up plus
    // the trace.
    for (int i = 1; !o_.trace && i < kSetups; ++i) {
      if (!ChildSetup()) return Finish();
    }
    if (!Setup()) return Finish();
    Trace();
    return Finish();
  }

 private:
  /// Executes one statement, records it, and checks its answer. Returns
  /// false on an error or a wrong answer.
  bool Execute(const Stmt& s, std::vector<Rec>& recs, int group,
               bool traced) {
    uint64_t start_ns = NowNs() - t0_ns_;
    auto start = Clock::now();
    hirel::Result<std::string> result = exec_->Execute(s.text);
    uint64_t ns = Since(start);
    Rec rec;
    rec.raw_ns = ns;
    rec.window = meter_.window();
    rec.cls = s.cls;
    rec.verb = Verb(s.text);
    rec.group = group;
    rec.traced = traced;
    meter_.Account(ns);
    ++attempted_;
    std::string why;
    if (!result.ok()) {
      why = result.status().ToString();
    } else {
      rec.out_bytes = result->size();
      CheckOutput(s.expect, *result, &why);
      NoteOutput(rec.verb, *result);
    }
    if (traced) {
      uint32_t id = static_cast<uint32_t>(attempted_);
      int32_t parent = static_cast<int32_t>(spans_.size());
      spans_.push_back(Span{id, -1, "statement " + rec.verb, start_ns,
                            start_ns + ns});
      const hirel::obs::Trace& trace = exec_->last_trace();
      uint64_t epoch = trace.epoch_ns() - t0_ns_;
      for (const auto& top : trace.spans()) {
        CopySpans(*top, epoch, id, parent, spans_);
      }
      ReadTrace(trace, rec);
      auto history = exec_->query_history().Snapshot();
      if (!history.empty()) {
        rec.rows_in = history.back()->rows_in;
        rec.rows_out = history.back()->rows_out;
        rec.subsumption_probes = history.back()->subsumption_probes;
      }
    }
    recs.push_back(std::move(rec));
    if (why.empty()) return true;
    ++failed_;
    std::cerr << "hqlbench: statement failed: " << s.text << "\n  " << why
              << "\n";
    return false;
  }

  /// Runs Setup() in a forked child and collects its times.
  bool ChildSetup() {
    int fds[2];
    if (pipe(fds) != 0) return false;
    std::fflush(stdout);
    pid_t pid = fork();
    if (pid < 0) return false;
    if (pid == 0) {
      close(fds[0]);
      double out[3] = {0, 0, 0};
      if (Setup()) {
        out[0] = setup_s_.back();
        out[1] = raw_setup_s_.back();
        out[2] = 1;
      }
      ssize_t written = write(fds[1], out, sizeof out);
      _exit(written == sizeof out ? 0 : 1);
    }
    close(fds[1]);
    double in[3] = {0, 0, 0};
    ssize_t got = read(fds[0], in, sizeof in);
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (got != sizeof in || in[2] != 1) {
      ++failed_;
      return false;
    }
    setup_s_.push_back(in[0]);
    raw_setup_s_.push_back(in[1]);
    return true;
  }

  bool Setup() {
    exec_ = std::make_unique<hirel::hql::Executor>();
    workload_ = MakeWorkload(o_.workload, o_.seed);
    std::vector<Stmt> script = workload_->Build();
    if (workload_->from_snapshot()) {
      std::ifstream file(o_.snapshot, std::ios::binary | std::ios::ate);
      snapshot_bytes_ = file ? static_cast<uint64_t>(file.tellg()) : 0;
      script.clear();
      Stmt load;
      load.text = "LOAD '" + o_.snapshot + "';";
      script.push_back(load);
    }
    for (Stmt& s : workload_->Warm()) script.push_back(std::move(s));
    std::vector<Rec> recs;
    meter_.Tick();
    for (const Stmt& s : script) {
      if (!Execute(s, recs, -1, false)) return false;
    }
    meter_.Tick();
    double norm = 0, raw = 0;
    for (const Rec& r : recs) {
      norm += r.raw_ns * meter_.Factor(r.window);
      raw += r.raw_ns;
      if (r.verb == "LOAD") load_s_ = r.raw_ns * meter_.Factor(r.window) / 1e9;
    }
    setup_s_.push_back(norm / 1e9);
    raw_setup_s_.push_back(raw / 1e9);
    attempted_ = 0;  // attempted/failed count the timed trace
    return true;
  }

  void Trace() {
    const uint64_t budget = static_cast<uint64_t>(o_.seconds * 1e9);
    consolidate_runs_ = consolidate_deltas_ = facts_derived_ = 0;
    meter_.Tick();
    cache0_ = ReadCacheCounters(*exec_);
    auto start = Clock::now();
    bool traced = false;
    int in_block = 0;
    int group = 0;
    // Untraced runs go on until the read p99 (the gated percentile with
    // the fewest samples beyond it) has kMinBeyond of them.
    size_t reads = 0;
    const size_t min_reads = o_.trace ? 0 : 100 * kMinBeyond;
    while (Since(start) < budget || reads < min_reads) {
      if (Since(start) >= kMaxStretch * budget) {
        std::cerr << "hqlbench: " << reads << " reads in " << kMaxStretch
                  << " x --seconds, fewer than the " << min_reads
                  << " a p99 with " << kMinBeyond
                  << " samples beyond it needs\n";
        short_ = true;
        break;
      }
      if (o_.trace && ++in_block > kBlock) {
        traced = !traced;
        in_block = 1;
      }
      Action a = workload_->Next();
      int g = a.maint_group ? group++ : -1;
      for (const Stmt& s : a.stmts) {
        if (traced) Before(s);
        if (!Execute(s, trace_, s.cls == Cls::kMaint ? g : -1, traced)) {
          meter_.Tick();
          return;
        }
        if (traced) After(s);
        reads += !traced && s.cls == Cls::kRead;
      }
    }
    meter_.Tick();
  }

  void Probe(const char* name, uint64_t ns) {
    if (ns == 0) return;
    probes_.push_back(ProbeRec{name, ns, meter_.window()});
    meter_.Account(ns);
  }

  /// The class or instance a statement selects on ("... = [ALL] name;").
  static std::string SelectNode(const std::string& text) {
    size_t eq = text.rfind("= ");
    if (eq == std::string::npos) return {};
    std::string node = text.substr(eq + 2, text.size() - eq - 3);
    if (node.rfind("ALL ", 0) == 0) node = node.substr(4);
    return node;
  }

  /// Probes that must run before the statement: the cache fetch a COUNT
  /// would otherwise make (so the patch or rebuild is timed on its own).
  void Before(const Stmt& s) {
    if (s.text == "COUNT stock;") {
      CacheCounters c0 = ReadCacheCounters(*exec_);
      Probe("cache.get", ProbeCacheGet(*exec_, "stock"));
      CacheCounters c1 = ReadCacheCounters(*exec_);
      probe_cache_.hits += c1.hits - c0.hits;
      probe_cache_.misses += c1.misses - c0.misses;
      probe_cache_.patches += c1.patches - c0.patches;
      probe_cache_.rebuilds += c1.rebuilds - c0.rebuilds;
      probe_cache_.journal_overflows +=
          c1.journal_overflows - c0.journal_overflows;
    }
  }

  /// Probes beside a statement that has run.
  void After(const Stmt& s) {
    const std::string verb = Verb(s.text);
    if (s.cls == Cls::kWrite) {
      Probe("integrity.check", ProbeCheck(*exec_, "stock"));
    }
    if (verb == "SELECT") {
      std::string node = SelectNode(s.text);
      if (s.text.find(" JOIN ") != std::string::npos) {
        Probe("algebra.join",
              ProbeJoin(*exec_, "supplies", "stock", "item", node));
      } else if (s.text.find(" INTERSECT ") != std::string::npos ||
                 s.text.find(" EXCEPT ") != std::string::npos) {
        Probe("algebra.setops",
              ProbeSetOp(*exec_, "stock", "promo", "item", node,
                         s.text.find(" INTERSECT ") != std::string::npos));
      } else if (s.text.find("FROM stock ") != std::string::npos) {
        Probe("algebra.select", ProbeSelect(*exec_, "stock", "item", node));
        Probe("store.subsuming", ProbeSubsuming(*exec_, "stock", node));
      }
    }
    if (++since_scan_ >= 50) {
      since_scan_ = 0;
      double ns = ProbeScanNsPerTuple(*exec_, "stock");
      if (ns > 0) scan_ns_.push_back(ns);
    }
  }

  double Norm(const Rec& r) const { return r.raw_ns * meter_.Factor(r.window); }

  /// Normalised (or raw) latencies in ms of one class, maintenance groups
  /// folded into one sample each.
  std::vector<double> Latencies(Cls cls, bool normalised, int traced) const {
    std::vector<double> out;
    std::map<int, double> groups;
    for (const Rec& r : trace_) {
      if (r.cls != cls || (traced >= 0 && r.traced != (traced == 1))) continue;
      double v = (normalised ? Norm(r) : r.raw_ns) / 1e6;
      if (r.group >= 0) {
        groups[r.group] += v;
      } else {
        out.push_back(v);
      }
    }
    for (const auto& [g, v] : groups) out.push_back(v);
    return out;
  }

  /// Mean normalised us of statements with `verb`.
  double VerbMeanUs(const std::string& verb) const {
    std::vector<double> v;
    for (const Rec& r : trace_) {
      if (r.verb == verb) v.push_back(Norm(r) / 1e3);
    }
    return Mean(v);
  }

  double ProbeMeanUs(const std::string& name) const {
    std::vector<double> v;
    for (const ProbeRec& p : probes_) {
      if (p.name == name) v.push_back(p.ns * meter_.Factor(p.window) / 1e3);
    }
    return Mean(v);
  }

  /// Mean over traced statements matching `pick` of field(rec), scaled to
  /// us with the statement's window factor.
  template <typename Pick, typename Field>
  double TracedMeanUs(Pick pick, Field field) const {
    std::vector<double> v;
    for (const Rec& r : trace_) {
      if (r.traced && pick(r)) {
        v.push_back(field(r) * meter_.Factor(r.window) / 1e3);
      }
    }
    return Mean(v);
  }

  /// Statements per second of normalised statement time.
  double Throughput(bool normalised, int traced) const {
    double ns = 0;
    size_t n = 0;
    for (const Rec& r : trace_) {
      if (traced >= 0 && r.traced != (traced == 1)) continue;
      ns += normalised ? Norm(r) : r.raw_ns;
      ++n;
    }
    return ns > 0 ? n / (ns / 1e9) : 0;
  }

  /// Sample count and samples beyond percentile q, for the text lines.
  static std::string Count(const std::vector<double>& v, double q) {
    size_t beyond = v.size() - std::min(v.size(), static_cast<size_t>(
                                                      std::ceil(q * v.size())));
    return "(n=" + std::to_string(v.size()) + ", beyond=" +
           std::to_string(beyond) + ")";
  }

  std::string SetupNote() const {
    std::string note = "(median of";
    for (double s : setup_s_) note += " " + std::to_string(s);
    return note + ")";
  }

  std::vector<Metric> EndToEnd() const {
    std::vector<double> reads = Latencies(Cls::kRead, true, -1);
    uint64_t bytes = 0, tuples = 0;
    StoreFootprint(*exec_, workload_->user_relations(), &bytes, &tuples);
    return {
        {"setup_s", Percentile(setup_s_, 0.5), "s", SetupNote()},
        {"stmts_per_s", Throughput(true, -1), "1/s",
         "(n=" + std::to_string(trace_.size()) + ")"},
        {"read_p50_ms", Percentile(reads, 0.5), "ms", Count(reads, 0.5)},
        {"read_p99_ms", Percentile(reads, 0.99), "ms", Count(reads, 0.99)},
        {"peak_rss_mb", PeakRssMb(), "MB", ""},
        {"store_bytes_per_tuple",
         tuples ? static_cast<double>(bytes) / tuples : 0, "B/tuple",
         "(" + std::to_string(tuples) + " tuples)"},
    };
  }

  /// Diagnostics printed beside the end-to-end metrics (and reported as
  /// per-layer metrics by the traced run, from its untraced blocks).
  std::vector<Metric> Diagnostics(int traced) const {
    std::vector<double> reads = Latencies(Cls::kRead, true, traced);
    std::vector<double> raw_reads = Latencies(Cls::kRead, false, traced);
    std::vector<double> writes = Latencies(Cls::kWrite, true, traced);
    std::vector<double> maint = Latencies(Cls::kMaint, true, traced);
    std::vector<double> ref = meter_.ref_ms();
    return {
        {"raw.setup_s", Percentile(raw_setup_s_, 0.5), "s", ""},
        {"raw.stmts_per_s", Throughput(false, traced), "1/s", ""},
        {"raw.read_p50_ms", Percentile(raw_reads, 0.5), "ms", ""},
        {"raw.read_p99_ms", Percentile(raw_reads, 0.99), "ms", ""},
        {"write_p50_ms", Percentile(writes, 0.5), "ms", Count(writes, 0.5)},
        {"write_p99_ms", Percentile(writes, 0.99), "ms",
         Count(writes, 0.99)},
        {"maint_p50_ms", Percentile(maint, 0.5), "ms", Count(maint, 0.5)},
        {"read_n", static_cast<double>(reads.size()), "count", ""},
        {"write_n", static_cast<double>(writes.size()), "count", ""},
        {"maint_n", static_cast<double>(maint.size()), "count", ""},
        {"error_rate",
         attempted_ ? static_cast<double>(failed_) / attempted_ : 0, "ratio",
         "(" + std::to_string(failed_) + " of " + std::to_string(attempted_) +
             ")"},
        {"bench.ref_ms", Percentile(ref, 0.5), "ms",
         "(n=" + std::to_string(ref.size()) + ", p10 " +
             std::to_string(Percentile(ref, 0.1)) + ", p90 " +
             std::to_string(Percentile(ref, 0.9)) + ")"},
    };
  }

  std::vector<Metric> PerLayer() const {
    auto planned_read = [](const Rec& r) {
      return r.cls == Cls::kRead && r.has_plan;
    };
    auto is_write = [](const Rec& r) { return r.cls == Cls::kWrite; };
    auto any = [](const Rec&) { return true; };

    // Output size, rows and probes over traced reads.
    double out_bytes = 0, rows_in = 0, rows_out = 0, probes = 0, reads = 0;
    // Guard time (write statement span less resolve) and all statement
    // time, both from the engine's own spans.
    double traced_raw_ns = 0, guard_raw_ns = 0;
    for (const Rec& r : trace_) {
      if (!r.traced) continue;
      traced_raw_ns += r.raw_ns;
      if (r.cls == Cls::kWrite) {
        guard_raw_ns += r.stmt_ns - std::min(r.stmt_ns, r.resolve_ns);
      }
      if (r.cls != Cls::kRead) continue;
      ++reads;
      out_bytes += r.out_bytes;
      rows_in += r.rows_in;
      rows_out += r.rows_out;
      probes += r.subsumption_probes;
    }

    // Cache counters over the trace, less the probes' own fetches.
    CacheCounters c1 = ReadCacheCounters(*exec_);
    double hits = c1.hits - cache0_.hits - probe_cache_.hits;
    double misses = c1.misses - cache0_.misses - probe_cache_.misses;
    double patched = c1.patches - cache0_.patches - probe_cache_.patches;
    double rebuilt = c1.rebuilds - cache0_.rebuilds - probe_cache_.rebuilds;
    double overflows = c1.journal_overflows - cache0_.journal_overflows -
                       probe_cache_.journal_overflows;

    // DERIVE rounds, from the traced DERIVEs' spans.
    double derives = 0, rounds = 0, traced_derives = 0;
    for (const Rec& r : trace_) {
      if (r.verb != "DERIVE") continue;
      ++derives;
      if (r.traced) {
        ++traced_derives;
        rounds += r.rounds;
      }
    }

    // Trace overhead: per verb, traced mean over untraced mean, weighted
    // by the verb's share of untraced time.
    std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
        by_verb;
    for (const Rec& r : trace_) {
      (r.traced ? by_verb[r.verb].first : by_verb[r.verb].second)
          .push_back(Norm(r));
    }
    double weighted = 0, weight = 0;
    for (const auto& [verb, v] : by_verb) {
      if (v.first.empty() || v.second.empty()) continue;
      double untraced_total = Mean(v.second) * v.second.size();
      weighted += untraced_total * Mean(v.first) / Mean(v.second);
      weight += untraced_total;
    }

    uint64_t bytes = 0, tuples = 0;
    StoreFootprint(*exec_, workload_->user_relations(), &bytes, &tuples);

    std::vector<Metric> m = {
        {"hql.parse_us", TracedMeanUs(any, [](const Rec& r) {
           return static_cast<double>(r.lexparse_ns);
         }), "us", ""},
        {"hql.render_us", TracedMeanUs(planned_read, [](const Rec& r) {
           return static_cast<double>(r.self_ns);
         }), "us", ""},
        {"hql.output_kb_per_read", reads ? out_bytes / reads / 1024 : 0, "KB",
         ""},
        {"plan.compile_us", TracedMeanUs(planned_read, [](const Rec& r) {
           return static_cast<double>(r.plan_ns);
         }), "us", ""},
        {"plan.rewrite_us", TracedMeanUs(planned_read, [](const Rec& r) {
           return static_cast<double>(r.rewrite_ns);
         }), "us", ""},
        {"plan.execute_us", TracedMeanUs(planned_read, [](const Rec& r) {
           return static_cast<double>(r.execute_ns);
         }), "us", ""},
        {"plan.rows_scanned_per_row_out", rows_out ? rows_in / rows_out : 0,
         "ratio", ""},
        {"plan.probes_per_stmt", reads ? probes / reads : 0, "count", ""},
        {"algebra.select_us", ProbeMeanUs("algebra.select"), "us", ""},
        {"algebra.join_us", ProbeMeanUs("algebra.join"), "us", ""},
        {"algebra.setops_us", ProbeMeanUs("algebra.setops"), "us", ""},
        {"integrity.guard_us", TracedMeanUs(is_write, [](const Rec& r) {
           return static_cast<double>(r.stmt_ns - std::min(r.stmt_ns, r.resolve_ns));
         }), "us", ""},
        {"integrity.check_us", ProbeMeanUs("integrity.check"), "us", ""},
        {"integrity.time_share",
         traced_raw_ns ? guard_raw_ns / traced_raw_ns : 0, "ratio", ""},
        {"txn.commit_us", VerbMeanUs("COMMIT"), "us", ""},
        {"cache.get_us", ProbeMeanUs("cache.get"), "us", ""},
        {"cache.hit_ratio", hits + misses ? hits / (hits + misses) : 0,
         "ratio", ""},
        {"cache.patched", patched, "count", ""},
        {"cache.rebuilt", rebuilt, "count", ""},
        {"cache.journal_overflows", overflows, "count", ""},
        {"consolidate.us", VerbMeanUs("CONSOLIDATE"), "us", ""},
        {"consolidate.delta_share",
         consolidate_runs_
             ? static_cast<double>(consolidate_deltas_) / consolidate_runs_
             : 0,
         "ratio", ""},
        {"store.scan_ns_per_tuple", Mean(scan_ns_), "ns/tuple", ""},
        {"store.subsuming_us", ProbeMeanUs("store.subsuming"), "us", ""},
        {"store.bytes", static_cast<double>(bytes), "B", ""},
        {"hierarchy.edit_us", VerbMeanUs("CREATE"), "us", ""},
        {"snapshot.load_s", load_s_, "s", ""},
        {"snapshot.bytes_per_tuple",
         snapshot_bytes_ && tuples ? static_cast<double>(snapshot_bytes_) / tuples : 0,
         "B/tuple", ""},
        {"rules.derive_us", VerbMeanUs("DERIVE"), "us", ""},
        {"rules.rounds", traced_derives ? rounds / traced_derives : 0, "count",
         ""},
        {"rules.facts_derived", static_cast<double>(facts_derived_), "count",
         "(" + std::to_string(static_cast<int>(derives)) + " DERIVEs)"},
        {"obs.stmt_overhead_us", TracedMeanUs(any, [](const Rec& r) {
           uint64_t inside = r.lexparse_ns + r.stmt_ns;
           return static_cast<double>(r.raw_ns - std::min(r.raw_ns, inside));
         }), "us", ""},
        {"bench.trace_overhead", weight ? weighted / weight - 1 : 0, "ratio",
         ""},
    };
    std::vector<Metric> diag = Diagnostics(0);
    m.insert(m.end(), diag.begin(), diag.end());
    return m;
  }

  int Finish() {
    bool correct = failed_ == 0 && !setup_s_.empty() && !short_;
    if (!o_.spans.empty() && !spans_.empty()) WriteSpans();
    std::map<std::string, std::vector<double>> by_verb;
    for (const Rec& r : trace_) by_verb[r.verb].push_back(Norm(r) / 1e6);
    for (const auto& [verb, ms] : by_verb) {
      std::printf("verb %-12s n=%-6zu mean %10.4f ms  p50 %10.4f ms\n",
                  verb.c_str(), ms.size(), Mean(ms), Percentile(ms, 0.5));
    }
    PrintHistogram("read", Latencies(Cls::kRead, true, 0));
    PrintHistogram("write", Latencies(Cls::kWrite, true, 0));
    PrintHistogram("maint", Latencies(Cls::kMaint, true, 0));
    std::vector<Metric> metrics;
    if (correct) {
      if (o_.trace) {
        metrics = PerLayer();
        PrintMetrics(metrics);
      } else {
        metrics = EndToEnd();
        PrintMetrics(metrics);
        PrintMetrics(Diagnostics(-1));
      }
    }
    std::printf("%s\n", Json(correct, std::max<uint64_t>(attempted_, 1),
                             failed_, metrics)
                            .c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  }

  void WriteSpans() const {
    std::ofstream out(o_.spans);
    for (const Span& s : spans_) {
      out << "{\"stmt\": " << s.stmt << ", \"parent\": " << s.parent
          << ", \"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns << "}\n";
    }
  }

  /// Counts what CONSOLIDATE and DERIVE report of their own work.
  void NoteOutput(const std::string& verb, const std::string& output) {
    if (verb == "CONSOLIDATE") {
      ++consolidate_runs_;
      consolidate_deltas_ += output.find("(delta)") != std::string::npos;
    }
    if (verb == "DERIVE") {
      size_t at = output.find("derived ");
      if (at != std::string::npos) {
        facts_derived_ += std::strtoull(output.c_str() + at + 8, nullptr, 10);
      }
    }
  }
  // Set-ups per untraced run (the traced run sets up once); setup_s is
  // their median.
  static constexpr int kSetups = 5;
  // Actions per block of the traced run (blocks alternate traced and
  // untraced, so both halves see the same phases of the trace).
  static constexpr int kBlock = 20;
  // Fewest samples beyond a gated percentile, and how far past --seconds
  // an untraced run may go to collect them.
  static constexpr size_t kMinBeyond = 10;
  static constexpr uint64_t kMaxStretch = 3;

  const Options& o_;
  const uint64_t t0_ns_;
  Meter meter_;
  std::unique_ptr<hirel::hql::Executor> exec_;
  std::unique_ptr<Workload> workload_;
  std::vector<double> setup_s_;
  std::vector<double> raw_setup_s_;
  double load_s_ = 0;
  std::vector<Rec> trace_;
  std::vector<ProbeRec> probes_;
  std::vector<Span> spans_;
  std::vector<double> scan_ns_;
  CacheCounters cache0_;
  CacheCounters probe_cache_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool short_ = false;  // too few samples beyond a gated percentile
  int since_scan_ = 0;
  uint64_t consolidate_runs_ = 0;
  uint64_t consolidate_deltas_ = 0;
  uint64_t facts_derived_ = 0;
  uint64_t snapshot_bytes_ = 0;
};

// ---------------------------------------------------------------------------
// snapshot and gen.

int Snapshot(const Options& o) {
  std::unique_ptr<Workload> workload = MakeWorkload(o.workload, o.seed);
  hirel::hql::Executor exec;
  for (const Stmt& s : workload->Build()) {
    const std::string verb = Verb(s.text);
    if (verb == "BEGIN" || verb == "COMMIT") continue;
    if (verb == "ASSERT" || verb == "DENY") {
      if (!InsertUnguarded(exec, s.relation, s.item, verb == "ASSERT")) {
        std::cerr << "hqlbench snapshot: " << s.text << " failed\n";
        return 1;
      }
      continue;
    }
    auto r = exec.Execute(s.text);
    if (!r.ok()) {
      std::cerr << "hqlbench snapshot: " << s.text << ": " << r.status()
                << "\n";
      return 1;
    }
  }
  auto saved = exec.Execute("SAVE '" + o.out + "';");
  if (!saved.ok()) {
    std::cerr << "hqlbench snapshot: " << saved.status() << "\n";
    return 1;
  }
  return 0;
}

int Gen(const Options& o) {
  std::unique_ptr<Workload> workload = MakeWorkload(o.workload, o.seed);
  std::vector<Stmt> script = workload->Build();
  for (Stmt& s : workload->Warm()) script.push_back(std::move(s));
  for (size_t i = 0; i < o.ops; ++i) {
    for (Stmt& s : workload->Next().stmts) script.push_back(std::move(s));
  }
  for (const Stmt& s : script) std::cout << s.text << "\n";
  if (!o.check) return 0;
  hirel::hql::Executor exec;
  for (const Stmt& s : script) {
    auto r = exec.Execute(s.text);
    std::string why;
    if (!r.ok()) {
      why = r.status().ToString();
    } else {
      CheckOutput(s.expect, *r, &why);
    }
    if (!why.empty()) {
      std::cerr << "hqlbench gen --check: " << s.text << "\n  " << why
                << "\n";
      return 1;
    }
  }
  std::cerr << "hqlbench gen --check: " << script.size()
            << " statements executed, every answer matches the model\n";
  return 0;
}

bool ParseArgs(int argc, char** argv, Options* o) {
  if (argc < 2) return false;
  o->mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--check") {
      o->check = true;
    } else if ((v = value()) == nullptr) {
      return false;
    } else if (flag == "--workload") {
      o->workload = v;
    } else if (flag == "--seed") {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      o->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      o->trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--snapshot") {
      o->snapshot = v;
    } else if (flag == "--spans") {
      o->spans = v;
    } else if (flag == "--out") {
      o->out = v;
    } else if (flag == "--ops") {
      o->ops = std::strtoull(v, nullptr, 10);
    } else {
      return false;
    }
  }
  return MakeWorkload(o->workload, o->seed) != nullptr;
}

}  // namespace
}  // namespace hqlbench

int main(int argc, char** argv) {
  hqlbench::Options o;
  if (!hqlbench::ParseArgs(argc, argv, &o)) return hqlbench::Usage();
  if (o.mode == "run") {
    std::unique_ptr<hqlbench::Workload> w =
        hqlbench::MakeWorkload(o.workload, o.seed);
    if (w->from_snapshot() && o.snapshot.empty()) return hqlbench::Usage();
    return hqlbench::Runner(o).Run();
  }
  if (o.mode == "snapshot" && !o.out.empty()) return hqlbench::Snapshot(o);
  if (o.mode == "gen") return hqlbench::Gen(o);
  return hqlbench::Usage();
}
