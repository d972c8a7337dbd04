#include "obs/export.h"

#include <cstdio>

#include "common/str_util.h"
#include "obs/json.h"

namespace hirel {
namespace obs {

namespace {

// Query spans render on tid 1, wait spans on tid 2 (the session track): a
// wait may be recorded by another thread while the trace is captured, so
// it need not nest inside the query spans.
constexpr int kQueryTid = 1;
constexpr int kSessionTid = 2;

void AppendMicros(std::string& out, uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1e3);
  out += buf;
}

void AppendMetaEvent(std::string& out, int tid, std::string_view kind,
                     std::string_view name) {
  out += StrCat("{\"ph\":\"M\",\"pid\":1,\"tid\":", tid, ",\"name\":\"", kind,
                "\",\"args\":{\"name\":");
  AppendJsonString(out, name);
  out += "}}";
}

void AppendSpanEvent(std::string& out, const TraceSpan& span) {
  out += "{\"ph\":\"X\",\"pid\":1,\"tid\":";
  out += StrCat(kQueryTid, ",\"name\":");
  AppendJsonString(out, span.name);
  out += ",\"ts\":";
  AppendMicros(out, span.start_ns);
  out += ",\"dur\":";
  AppendMicros(out, span.ns);
  out += ",\"args\":{";
  for (size_t i = 0; i < span.notes.size(); ++i) {
    if (i > 0) out += ",";
    AppendJsonString(out, span.notes[i].first);
    out += StrCat(":", span.notes[i].second);
  }
  out += "}}";
  for (const auto& child : span.children) {
    out += ",";
    AppendSpanEvent(out, *child);
  }
}

bool IsPromChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

// "query.statements" -> "hirel_query_statements". Returns whether any
// character had to be rewritten (the caller then keeps the raw name as a
// label so no information is lost).
bool SanitizeName(std::string_view raw, std::string& out) {
  out = "hirel_";
  bool changed = false;
  for (char c : raw) {
    if (IsPromChar(c)) {
      out += c;
    } else {
      out += '_';
      changed = true;
    }
  }
  return changed;
}

// Prometheus label-value escaping: backslash, double quote, newline.
void AppendLabelValue(std::string& out, std::string_view value) {
  out += '"';
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  out += '"';
}

void AppendSeries(std::string& out, const std::string& name,
                  std::string_view raw_if_changed, std::string_view extra_label,
                  std::string_view extra_value) {
  out += name;
  const bool has_name_label = !raw_if_changed.empty();
  const bool has_extra = !extra_label.empty();
  if (has_name_label || has_extra) {
    out += '{';
    if (has_name_label) {
      out += "name=";
      AppendLabelValue(out, raw_if_changed);
      if (has_extra) out += ',';
    }
    if (has_extra) {
      out += extra_label;
      out += '=';
      AppendLabelValue(out, extra_value);
    }
    out += '}';
  }
  out += ' ';
}

// Prometheus HELP escaping: backslash and newline only.
void AppendHelpLine(std::string& out, const std::string& name,
                    std::string_view raw) {
  out += StrCat("# HELP ", name, " ");
  for (char c : MetricHelp(raw)) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  out += '\n';
}

}  // namespace

std::string ChromeTraceJson(
    const Trace& trace,
    const std::vector<WaitEventRegistry::WaitSpan>& waits) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ",";
    first = false;
  };

  sep();
  AppendMetaEvent(out, 0, "process_name", "hirel");
  sep();
  AppendMetaEvent(out, kQueryTid, "thread_name", "query");

  // Wait spans are stamped on the absolute steady clock; the trace epoch
  // (also steady) anchors them to the same zero as the span offsets.
  uint64_t epoch = trace.epoch_ns();
  if (epoch == 0) {
    for (const auto& w : waits) {
      if (epoch == 0 || w.start_ns < epoch) epoch = w.start_ns;
    }
  }
  if (!waits.empty()) {
    sep();
    AppendMetaEvent(out, kSessionTid, "thread_name", "session");
  }

  for (const auto& span : trace.spans()) {
    sep();
    AppendSpanEvent(out, *span);
  }

  for (const auto& w : waits) {
    sep();
    out += StrCat("{\"ph\":\"X\",\"pid\":1,\"tid\":", kSessionTid,
                  ",\"name\":\"wait:", w.site, "\",\"cat\":\"wait\",\"ts\":");
    AppendMicros(out, w.start_ns >= epoch ? w.start_ns - epoch : 0);
    out += ",\"dur\":";
    AppendMicros(out, w.dur_ns);
    out += StrCat(",\"args\":{\"class\":\"", WaitClassName(w.cls), "\"}}");
  }

  out += "]}";
  return out;
}

std::string PrometheusText(const MetricsRegistry& metrics,
                           const WaitEventRegistry* waits) {
  std::string out;
  std::string name;
  for (const auto& [raw, c] : metrics.counters()) {
    const bool changed = SanitizeName(raw, name);
    AppendHelpLine(out, name, raw);
    out += StrCat("# TYPE ", name, " counter\n");
    AppendSeries(out, name, changed ? raw : std::string_view(), {}, {});
    out += StrCat(c->value(), "\n");
  }
  for (const auto& [raw, g] : metrics.gauges()) {
    const bool changed = SanitizeName(raw, name);
    AppendHelpLine(out, name, raw);
    out += StrCat("# TYPE ", name, " gauge\n");
    AppendSeries(out, name, changed ? raw : std::string_view(), {}, {});
    out += StrCat(g->value(), "\n");
  }
  for (const auto& [raw, h] : metrics.histograms()) {
    const bool changed = SanitizeName(raw, name);
    const std::string_view raw_label = changed ? raw : std::string_view();
    AppendHelpLine(out, name, raw);
    out += StrCat("# TYPE ", name, " histogram\n");
    uint64_t cumulative = 0;
    for (size_t i = 0; i < Histogram::kBuckets; ++i) {
      cumulative += h->bucket(i);
      const uint64_t bound = Histogram::BucketBound(i);
      AppendSeries(out, name + "_bucket", raw_label, "le",
                   bound == 0 ? std::string("+Inf") : StrCat(bound));
      out += StrCat(cumulative, "\n");
    }
    AppendSeries(out, name + "_sum", raw_label, {}, {});
    out += StrCat(h->sum_ns(), "\n");
    AppendSeries(out, name + "_count", raw_label, {}, {});
    out += StrCat(h->count(), "\n");
  }
  if (waits != nullptr) {
    // One histogram family for every wait site, labelled {site, class}.
    // AppendSeries carries at most one extra label, so the label pairs
    // are rendered by hand here.
    const std::vector<WaitEventRegistry::SiteSnapshot> sites =
        waits->Snapshot();
    bool any = false;
    for (const auto& site : sites) {
      if (site.count == 0) continue;
      if (!any) {
        out += "# HELP hirel_wait_site_ns time blocked per wait site\n";
        out += "# TYPE hirel_wait_site_ns histogram\n";
        any = true;
      }
      std::string labels = "site=";
      AppendLabelValue(labels, site.name);
      labels += ",class=";
      AppendLabelValue(labels, WaitClassName(site.cls));
      uint64_t cumulative = 0;
      for (size_t i = 0; i < WaitEventRegistry::kHistogramBuckets; ++i) {
        cumulative += site.buckets[i];
        out += StrCat("hirel_wait_site_ns_bucket{", labels, ",le=");
        if (i + 1 == WaitEventRegistry::kHistogramBuckets) {
          out += "\"+Inf\"";
        } else {
          AppendLabelValue(out, StrCat(uint64_t{1024} << i));
        }
        out += StrCat("} ", cumulative, "\n");
      }
      out += StrCat("hirel_wait_site_ns_sum{", labels, "} ", site.total_ns,
                    "\n");
      out += StrCat("hirel_wait_site_ns_count{", labels, "} ", site.count,
                    "\n");
    }
  }
  return out;
}

}  // namespace obs
}  // namespace hirel
