// Exporters: the engine's own observability state rendered in the two
// interchange formats external tools actually consume.
//
//  * ChromeTraceJson turns the last query's span tree (plus the wait
//    spans captured while it ran) into Chrome trace-event JSON, loadable
//    in chrome://tracing or Perfetto. Query spans land on one track and
//    wait spans on a second, session track.
//  * PrometheusText renders a MetricsRegistry in the Prometheus text
//    exposition format: `# TYPE` lines, sanitized metric names, and
//    cumulative histogram buckets with `le` labels; with a wait registry
//    it also emits one `hirel_wait_site_ns` histogram series per site,
//    labelled {site, class}.
//
// Everything else the engine knows about itself is a sys.* relation
// (obs/sys_catalog.h) and renders through FormatRelation /
// FormatRelationJson (io/text_dump.h).

#ifndef HIREL_OBS_EXPORT_H_
#define HIREL_OBS_EXPORT_H_

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/wait.h"

namespace hirel {
namespace obs {

/// Chrome trace-event JSON for `trace` and the wait spans captured while
/// it ran. Span start offsets come from TraceSpan::start_ns; wait spans
/// carry absolute steady-clock stamps and are aligned by subtracting
/// trace.epoch_ns() (or the earliest wait stamp when the trace is empty).
/// Wait spans render as "wait:<site>" events on the session track, beside
/// the query spans on one timeline.
std::string ChromeTraceJson(
    const Trace& trace,
    const std::vector<WaitEventRegistry::WaitSpan>& waits = {});

/// Prometheus text exposition of every metric in `metrics`. Names are
/// sanitized to [a-zA-Z0-9_] with a `hirel_` prefix; when sanitization
/// changed the name, the raw name is preserved as a `name` label (with
/// Prometheus label escaping). Every metric family gets a `# HELP` line
/// (from the MetricHelp registry) followed by `# TYPE`. Histograms render
/// cumulative `_bucket` series with `le` bounds in nanoseconds, plus
/// `_sum` and `_count`.
std::string PrometheusText(const MetricsRegistry& metrics,
                           const WaitEventRegistry* waits = nullptr);

}  // namespace obs
}  // namespace hirel

#endif  // HIREL_OBS_EXPORT_H_
