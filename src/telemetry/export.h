#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "telemetry/critical_path.h"
#include "telemetry/metrics.h"
#include "trace/recorder.h"

namespace stencil::telemetry {

/// All registry contents as one JSON object:
///   {"counters": {...}, "gauges": {...}, "histograms": {...}}
void write_metrics_json(std::ostream& os, const MetricsRegistry& reg);

/// Prometheus text exposition format: one `# TYPE` line per series base
/// name, cumulative `_bucket{le="..."}` series plus `_sum`/`_count` for
/// histograms. Inline labels in metric names are merged with `le`.
void write_prometheus(std::ostream& os, const MetricsRegistry& reg);

/// Enriched chrome://tracing output: thread-name metadata per lane, one
/// "X" span event per record with metadata args (critical-path membership
/// and wait time when an Analysis is supplied), and one "C" counter event
/// per registry counter so totals show up alongside the timeline.
void write_chrome_trace(std::ostream& os, const std::vector<trace::OpRecord>& spans,
                        const MetricsRegistry* reg = nullptr, const Analysis* analysis = nullptr);

/// Full JSON report: metrics + critical-path analysis in one document.
void write_report_json(std::ostream& os, const MetricsRegistry& reg, const Analysis& analysis);

}  // namespace stencil::telemetry
