#pragma once

#include <ostream>

#include "telemetry/critical_path.h"
#include "telemetry/metrics.h"

namespace stencil::telemetry {

/// All registry contents as one JSON object:
///   {"counters": {...}, "gauges": {...}, "histograms": {...}}
void write_metrics_json(std::ostream& os, const MetricsRegistry& reg);

/// Prometheus text exposition format: one `# TYPE` line per series base
/// name, cumulative `_bucket{le="..."}` series plus `_sum`/`_count` for
/// histograms. Inline labels in metric names are merged with `le`.
void write_prometheus(std::ostream& os, const MetricsRegistry& reg);

/// Full JSON report: metrics + critical-path analysis in one document.
void write_report_json(std::ostream& os, const MetricsRegistry& reg, const Analysis& analysis);

}  // namespace stencil::telemetry
