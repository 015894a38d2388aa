#include "telemetry/export.h"

#include <cstdio>
#include <set>

namespace stencil::telemetry {

namespace {

using trace::json_escape;

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Escape label *values* inside an inline label block for the Prometheus
/// text exposition format, which requires \\ , \" and \n escapes. The block
/// is `k="v",k2="v2"` as interned in the metric name; values are raw (call
/// sites interpolate arbitrary strings), so a quote inside a value is a
/// terminator only when followed by `,` or the end of the block.
std::string prom_escape_labels(const std::string& labels) {
  std::string out;
  out.reserve(labels.size());
  bool in_value = false;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const char c = labels[i];
    if (!in_value) {
      out.push_back(c);
      if (c == '"') in_value = true;
    } else if (c == '"' && (i + 1 == labels.size() || labels[i + 1] == ',')) {
      out.push_back('"');
      in_value = false;
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void write_histogram_json(std::ostream& os, const Histogram& h) {
  os << "{\"count\": " << h.count() << ", \"sum\": " << h.sum() << ", \"min\": " << h.min()
     << ", \"max\": " << h.max() << ", \"mean\": " << fmt_double(h.mean()) << ", \"buckets\": [";
  bool first = true;
  for (int i = 0; i < h.used_buckets(); ++i) {
    if (h.bucket_count(i) == 0) continue;
    if (!first) os << ", ";
    first = false;
    os << "{\"le\": " << Histogram::bucket_bound(i) << ", \"count\": " << h.bucket_count(i) << "}";
  }
  os << "]}";
}

}  // namespace

void write_metrics_json(std::ostream& os, const MetricsRegistry& reg) {
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : reg.counters()) {
    os << (first ? "" : ",") << "\n    \"" << json_escape(name) << "\": " << c.value;
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : reg.gauges()) {
    os << (first ? "" : ",") << "\n    \"" << json_escape(name) << "\": " << fmt_double(g.value);
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : reg.histograms()) {
    os << (first ? "" : ",") << "\n    \"" << json_escape(name) << "\": ";
    write_histogram_json(os, h);
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
}

void write_prometheus(std::ostream& os, const MetricsRegistry& reg) {
  // One # HELP + # TYPE pair per base name, emitted before its first series
  // (the exposition format requires metadata to precede samples). Help text
  // comes from MetricsRegistry::set_help, with a generated fallback so the
  // output is promtool-parseable even for undocumented metrics. HELP values
  // escape backslash and newline per the text format.
  std::set<std::string> typed;
  const auto escape_help = [](const std::string& text) {
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
      if (c == '\\') out += "\\\\";
      else if (c == '\n') out += "\\n";
      else out.push_back(c);
    }
    return out;
  };
  const auto type_line = [&](const std::string& base, const char* kind) {
    if (!typed.insert(base).second) return;
    const auto& help = reg.help_texts();
    const auto it = help.find(base);
    const std::string text =
        it != help.end() ? it->second : "Stencil telemetry " + std::string(kind) + " " + base + ".";
    os << "# HELP " << base << " " << escape_help(text) << "\n";
    os << "# TYPE " << base << " " << kind << "\n";
  };
  const auto series = [](const std::string& base, const std::string& labels,
                         const std::string& extra = "") {
    std::string all = prom_escape_labels(labels);  // `extra` is generated, already clean
    if (!extra.empty()) all += (all.empty() ? "" : ",") + extra;
    return all.empty() ? base : base + "{" + all + "}";
  };

  for (const auto& [name, c] : reg.counters()) {
    const auto [base, labels] = split_metric_name(name);
    type_line(base, "counter");
    os << series(base, labels) << " " << c.value << "\n";
  }
  for (const auto& [name, g] : reg.gauges()) {
    const auto [base, labels] = split_metric_name(name);
    type_line(base, "gauge");
    os << series(base, labels) << " " << fmt_double(g.value) << "\n";
  }
  for (const auto& [name, h] : reg.histograms()) {
    const auto [base, labels] = split_metric_name(name);
    type_line(base, "histogram");
    std::uint64_t cum = 0;
    for (int i = 0; i < h.used_buckets(); ++i) {
      if (h.bucket_count(i) == 0) continue;
      cum += h.bucket_count(i);
      os << series(base + "_bucket", labels,
                   "le=\"" + std::to_string(Histogram::bucket_bound(i)) + "\"")
         << " " << cum << "\n";
    }
    os << series(base + "_bucket", labels, "le=\"+Inf\"") << " " << h.count() << "\n";
    os << series(base + "_sum", labels) << " " << h.sum() << "\n";
    os << series(base + "_count", labels) << " " << h.count() << "\n";
  }
}

void write_report_json(std::ostream& os, const MetricsRegistry& reg, const Analysis& analysis) {
  os << "{\n\"metrics\": ";
  write_metrics_json(os, reg);
  os << ",\n\"critical_path\": {\n  \"makespan_ns\": " << analysis.makespan
     << ",\n  \"critical_busy_ns\": " << analysis.critical_busy
     << ",\n  \"critical_wait_ns\": " << analysis.critical_wait
     << ",\n  \"overlap_efficiency\": " << fmt_double(analysis.overlap_efficiency)
     << ",\n  \"chain\": [";
  bool first = true;
  for (const auto& h : analysis.chain) {
    os << (first ? "" : ",") << "\n    {\"lane\": \"" << json_escape(h.lane) << "\", \"label\": \""
       << json_escape(h.label) << "\", \"start_ns\": " << h.start << ", \"end_ns\": " << h.end
       << ", \"wait_ns\": " << h.wait << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "],\n  \"lanes\": [";
  first = true;
  for (const auto& ls : analysis.lanes) {
    os << (first ? "" : ",") << "\n    {\"lane\": \"" << json_escape(ls.lane)
       << "\", \"busy_ns\": " << ls.busy << ", \"critical_ns\": " << ls.critical
       << ", \"slack_ns\": " << ls.slack << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "]\n}\n}\n";
}

}  // namespace stencil::telemetry
