#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace stencil::telemetry {

/// Monotonically increasing event count. Cheap: one add on the hot path.
struct Counter {
  std::uint64_t value = 0;
  void add(std::uint64_t n = 1) { value += n; }
};

/// Last-write-wins instantaneous value (cache sizes, epochs, efficiencies).
struct Gauge {
  double value = 0.0;
  void set(double v) { value = v; }
};

/// Log-scale (power-of-two bucket) histogram over non-negative integer
/// samples: virtual nanoseconds, bytes, attempt counts. Bucket i counts
/// samples v with 2^(i-1) < v <= 2^i (bucket 0 holds v in {0, 1}), so the
/// upper bound of bucket i is 2^i. 64 buckets cover the full uint64 range.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void observe(std::uint64_t v);

  /// Index of the bucket that observe(v) increments.
  static int bucket_index(std::uint64_t v);
  /// Inclusive upper bound of bucket i (2^i, saturating at uint64 max).
  static std::uint64_t bucket_bound(int i);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ ? min_ : 0; }
  std::uint64_t max() const { return max_; }
  double mean() const { return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0; }
  std::uint64_t bucket_count(int i) const { return buckets_[i]; }
  /// Highest non-empty bucket index + 1 (0 when empty); exporters stop here.
  int used_buckets() const;

  /// Bucketwise fold of another histogram into this one.
  void merge(const Histogram& other);

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// Name-keyed registry of the three instrument kinds. Lookup interns the
/// name; returned references stay valid for the registry's lifetime
/// (std::map nodes are stable), so call sites hoist the lookup out of hot
/// loops and then touch a single word per event. Names may carry
/// Prometheus-style labels inline: `exchange_bytes_total{method="staged"}`.
/// Iteration order is lexicographic, so every export is deterministic.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const { return histograms_; }

  /// Value of a counter, or 0 when it was never touched (does not intern).
  std::uint64_t counter_value(const std::string& name) const;

  /// Register documentation for a metric, keyed by *base* name (labels
  /// stripped). The Prometheus exporter emits it as the `# HELP` line;
  /// metrics without registered help get a generated fallback, so the text
  /// format is always promtool-parseable.
  void set_help(const std::string& base, const std::string& text) { help_[base] = text; }
  const std::map<std::string, std::string>& help_texts() const { return help_; }

  void clear();

  /// Fold another registry into this one (counters add, gauges last-write,
  /// histograms merge bucketwise). Used to combine the sinks of separate
  /// clusters (e.g. one per configuration) into one report.
  void merge(const MetricsRegistry& other);

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, std::string> help_;
};

/// Split `name{labels}` into its base name and label set ("" when plain).
/// Exporters use this to emit well-formed Prometheus series.
std::pair<std::string, std::string> split_metric_name(const std::string& name);

}  // namespace stencil::telemetry
