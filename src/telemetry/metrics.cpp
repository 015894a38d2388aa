#include "telemetry/metrics.h"

#include <algorithm>
#include <limits>

namespace stencil::telemetry {

int Histogram::bucket_index(std::uint64_t v) {
  if (v <= 1) return 0;
  // Smallest i with v <= 2^i, i.e. ceil(log2(v)).
  int i = 64 - __builtin_clzll(v - 1);
  return std::min(i, kBuckets - 1);
}

std::uint64_t Histogram::bucket_bound(int i) {
  if (i >= 63) return std::numeric_limits<std::uint64_t>::max();
  return std::uint64_t{1} << i;
}

void Histogram::observe(std::uint64_t v) {
  ++buckets_[bucket_index(v)];
  if (count_ == 0 || v < min_) min_ = v;
  if (v > max_) max_ = v;
  ++count_;
  sum_ += v;
}

int Histogram::used_buckets() const {
  for (int i = kBuckets; i-- > 0;) {
    if (buckets_[i] != 0) return i + 1;
  }
  return 0;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  for (int i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value;
}

void MetricsRegistry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  help_.clear();
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters_) counters_[name].value += c.value;
  for (const auto& [name, g] : other.gauges_) gauges_[name].value = g.value;
  for (const auto& [name, h] : other.histograms_) histograms_[name].merge(h);
  // First registration wins: merged sinks document the same bases.
  for (const auto& [base, text] : other.help_) help_.emplace(base, text);
}

std::pair<std::string, std::string> split_metric_name(const std::string& name) {
  const auto brace = name.find('{');
  if (brace == std::string::npos || name.back() != '}') return {name, ""};
  return {name.substr(0, brace), name.substr(brace + 1, name.size() - brace - 2)};
}

}  // namespace stencil::telemetry
