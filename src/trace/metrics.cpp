#include "trace/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "trace/json.hpp"

namespace bcdyn::trace {

namespace {

std::size_t bucket_index(double value) {
  if (!(value >= 1.0)) return 0;
  const auto idx = 1 + static_cast<std::size_t>(std::floor(std::log2(value)));
  return std::min(idx, HistogramSnapshot::kBuckets - 1);
}

}  // namespace

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  const double target = q * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (buckets[b] == 0) continue;
    const double before = static_cast<double>(seen);
    seen += buckets[b];
    if (static_cast<double>(seen) >= target) {
      const double lo = b == 0 ? 0.0 : std::exp2(static_cast<double>(b) - 1.0);
      const double hi = std::exp2(static_cast<double>(b));  // b=0 -> [0, 1)
      const double f = (target - before) / static_cast<double>(buckets[b]);
      return std::clamp(lo + f * (hi - lo), min, max);
    }
  }
  return max;
}

void MetricsRegistry::add(std::string_view name, std::uint64_t delta) {
  std::lock_guard lock(mu_);
  counters_[std::string(name)] += delta;
}

void MetricsRegistry::set_gauge(std::string_view name, double value) {
  std::lock_guard lock(mu_);
  gauges_[std::string(name)] = value;
}

void MetricsRegistry::observe(std::string_view name, double value) {
  std::lock_guard lock(mu_);
  HistogramSnapshot& h = histograms_[std::string(name)];
  if (h.count == 0) {
    h.min = value;
    h.max = value;
  } else {
    h.min = std::min(h.min, value);
    h.max = std::max(h.max, value);
  }
  ++h.count;
  h.sum += value;
  ++h.buckets[bucket_index(value)];
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  std::lock_guard lock(mu_);
  const auto it = counters_.find(std::string(name));
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::gauge_value(std::string_view name,
                                    double fallback) const {
  std::lock_guard lock(mu_);
  const auto it = gauges_.find(std::string(name));
  return it == gauges_.end() ? fallback : it->second;
}

HistogramSnapshot MetricsRegistry::histogram(std::string_view name) const {
  std::lock_guard lock(mu_);
  const auto it = histograms_.find(std::string(name));
  return it == histograms_.end() ? HistogramSnapshot{} : it->second;
}

std::map<std::string, std::uint64_t> MetricsRegistry::counters() const {
  std::lock_guard lock(mu_);
  return counters_;
}

std::map<std::string, double> MetricsRegistry::gauges() const {
  std::lock_guard lock(mu_);
  return gauges_;
}

std::map<std::string, HistogramSnapshot> MetricsRegistry::histograms() const {
  std::lock_guard lock(mu_);
  return histograms_;
}

void MetricsRegistry::write_json(std::ostream& out) const {
  // Copy under the lock, format outside it.
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  {
    std::lock_guard lock(mu_);
    counters = counters_;
    gauges = gauges_;
    histograms = histograms_;
  }

  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out << (first ? "\n" : ",\n") << "    " << json_quote(name) << ": "
        << value;
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    out << (first ? "\n" : ",\n") << "    " << json_quote(name) << ": "
        << json_number(value);
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    out << (first ? "\n" : ",\n") << "    " << json_quote(name) << ": {"
        << "\"count\": " << h.count << ", \"sum\": " << json_number(h.sum)
        << ", \"min\": " << json_number(h.count ? h.min : 0.0)
        << ", \"max\": " << json_number(h.count ? h.max : 0.0)
        << ", \"mean\": " << json_number(h.mean()) << ", \"buckets\": [";
    // Trim trailing zero buckets to keep the export compact.
    std::size_t last = 0;
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (h.buckets[i] != 0) last = i + 1;
    }
    for (std::size_t i = 0; i < last; ++i) {
      out << (i ? ", " : "") << h.buckets[i];
    }
    out << "]}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
}

}  // namespace bcdyn::trace
