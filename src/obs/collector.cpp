#include "src/obs/collector.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/obs/json.h"
#include "src/util/error.h"

namespace coda::obs {

void TelemetryCollector::ingest(const std::string& node,
                                const MetricsSnapshot& delta) {
  require(!node.empty(), "TelemetryCollector: node name must be non-empty");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    apply_snapshot_delta(per_node_[node], delta);
    ++ingested_;
  }
  static auto& ingested = counter("telemetry.reports.ingested");
  ingested.inc();
}

std::vector<std::string> TelemetryCollector::nodes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(per_node_.size());
  for (const auto& [name, snap] : per_node_) out.push_back(name);
  return out;  // std::map iteration: already sorted
}

std::uint64_t TelemetryCollector::reports_ingested() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ingested_;
}

MetricsSnapshot TelemetryCollector::node_snapshot(
    const std::string& node) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = per_node_.find(node);
  return it == per_node_.end() ? MetricsSnapshot{} : it->second;
}

MetricsSnapshot TelemetryCollector::fleet() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot out;
  for (const auto& [name, snap] : per_node_) out.merge_from(snap);
  return out;
}

std::string TelemetryCollector::describe_divergence(
    const MetricsSnapshot& expected, double epsilon) const {
  const MetricsSnapshot fleet_snapshot = fleet();
  std::ostringstream out;
  std::size_t mismatches = 0;
  constexpr std::size_t kMaxReported = 8;
  const auto report = [&](const std::string& line) {
    ++mismatches;
    if (mismatches <= kMaxReported) out << line << '\n';
  };

  for (const auto& [name, value] : fleet_snapshot.counters) {
    const auto it = expected.counters.find(name);
    if (it == expected.counters.end()) {
      report("counter " + name + ": missing from expected");
    } else if (it->second != value) {
      report("counter " + name + ": fleet=" + std::to_string(value) +
             " expected=" + std::to_string(it->second));
    }
  }
  for (const auto& [name, value] : fleet_snapshot.gauges) {
    const auto it = expected.gauges.find(name);
    if (it == expected.gauges.end()) {
      report("gauge " + name + ": missing from expected");
    } else if (std::abs(it->second - value) >
               epsilon * std::max(1.0, std::abs(it->second))) {
      report("gauge " + name + ": fleet=" + detail::json_number(value) +
             " expected=" + detail::json_number(it->second));
    }
  }
  for (const auto& [name, h] : fleet_snapshot.histograms) {
    const auto it = expected.histograms.find(name);
    if (it == expected.histograms.end()) {
      report("histogram " + name + ": missing from expected");
      continue;
    }
    const HistogramSnapshot& e = it->second;
    if (e.bounds != h.bounds) {
      report("histogram " + name + ": bounds differ");
      continue;
    }
    if (e.count != h.count || e.buckets != h.buckets) {
      report("histogram " + name + ": fleet count=" + std::to_string(h.count) +
             " expected count=" + std::to_string(e.count) +
             " (or buckets differ)");
      continue;
    }
    if (std::abs(e.sum - h.sum) > epsilon * std::max(1.0, std::abs(e.sum))) {
      report("histogram " + name + ": fleet sum=" + detail::json_number(h.sum) +
             " expected sum=" + detail::json_number(e.sum));
    }
  }

  if (mismatches > kMaxReported) {
    out << "... and " << (mismatches - kMaxReported) << " more\n";
  }
  return out.str();
}

void TelemetryCollector::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  per_node_.clear();
  ingested_ = 0;
}

}  // namespace coda::obs
