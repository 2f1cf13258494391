// Fleet telemetry data model (DESIGN.md §12): value snapshots of a
// metrics registry (or one node shard) that can be diffed, shipped over
// the simulated network as compact deltas, and re-merged into fleet
// aggregates by the TelemetryCollector.
//
// Delta semantics are chosen so a collector reconstructs the source shard
// exactly even when individual reports are lost and retransmitted:
// counters and histogram buckets travel as monotone integer increments
// (addition is exact), while gauges and histogram sums travel as absolute
// values (replace-on-apply — re-adding a float delta would drift).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/serialization.h"

namespace coda::obs {

/// Exported state of one histogram: bounds + buckets (one +inf overflow
/// slot past bounds), total count, and sum of observed values.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  double sum = 0.0;

  double quantile(double q) const {
    return quantile_from_buckets(bounds, buckets, q);
  }
};

/// Point-in-time values of a metrics registry. Doubles as the wire form
/// of a telemetry report: a delta between two snapshots is itself a
/// (sparse) MetricsSnapshot.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Adds `other` into this snapshot: counters and histogram buckets sum,
  /// gauges sum (fleet aggregates treat gauges as additive), histogram
  /// sums add. Throws InvalidArgument on mismatched histogram bounds.
  void merge_from(const MetricsSnapshot& other);

  Bytes serialize() const;
  /// Throws DecodeError on a truncated or corrupt buffer.
  static MetricsSnapshot deserialize(const Bytes& buffer);
  /// Bytes this snapshot occupies on the (simulated) wire.
  std::size_t encoded_size() const { return serialize().size(); }
};

/// Captures every current value of `registry`.
MetricsSnapshot snapshot_registry(const MetricsRegistry& registry);

/// The sparse delta advancing `base` to `current`: counters/histograms
/// that moved carry integer increments; changed gauges and histogram sums
/// carry absolute values. A counter that went *backwards* (the registry
/// was reset between snapshots) is re-shipped at its absolute value, as
/// if freshly registered. Unchanged entries are omitted.
MetricsSnapshot snapshot_delta(const MetricsSnapshot& base,
                               const MetricsSnapshot& current);

/// Applies a delta produced by snapshot_delta() onto `base` in place:
/// counters/buckets add, gauges and histogram sums replace.
void apply_snapshot_delta(MetricsSnapshot& base,
                          const MetricsSnapshot& delta);

}  // namespace coda::obs
