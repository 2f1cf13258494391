// Fleet telemetry collector (DESIGN.md §12): the in-memory sink behind
// the "telemetry" SimNet node. Nodes ship MetricsSnapshot *deltas*
// (src/dist/telemetry.h carries them over the simulated network, subject
// to the fault model); the collector folds each delta into a per-node
// accumulated snapshot and answers fleet queries — per-node snapshots
// and the merged fleet aggregate.
//
// Thread safety: every method takes the collector's mutex. Ingest happens
// from client worker threads; queries typically run after a bench/test
// joins its pool, but concurrent queries are safe (they return copies).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/snapshot.h"

namespace coda::obs {

class TelemetryCollector {
 public:
  /// Folds one report into `node`'s accumulated snapshot (see
  /// apply_snapshot_delta for the delta semantics). Increments
  /// `telemetry.reports.ingested`.
  void ingest(const std::string& node, const MetricsSnapshot& delta);

  /// Nodes that have reported at least once, sorted.
  std::vector<std::string> nodes() const;
  /// Reports folded in so far.
  std::uint64_t reports_ingested() const;

  /// Copy of one node's accumulated snapshot (empty if unknown).
  MetricsSnapshot node_snapshot(const std::string& node) const;
  /// Merge of every node's snapshot — the fleet aggregate.
  MetricsSnapshot fleet() const;

  /// "" when the fleet aggregate reproduces `expected` (same keys, equal
  /// integer state bit-for-bit, float state within `epsilon`); otherwise a
  /// human-readable description of the first few divergences. Only keys
  /// present in the fleet aggregate are compared — `expected` may carry
  /// extra (unscoped) families.
  std::string describe_divergence(const MetricsSnapshot& expected,
                                  double epsilon = 1e-9) const;

  /// Drops all accumulated state.
  void clear();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, MetricsSnapshot> per_node_;
  std::uint64_t ingested_ = 0;
};

}  // namespace coda::obs
