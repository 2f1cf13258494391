// Telemetry shipping over the simulated network (DESIGN.md §12): a
// TelemetryReporter periodically diffs its node's MetricScope registry
// against the last *acknowledged* snapshot and sends the sparse delta to
// the collector node as one SimNet message — so telemetry traffic is
// metered, traced, and subject to the PR-3 fault model and retry policy
// like any other protocol traffic.
//
// Loss safety: the acked base only advances when transfer_with_retry
// succeeds. A dropped/partitioned report leaves the base untouched, so
// the next flush re-ships the same increments merged with newer ones —
// aggregates at the collector can lag but never corrupt (counters and
// histogram buckets travel as exact integer increments; see
// src/obs/snapshot.h for the delta semantics).
#pragma once

#include <cstdint>
#include <string>

#include "src/dist/retry.h"
#include "src/dist/sim_net.h"
#include "src/obs/collector.h"
#include "src/obs/snapshot.h"
#include "src/util/retry.h"

namespace coda::dist {

class TelemetryReporter {
 public:
  /// Reports `source` (typically a node's MetricScope registry) from
  /// SimNet node `self` to `collector_node`, folding delivered deltas
  /// into `sink` under the name `report_as`. All pointers must outlive
  /// the reporter.
  TelemetryReporter(SimNet* net, NodeId self, NodeId collector_node,
                    obs::TelemetryCollector* sink,
                    const obs::MetricsRegistry* source, std::string report_as,
                    RetryPolicy policy = {});

  /// Snapshots the source, ships the delta since the acked base, and on
  /// delivery ingests it at the collector and advances the base. Returns
  /// true when the collector is up to date after the call (delivered, or
  /// nothing had changed); false when the report failed and will be
  /// retransmitted by a later flush. Never throws on network failure.
  bool flush();

  const std::string& report_as() const { return report_as_; }
  std::uint64_t reports_sent() const { return sent_; }
  std::uint64_t reports_failed() const { return failed_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  SimNet* net_;
  NodeId self_;
  NodeId collector_node_;
  obs::TelemetryCollector* sink_;
  const obs::MetricsRegistry* source_;
  std::string report_as_;
  RetryPolicy policy_;
  obs::MetricsSnapshot acked_;
  std::uint64_t sent_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace coda::dist
