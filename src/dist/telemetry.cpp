#include "src/dist/telemetry.h"

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/error.h"

namespace coda::dist {

TelemetryReporter::TelemetryReporter(SimNet* net, NodeId self,
                                     NodeId collector_node,
                                     obs::TelemetryCollector* sink,
                                     const obs::MetricsRegistry* source,
                                     std::string report_as,
                                     RetryPolicy policy)
    : net_(net),
      self_(self),
      collector_node_(collector_node),
      sink_(sink),
      source_(source),
      report_as_(std::move(report_as)),
      policy_(policy) {
  require(net_ != nullptr && sink_ != nullptr && source_ != nullptr,
          "TelemetryReporter: net, sink and source must be non-null");
  require(!report_as_.empty(),
          "TelemetryReporter: report_as must be non-empty");
  policy_.validate();
  // Pre-register the telemetry families so exports and the golden
  // metrics-keys contract see them even on runs where every flush is a
  // no-op.
  obs::counter("telemetry.reports.sent");
  obs::counter("telemetry.reports.failed");
  obs::counter("telemetry.bytes.sent");
}

bool TelemetryReporter::flush() {
  const obs::MetricsSnapshot current = obs::snapshot_registry(*source_);
  const obs::MetricsSnapshot delta = obs::snapshot_delta(acked_, current);
  if (delta.empty()) return true;

  const Bytes wire = delta.serialize();
  try {
    transfer_with_retry(*net_, self_, collector_node_, wire.size(), policy_,
                        "telemetry.report");
  } catch (const NetworkError&) {
    // Base stays put: the next flush re-ships these increments merged
    // with whatever accumulated since.
    ++failed_;
    static auto& failed_metric = obs::counter("telemetry.reports.failed");
    failed_metric.inc();
    return false;
  }

  // Delivered: the collector decodes the wire bytes (round-tripping the
  // serializer keeps the simulated path honest) and the base advances.
  sink_->ingest(report_as_, obs::MetricsSnapshot::deserialize(wire));
  acked_ = current;
  ++sent_;
  bytes_sent_ += wire.size();
  static auto& sent_metric = obs::counter("telemetry.reports.sent");
  static auto& bytes_metric = obs::counter("telemetry.bytes.sent");
  sent_metric.inc();
  bytes_metric.inc(wire.size());
  return true;
}

}  // namespace coda::dist
