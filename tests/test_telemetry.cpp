// Fleet telemetry tests (DESIGN.md §12): snapshot deltas and their
// loss-safe wire protocol, per-node MetricScope isolation under
// concurrency, the TelemetryCollector's aggregates, and the end-to-end
// invariant that a cooperative run's collected fleet telemetry reproduces
// the process-wide registry.
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/darr/cooperative.h"
#include "src/data/synthetic.h"
#include "src/dist/telemetry.h"
#include "src/ml/knn.h"
#include "src/ml/linear.h"
#include "src/ml/scalers.h"
#include "src/obs/obs.h"
#include "src/util/thread_pool.h"

namespace coda {
namespace {

// ---------------------------------------------------------------------------
// Histogram::merge

TEST(HistogramMerge, MergeMatchesSingleHistogramFedBothStreams) {
  obs::Histogram a({0.1, 1.0, 10.0});
  obs::Histogram b({0.1, 1.0, 10.0});
  obs::Histogram both({0.1, 1.0, 10.0});
  for (double v : {0.05, 0.5, 0.7, 5.0}) {
    a.observe(v);
    both.observe(v);
  }
  for (double v : {0.2, 2.0, 20.0, 50.0}) {
    b.observe(v);
    both.observe(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_DOUBLE_EQ(a.sum(), both.sum());
  for (std::size_t i = 0; i < a.n_buckets(); ++i) {
    EXPECT_EQ(a.bucket_count(i), both.bucket_count(i)) << "bucket " << i;
  }
  // Quantiles are a pure function of the buckets, so they now agree too.
  for (double q : {0.5, 0.95, 0.99}) {
    EXPECT_DOUBLE_EQ(a.quantile(q), both.quantile(q)) << "q=" << q;
  }
}

TEST(HistogramMerge, MismatchedBoundsThrow) {
  obs::Histogram a({1.0, 2.0});
  obs::Histogram b({1.0, 3.0});
  EXPECT_THROW(a.merge(b), InvalidArgument);
}

// ---------------------------------------------------------------------------
// MetricsSnapshot wire format

obs::MetricsSnapshot sample_snapshot() {
  obs::MetricsSnapshot snap;
  snap.counters["c.one"] = 7;
  snap.counters["c.two"] = 123456789;
  snap.gauges["g.load"] = 0.75;
  obs::HistogramSnapshot h;
  h.bounds = {1.0, 10.0};
  h.buckets = {3, 2, 1};
  h.count = 6;
  h.sum = 42.5;
  snap.histograms["h.lat"] = h;
  return snap;
}

TEST(MetricsSnapshot, SerializeRoundTrips) {
  const obs::MetricsSnapshot snap = sample_snapshot();
  const Bytes wire = snap.serialize();
  EXPECT_EQ(wire.size(), snap.encoded_size());
  const obs::MetricsSnapshot back = obs::MetricsSnapshot::deserialize(wire);
  EXPECT_EQ(back.counters, snap.counters);
  EXPECT_EQ(back.gauges, snap.gauges);
  ASSERT_EQ(back.histograms.size(), 1u);
  const auto& h = back.histograms.at("h.lat");
  EXPECT_EQ(h.bounds, snap.histograms.at("h.lat").bounds);
  EXPECT_EQ(h.buckets, snap.histograms.at("h.lat").buckets);
  EXPECT_EQ(h.count, 6u);
  EXPECT_DOUBLE_EQ(h.sum, 42.5);
}

TEST(MetricsSnapshot, TruncatedBufferThrowsDecodeError) {
  Bytes wire = sample_snapshot().serialize();
  for (std::size_t cut : {wire.size() - 1, wire.size() / 2, std::size_t{3}}) {
    Bytes truncated(wire.begin(), wire.begin() + static_cast<long>(cut));
    EXPECT_THROW(obs::MetricsSnapshot::deserialize(truncated), DecodeError)
        << "cut at " << cut;
  }
}

TEST(MetricsSnapshot, DeltaShipsOnlyChangesAndApplyReconstructs) {
  obs::MetricsSnapshot base = sample_snapshot();
  obs::MetricsSnapshot current = sample_snapshot();
  current.counters["c.one"] = 10;        // +3
  current.counters["c.new"] = 5;         // new counter
  current.gauges["g.load"] = 0.5;        // changed
  current.histograms["h.lat"].buckets = {4, 2, 1};
  current.histograms["h.lat"].count = 7;
  current.histograms["h.lat"].sum = 43.0;

  const obs::MetricsSnapshot delta = obs::snapshot_delta(base, current);
  EXPECT_EQ(delta.counters.at("c.one"), 3u);  // increment, not absolute
  EXPECT_EQ(delta.counters.at("c.new"), 5u);
  EXPECT_EQ(delta.counters.count("c.two"), 0u);  // unchanged: omitted
  EXPECT_DOUBLE_EQ(delta.gauges.at("g.load"), 0.5);

  obs::MetricsSnapshot rebuilt = base;
  obs::apply_snapshot_delta(rebuilt, delta);
  EXPECT_EQ(rebuilt.counters, current.counters);
  EXPECT_EQ(rebuilt.gauges, current.gauges);
  EXPECT_EQ(rebuilt.histograms.at("h.lat").buckets,
            current.histograms.at("h.lat").buckets);
  EXPECT_DOUBLE_EQ(rebuilt.histograms.at("h.lat").sum, 43.0);
}

TEST(MetricsSnapshot, CounterGoingBackwardsReshipsAbsoluteValue) {
  obs::MetricsSnapshot base;
  base.counters["c"] = 100;
  obs::MetricsSnapshot current;
  current.counters["c"] = 4;  // registry was reset between snapshots
  const obs::MetricsSnapshot delta = obs::snapshot_delta(base, current);
  EXPECT_EQ(delta.counters.at("c"), 4u);
}

TEST(MetricsSnapshot, NoChangeMeansEmptyDelta) {
  const obs::MetricsSnapshot snap = sample_snapshot();
  EXPECT_TRUE(obs::snapshot_delta(snap, snap).empty());
}

// ---------------------------------------------------------------------------
// MetricScope isolation

TEST(MetricScope, ShardsIsolatePerNodeUnderThreadPool) {
  obs::reset_all();
  constexpr std::size_t kNodes = 4;
  constexpr std::uint64_t kPerNode = 20000;
  ThreadPool pool(kNodes);
  std::vector<std::future<void>> done;
  for (std::size_t n = 0; n < kNodes; ++n) {
    done.push_back(pool.submit([n] {
      const std::string node = "scope-node" + std::to_string(n);
      const obs::NodeScope scope(node);
      for (std::uint64_t i = 0; i < kPerNode; ++i) {
        obs::count_scoped("test.scope.iso", 1);
      }
    }));
  }
  for (auto& f : done) f.get();

  // Every shard holds exactly its own node's writes...
  for (std::size_t n = 0; n < kNodes; ++n) {
    const std::string node = "scope-node" + std::to_string(n);
    obs::MetricScope* scope = obs::MetricScope::find(node);
    ASSERT_NE(scope, nullptr) << node;
    EXPECT_EQ(scope->counter("test.scope.iso").value(), kPerNode) << node;
  }
  // ...and the process-wide registry the exact sum.
  EXPECT_EQ(obs::counter("test.scope.iso").value(), kNodes * kPerNode);
}

TEST(MetricScope, NodeScopeRestoresPreviousShardOnExit) {
  EXPECT_EQ(obs::MetricScope::current(), nullptr);
  {
    obs::NodeScope outer("scope-outer");
    ASSERT_NE(obs::MetricScope::current(), nullptr);
    EXPECT_EQ(obs::MetricScope::current()->node(), "scope-outer");
    {
      obs::NodeScope inner("scope-inner");
      EXPECT_EQ(obs::MetricScope::current()->node(), "scope-inner");
    }
    EXPECT_EQ(obs::MetricScope::current()->node(), "scope-outer");
  }
  EXPECT_EQ(obs::MetricScope::current(), nullptr);
}

TEST(MetricScope, ResetAllZeroesShardValuesButKeepsRegistrations) {
  auto& shard = obs::MetricScope::for_node("scope-reset");
  shard.counter("test.scope.reset").inc(9);
  obs::Counter* before = &shard.counter("test.scope.reset");
  obs::reset_all();
  EXPECT_EQ(before->value(), 0u);
  EXPECT_EQ(&obs::MetricScope::for_node("scope-reset")
                 .counter("test.scope.reset"),
            before);
}

// ---------------------------------------------------------------------------
// TelemetryCollector

TEST(TelemetryCollector, FleetAggregatesAcrossNodes) {
  obs::TelemetryCollector collector;

  obs::MetricsSnapshot a;
  a.counters["work.done"] = 10;
  obs::MetricsSnapshot b;
  b.counters["work.done"] = 30;
  collector.ingest("alpha", a);
  collector.ingest("beta", b);

  EXPECT_EQ(collector.nodes(), (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_EQ(collector.reports_ingested(), 2u);
  EXPECT_EQ(collector.fleet().counters.at("work.done"), 40u);
  EXPECT_EQ(collector.node_snapshot("alpha").counters.at("work.done"), 10u);
  EXPECT_EQ(collector.node_snapshot("beta").counters.at("work.done"), 30u);
}

TEST(TelemetryCollector, DescribeDivergenceFlagsMismatch) {
  obs::TelemetryCollector collector;
  obs::MetricsSnapshot d;
  d.counters["work.done"] = 10;
  collector.ingest("alpha", d);

  obs::MetricsSnapshot expected;
  expected.counters["work.done"] = 10;
  expected.counters["unscoped.extra"] = 99;  // extra keys are fine
  EXPECT_EQ(collector.describe_divergence(expected), "");

  expected.counters["work.done"] = 11;
  const std::string diff = collector.describe_divergence(expected);
  EXPECT_NE(diff.find("work.done"), std::string::npos);
}

// ---------------------------------------------------------------------------
// TelemetryReporter over SimNet with fault injection

TEST(TelemetryReporter, DeltaSurvivesDropsAndRetransmits) {
  obs::reset_all();
  dist::SimNet net;
  const dist::NodeId source_node = net.add_node("reporter-src");
  const dist::NodeId sink_node = net.add_node("telemetry");

  auto& shard = obs::MetricScope::for_node("reporter-src");
  obs::TelemetryCollector collector;
  RetryPolicy tiny;
  tiny.max_attempts = 2;
  tiny.initial_backoff_seconds = 0.001;
  tiny.deadline_seconds = 0.01;
  dist::TelemetryReporter reporter(&net, source_node, sink_node, &collector,
                                   &shard.registry(), "reporter-src", tiny);

  shard.counter("work.done").inc(5);
  ASSERT_TRUE(reporter.flush());
  EXPECT_EQ(collector.node_snapshot("reporter-src").counters.at("work.done"),
            5u);

  // The link partitions: the report fails, the acked base stays put.
  net.partition(source_node, sink_node, net.now(), 1e9);
  shard.counter("work.done").inc(3);
  EXPECT_FALSE(reporter.flush());
  EXPECT_EQ(reporter.reports_failed(), 1u);
  EXPECT_EQ(collector.node_snapshot("reporter-src").counters.at("work.done"),
            5u);

  // More work during the outage, then the link heals: one flush catches
  // the collector up exactly (lost increments merged with newer ones).
  shard.counter("work.done").inc(2);
  net.heal_partitions();
  EXPECT_TRUE(reporter.flush());
  EXPECT_EQ(collector.node_snapshot("reporter-src").counters.at("work.done"),
            10u);

  // Nothing new: flush is a cheap no-op that sends no message.
  const std::uint64_t sent_before = reporter.reports_sent();
  EXPECT_TRUE(reporter.flush());
  EXPECT_EQ(reporter.reports_sent(), sent_before);
}

TEST(TelemetryReporter, ReconstructsHistogramsExactly) {
  obs::reset_all();
  dist::SimNet net;
  const dist::NodeId source_node = net.add_node("hist-src");
  const dist::NodeId sink_node = net.add_node("telemetry");
  auto& shard = obs::MetricScope::for_node("hist-src");
  obs::TelemetryCollector collector;
  dist::TelemetryReporter reporter(&net, source_node, sink_node, &collector,
                                   &shard.registry(), "hist-src");

  auto& h = shard.histogram("lat.seconds", {0.01, 0.1, 1.0});
  h.observe(0.005);
  h.observe(0.05);
  ASSERT_TRUE(reporter.flush());
  h.observe(0.5);
  h.observe(5.0);
  ASSERT_TRUE(reporter.flush());

  const auto snap = collector.node_snapshot("hist-src");
  const auto& got = snap.histograms.at("lat.seconds");
  EXPECT_EQ(got.count, h.count());
  EXPECT_DOUBLE_EQ(got.sum, h.sum());
  for (std::size_t i = 0; i < h.n_buckets(); ++i) {
    EXPECT_EQ(got.buckets[i], h.bucket_count(i)) << "bucket " << i;
  }
  EXPECT_DOUBLE_EQ(got.quantile(0.5), h.quantile(0.5));
}

// ---------------------------------------------------------------------------
// End-to-end: cooperative runs

Dataset mini_dataset() {
  RegressionConfig cfg;
  cfg.n_samples = 80;
  cfg.n_features = 4;
  cfg.n_informative = 3;
  return make_regression(cfg);
}

TEGraph mini_graph() {
  TEGraph g;
  std::vector<std::unique_ptr<Transformer>> scalers;
  scalers.push_back(std::make_unique<StandardScaler>());
  scalers.push_back(std::make_unique<NoOp>());
  g.add_feature_scalers(std::move(scalers));
  std::vector<std::unique_ptr<Estimator>> models;
  models.push_back(std::make_unique<LinearRegression>());
  models.push_back(std::make_unique<KnnRegressor>());
  g.add_regression_models(std::move(models));
  return g;  // 4 candidates
}

TEST(FleetTelemetry, CooperativeRunFleetMatchesGlobalRegistry) {
  obs::reset_all();
  const auto report = darr::run_cooperative_search(
      mini_graph(), mini_dataset(), KFold(3), Metric::kRmse,
      {.n_clients = 2});
  ASSERT_NE(report.telemetry, nullptr);
  // Fault-free run: the collector's aggregate must reproduce the global
  // registry bit-for-bit on every fleet-shipped family.
  EXPECT_EQ(report.telemetry_divergence, "");
  // Every client reported, plus the repository.
  const auto nodes = report.telemetry->nodes();
  EXPECT_EQ(nodes.size(), 3u);
  EXPECT_NE(obs::counter("telemetry.reports.sent").value(), 0u);
  EXPECT_EQ(obs::counter("telemetry.reports.ingested").value(),
            report.telemetry->reports_ingested());
  // The profile lives only in the profiler's node-keyed call trees: no
  // registry, global or shard, mirrors it as prof.<region>.* counters.
  const auto mirrored = [](const std::string& name) {
    return name.rfind("prof.", 0) == 0 && name != "prof.scopes";
  };
  for (const auto& [name, value] :
       obs::MetricsRegistry::instance().counter_values()) {
    EXPECT_FALSE(mirrored(name)) << "global counter " << name;
  }
  for (const auto& node : obs::MetricScope::nodes()) {
    const auto* scope = obs::MetricScope::find(node);
    for (const auto& [name, value] : scope->registry().counter_values()) {
      EXPECT_FALSE(mirrored(name)) << node << " counter " << name;
    }
  }
}

// Integer-valued metric state of the process: global counters plus every
// shard's counters. Timing histograms are excluded by construction —
// their values are wall-clock dependent even for identical runs.
std::map<std::string, std::uint64_t> integer_metric_state() {
  std::map<std::string, std::uint64_t> state;
  for (const auto& [name, value] :
       obs::MetricsRegistry::instance().counter_values()) {
    state["global/" + name] = value;
  }
  for (const auto& node : obs::MetricScope::nodes()) {
    const auto* scope = obs::MetricScope::find(node);
    for (const auto& [name, value] : scope->registry().counter_values()) {
      state[node + "/" + name] = value;
    }
  }
  return state;
}

TEST(FleetTelemetry, BackToBackRunsProduceIdenticalMetricsOutput) {
  const TEGraph graph = mini_graph();
  const Dataset data = mini_dataset();

  obs::reset_all();
  (void)darr::run_cooperative_search(graph, data, KFold(3), Metric::kRmse,
                                     {.n_clients = 1});
  const auto first = integer_metric_state();

  obs::reset_all();
  (void)darr::run_cooperative_search(graph, data, KFold(3), Metric::kRmse,
                                     {.n_clients = 1});
  const auto second = integer_metric_state();

  // Identical keys AND identical values: registry names carry no
  // per-instance segment, so the second run registered the same names, and
  // a single-client run has no scheduling nondeterminism in its counters.
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace coda
