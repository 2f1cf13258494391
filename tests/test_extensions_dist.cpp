// Tests for the distributed extensions: geographic replication with
// failover (Section III high-availability claim) and the AI-web-service
// node (Fig 1).
#include <gtest/gtest.h>

#include "src/core/metrics.h"
#include "src/core/pipeline.h"
#include "src/data/synthetic.h"
#include "src/dist/replication.h"
#include "src/dist/remote_service.h"
#include "src/ml/linear.h"
#include "src/obs/metrics.h"
#include "src/util/random.h"

namespace coda::dist {
namespace {

Bytes pattern(std::size_t n, std::uint8_t seed) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>((i * 31 + seed) & 0xFF);
  }
  return b;
}

struct ReplicationFixture : ::testing::Test {
  SimNet net;
  NodeId us = net.add_node("us_east");
  NodeId eu = net.add_node("eu_west");
  NodeId ap = net.add_node("ap_south");
  NodeId client = net.add_node("client");
  ReplicatedStore group{&net, {us, eu, ap}};
};

TEST_F(ReplicationFixture, PutReplicatesToAllSites) {
  group.put("o", pattern(1024, 1));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(group.site(i).version("o"), 1u);
    EXPECT_EQ(group.site(i).value("o"), pattern(1024, 1));
  }
  // Replication shipped bytes from the primary to both replicas.
  EXPECT_GE(group.sync_stats().bytes_shipped, 2 * 1024u);
}

TEST_F(ReplicationFixture, SmallUpdatesReplicateByDelta) {
  Bytes value = pattern(32768, 1);
  group.put("o", value);
  const auto before = group.sync_stats();
  value[100] ^= 0xFF;
  group.put("o", value);
  const auto after = group.sync_stats();
  EXPECT_EQ(after.delta_syncs - before.delta_syncs, 2u);
  // Each delta sync far smaller than the full value.
  EXPECT_LT(after.bytes_shipped - before.bytes_shipped, 32768u / 2);
}

TEST_F(ReplicationFixture, FailoverServesFromReplica) {
  group.put("o", pattern(2048, 1));
  EXPECT_EQ(group.serving_site("o"), 0u);
  net.crash_node(us, net.now(), 1e9);  // primary site disaster
  EXPECT_EQ(group.serving_site("o"), 1u);
  const auto result = group.fetch("o", client, 0);
  EXPECT_EQ(result.full_value, pattern(2048, 1));

  net.crash_node(eu, net.now(), 1e9);
  EXPECT_EQ(group.serving_site("o"), 2u);
  net.crash_node(ap, net.now(), 1e9);
  EXPECT_THROW(group.fetch("o", client, 0), NotFound);
}

TEST_F(ReplicationFixture, FailedSiteMissesUpdatesThenResyncs) {
  group.put("o", pattern(1024, 1));
  net.crash_node(ap, net.now(), net.now() + 10.0);
  group.put("o", pattern(1024, 2));
  group.put("o", pattern(1024, 3));
  EXPECT_EQ(group.site(2).version("o"), 1u);  // stale while down
  EXPECT_THROW(group.resync(2), InvalidArgument);  // still inside its window
  net.advance(10.0);  // the crash window ends
  group.resync(2);
  EXPECT_EQ(group.site(2).version("o"), group.site(0).version("o"));
  EXPECT_EQ(group.site(2).value("o"), pattern(1024, 3));
}

TEST_F(ReplicationFixture, CrashedReplicaCatchesUpOnTheNextPut) {
  auto& failed = obs::counter("replication.failed_syncs");
  group.put("o", pattern(1024, 1));
  const std::uint64_t failed_before = failed.value();

  net.crash_node(ap, net.now(), net.now() + 5.0);
  group.put("o", pattern(1024, 2));  // ap is down: its sync is skipped
  EXPECT_EQ(failed.value() - failed_before, 1u);
  EXPECT_EQ(group.sync_stats().failed_syncs, 1u);
  EXPECT_EQ(group.serving_site("o"), 0u);  // a replica's crash moves nothing
  EXPECT_EQ(group.site(2).version("o"), 1u);
  EXPECT_EQ(group.site(2).value("o"), pattern(1024, 1));

  net.advance(5.0);  // the window ends; the next put() catches ap up
  group.put("o", pattern(1024, 3));
  EXPECT_EQ(failed.value() - failed_before, 1u);
  EXPECT_EQ(group.site(2).version("o"), group.site(0).version("o"));
  EXPECT_EQ(group.site(2).value("o"), pattern(1024, 3));
}

TEST_F(ReplicationFixture, ClientsKeepReadingAcrossFailover) {
  // The §III availability claim end-to-end: a reader sees every version
  // even though the primary dies mid-stream.
  Bytes value = pattern(4096, 1);
  group.put("o", value);
  auto r1 = group.fetch("o", client, 0);
  EXPECT_EQ(r1.version, 1u);
  net.crash_node(us, net.now(), 1e9);
  value[0] ^= 1;
  group.put("o", value);  // written through the promoted replica
  auto r2 = group.fetch("o", client, r1.version);
  EXPECT_EQ(r2.version, 2u);
}

TEST_F(ReplicationFixture, RecoveredPrimaryNeverServesAnOlderVersion) {
  group.put("o", pattern(1024, 1));
  net.crash_node(us, net.now(), net.now() + 5.0);
  group.put("o", pattern(1024, 2));  // through the promoted replica
  const auto seen = group.fetch("o", client, 0);
  EXPECT_EQ(seen.version, 2u);
  EXPECT_EQ(group.site(0).version("o"), 1u);  // us missed the write

  net.advance(5.0);  // us is back, still holding version 1
  EXPECT_EQ(group.serving_site("o"), 1u);  // the freshest site keeps serving
  const auto after = group.fetch("o", client, 0);
  EXPECT_GE(after.version, seen.version);
  EXPECT_EQ(after.full_value, pattern(1024, 2));

  group.put("o", pattern(1024, 3));  // catches us up
  for (std::size_t i = 0; i < group.n_sites(); ++i) {
    EXPECT_EQ(group.site(i).version("o"), 3u);
    EXPECT_EQ(group.site(i).value("o"), pattern(1024, 3));
  }
  EXPECT_EQ(group.serving_site("o"), 0u);  // current again: the primary
}

TEST_F(ReplicationFixture, RecoveredPrimaryCatchesUpOnResync) {
  group.put("o", pattern(1024, 1));
  net.crash_node(us, net.now(), net.now() + 5.0);
  group.put("o", pattern(1024, 2));
  group.put("o", pattern(1024, 3));
  net.advance(5.0);
  group.resync(0);
  EXPECT_EQ(group.site(0).version("o"), 3u);
  EXPECT_EQ(group.site(0).value("o"), pattern(1024, 3));
  EXPECT_EQ(group.serving_site("o"), 0u);
  // The primary never held version 2, so a reader holding it from a
  // replica gets the full value rather than a delta from a wrong base.
  const auto r = group.fetch("o", client, 2);
  EXPECT_EQ(r.version, 3u);
  EXPECT_FALSE(r.is_delta);
  EXPECT_EQ(r.full_value, pattern(1024, 3));
}

TEST(ReplicatedStore, NeedsAtLeastTwoSites) {
  SimNet net;
  const NodeId only = net.add_node("only");
  EXPECT_THROW(ReplicatedStore(&net, {only}), InvalidArgument);
}

// --- AI web service (Fig 1) -------------------------------------------------

TEST(RemoteModelService, FitPredictOverTheWire) {
  SimNet net;
  const NodeId service_node = net.add_node("watson");
  const NodeId client_node = net.add_node("client");
  RemoteModelService service(&net, service_node,
                             std::make_unique<LinearRegression>());

  RegressionConfig cfg;
  cfg.n_samples = 100;
  cfg.n_features = 3;
  cfg.n_informative = 3;
  cfg.nonlinear = false;
  cfg.noise_stddev = 0.01;
  const auto d = make_regression(cfg);

  service.fit(client_node, d.X, d.y);
  const auto predictions = service.predict(client_node, d.X);
  EXPECT_LT(rmse(d.y, predictions), 0.1);

  // Every call crossed the simulated network with the data's weight.
  const auto stats = service.stats();
  EXPECT_EQ(stats.fit_calls, 1u);
  EXPECT_EQ(stats.predict_calls, 1u);
  EXPECT_GT(stats.bytes_in, d.X.size() * sizeof(double));
  EXPECT_GT(stats.bytes_out, d.y.size() * sizeof(double));
  EXPECT_GT(net.link(client_node, service_node).bytes,
            d.X.size() * sizeof(double));
}

TEST(RemoteEstimator, ParticipatesInAGraphTerminalStage) {
  SimNet net;
  const NodeId service_node = net.add_node("watson");
  const NodeId client_node = net.add_node("client");
  RemoteModelService service(&net, service_node,
                             std::make_unique<LinearRegression>());

  RegressionConfig cfg;
  cfg.n_samples = 80;
  cfg.n_features = 3;
  cfg.nonlinear = false;
  cfg.n_informative = 3;
  const auto d = make_regression(cfg);

  Pipeline p;
  p.set_estimator(
      std::make_unique<RemoteEstimator>(&service, client_node));
  p.fit(d.X, d.y);
  const auto predictions = p.predict(d.X);
  EXPECT_LT(rmse(d.y, predictions), 1.0);
  EXPECT_GE(service.stats().fit_calls, 1u);
}

TEST(RemoteEstimator, CloneMustRefitBeforePredicting) {
  SimNet net;
  const NodeId service_node = net.add_node("svc");
  const NodeId client_node = net.add_node("client");
  RemoteModelService service(&net, service_node,
                             std::make_unique<LinearRegression>());
  RemoteEstimator remote(&service, client_node);
  const auto clone = remote.clone_estimator();
  EXPECT_THROW(clone->predict(Matrix(1, 1)), StateError);
}

}  // namespace
}  // namespace coda::dist
