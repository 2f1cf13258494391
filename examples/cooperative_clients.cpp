// Cooperative analytics across distributed clients (Fig 1 + Fig 2).
//
// Part 1 — data tier: a home data store serves a versioned dataset object
// to clients over a simulated WAN; updates propagate by delta encoding and
// lease-based push; an UpdateMonitor triggers recomputation when enough
// change accumulates (Section III).
//
// Part 2 — cooperative search: four clients share one DARR and search the
// same Transformer-Estimator Graph together, splitting the work via claims
// and reading each other's results.
#include <cstdio>

#include "src/darr/cooperative.h"
#include "src/data/synthetic.h"
#include "src/dist/client_cache.h"
#include "src/dist/update_monitor.h"
#include "src/ml/decision_tree.h"
#include "src/ml/knn.h"
#include "src/ml/linear.h"
#include "src/ml/random_forest.h"
#include "src/ml/scalers.h"
#include "src/obs/obs.h"
#include "src/util/string_util.h"

using namespace coda;
using namespace coda::dist;

namespace {

Bytes dataset_blob(std::size_t n, std::uint8_t seed) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>((i * 131 + seed) & 0xFF);
  }
  return b;
}

void data_tier_demo() {
  std::printf("--- Part 1: versioned data tier with delta encoding ---\n");
  SimNet net;
  const NodeId store_node = net.add_node("home_store");
  const NodeId client_node = net.add_node("client_eu");
  HomeDataStore store(&net, store_node);
  ClientCache client(&net, client_node, &store);
  store.set_push_handler(
      [&client](NodeId, const PushMessage& msg) { client.on_push(msg); });

  // Recompute analytics once 3 updates have accumulated.
  std::size_t recomputes = 0;
  UpdateMonitor monitor(std::make_unique<CountThresholdPolicy>(3),
                        [&recomputes](const std::string& key) {
                          ++recomputes;
                          std::printf("  [monitor] recomputing analytics "
                                      "for '%s'\n",
                                      key.c_str());
                        });

  Bytes value = dataset_blob(64 * 1024, 1);
  store.put("sensor_archive", value);
  client.get("sensor_archive");
  std::printf("  initial fetch: %s over the wire\n",
              format_bytes(client.stats().bytes_received).c_str());

  // Subscribe with a delta-mode lease, then stream small updates.
  client.subscribe("sensor_archive", /*duration=*/3600.0, PushMode::kDelta);
  for (int update = 0; update < 6; ++update) {
    Bytes previous = value;
    for (int i = 0; i < 200; ++i) {  // ~0.3% of the object changes
      value[static_cast<std::size_t>(update * 300 + i)] ^= 0x5A;
    }
    store.put("sensor_archive", value);
    monitor.on_update("sensor_archive", &previous, value,
                      store.version("sensor_archive"), 200);
  }
  const auto stats = client.stats();
  std::printf("  after 6 updates: client at version %llu, staleness %llu\n",
              static_cast<unsigned long long>(
                  client.version("sensor_archive")),
              static_cast<unsigned long long>(
                  client.staleness("sensor_archive")));
  std::printf("  pushes: %zu full + %zu delta; bytes saved by deltas: %s\n",
              stats.pushes_full, stats.pushes_delta,
              format_bytes(stats.bytes_saved_by_delta).c_str());
  std::printf("  recomputations triggered: %zu (count-threshold policy)\n\n",
              recomputes);
}

void cooperative_search_demo() {
  std::printf("--- Part 2: cooperative graph search through the DARR ---\n");
  RegressionConfig data_cfg;
  data_cfg.n_samples = 300;
  data_cfg.n_features = 8;
  const Dataset data = make_regression(data_cfg);

  TEGraph graph;
  {
    std::vector<std::unique_ptr<Transformer>> scalers;
    scalers.push_back(std::make_unique<StandardScaler>());
    scalers.push_back(std::make_unique<RobustScaler>());
    scalers.push_back(std::make_unique<NoOp>());
    graph.add_feature_scalers(std::move(scalers));
    std::vector<std::unique_ptr<Estimator>> models;
    models.push_back(std::make_unique<LinearRegression>());
    models.push_back(std::make_unique<DecisionTreeRegressor>());
    models.push_back(std::make_unique<RandomForestRegressor>());
    models.push_back(std::make_unique<KnnRegressor>());
    graph.add_regression_models(std::move(models));
  }

  const auto report = darr::run_cooperative_search(
      graph, data, KFold(5), Metric::kRmse, {.n_clients = 4});

  std::printf("  candidates: %zu, clients: %zu\n", report.total_candidates,
              report.clients.size());
  std::printf("  %-10s %18s %18s\n", "client", "evaluated locally",
              "read from DARR");
  for (const auto& client : report.clients) {
    std::printf("  %-10s %18zu %18zu\n", client.name.c_str(),
                client.evaluated_locally, client.served_from_cache);
  }
  std::printf("  total local evaluations: %zu (redundant: %zu)\n",
              report.total_local_evaluations, report.redundant_evaluations);
  std::printf("  repository: %zu stores, %zu claims denied (work another "
              "client skipped)\n",
              report.repository_counters.stores,
              report.repository_counters.claims_denied);
  std::printf("  everyone's best pipeline: %s (RMSE %.4f)\n",
              report.clients[0].report.best().spec.c_str(),
              report.clients[0].report.best().mean_score);
}

}  // namespace

int main() {
  std::printf("=== coda cooperative clients (Fig 1 + Fig 2) ===\n\n");
  data_tier_demo();
  cooperative_search_demo();
  coda::obs::dump_if_env();
  return 0;
}
