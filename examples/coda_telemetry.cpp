// Fleet telemetry dashboard (DESIGN.md §12): runs a cooperative graph
// search, then renders what the run's telemetry collector gathered — the
// per-node metric shards every client shipped over SimNet as snapshot
// deltas — as the `coda_telemetry` text view: one line per reporting node
// and the fleet hot-path table, followed by the process-local `coda_top`
// profiler view (hottest regions by call count).
//
// Set CODA_METRICS_DUMP=1 to also emit the JSON snapshot (the same data
// the --metrics-json bench flag exports); CODA_PROFILE_DUMP=1 emits the
// folded-stack profile.
#include <cstdio>

#include "src/darr/cooperative.h"
#include "src/data/synthetic.h"
#include "src/ml/decision_tree.h"
#include "src/ml/knn.h"
#include "src/ml/linear.h"
#include "src/ml/scalers.h"
#include "src/obs/obs.h"

using namespace coda;

namespace {

TEGraph search_graph() {
  TEGraph g;
  std::vector<std::unique_ptr<Transformer>> scalers;
  scalers.push_back(std::make_unique<StandardScaler>());
  scalers.push_back(std::make_unique<RobustScaler>());
  scalers.push_back(std::make_unique<NoOp>());
  g.add_feature_scalers(std::move(scalers));
  std::vector<std::unique_ptr<Estimator>> models;
  models.push_back(std::make_unique<LinearRegression>());
  models.push_back(std::make_unique<DecisionTreeRegressor>());
  models.push_back(std::make_unique<KnnRegressor>());
  g.add_regression_models(std::move(models));
  return g;  // 9 candidates
}

}  // namespace

int main() {
  std::printf("=== coda telemetry dashboard ===\n\n");
  obs::reset_all();

  RegressionConfig data_cfg;
  data_cfg.n_samples = 250;
  data_cfg.n_features = 6;
  const Dataset data = make_regression(data_cfg);

  std::printf("running a 4-client cooperative search to collect fleet "
              "telemetry...\n\n");
  const auto report = darr::run_cooperative_search(
      search_graph(), data, KFold(4), Metric::kRmse, {.n_clients = 4});

  const obs::TelemetryCollector& fleet = *report.telemetry;
  const std::vector<std::string> nodes = fleet.nodes();
  std::printf("== coda telemetry ==\nfleet: %zu node(s), %llu report(s) "
              "ingested\n",
              nodes.size(),
              static_cast<unsigned long long>(fleet.reports_ingested()));
  for (const std::string& node : nodes) {
    const obs::MetricsSnapshot snap = fleet.node_snapshot(node);
    std::printf("  %s: counters=%zu gauges=%zu histograms=%zu\n",
                node.c_str(), snap.counters.size(), snap.gauges.size(),
                snap.histograms.size());
  }
  // coda_top: the hot-path view — hottest regions by call count
  // (deterministic for a fixed workload), with self/total time and derived
  // kernel throughput, summed over every client's node-keyed call tree.
  std::printf("%s\n", obs::prof::report().c_str());

  if (report.telemetry_divergence.empty()) {
    std::printf("fleet aggregate == global registry (every shipped family "
                "reconstructed bit-for-bit at the collector)\n");
  } else {
    std::printf("fleet aggregate DIVERGED from the global registry:\n%s\n",
                report.telemetry_divergence.c_str());
  }

  coda::obs::dump_if_env();
  return 0;
}
