// Seeded input generators for the four workloads.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <thread>

#include "perfbench/src/workloads.h"
#include "src/data/synthetic.h"
#include "src/ml/decision_tree.h"
#include "src/ml/knn.h"
#include "src/ml/linear.h"
#include "src/ml/scalers.h"
#include "src/templates/anomaly.h"
#include "src/templates/cohort.h"
#include "src/templates/failure_prediction.h"
#include "src/templates/root_cause.h"
#include "src/util/random.h"

namespace perfbench {

using namespace coda;

std::size_t nproc() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

TimeSeries fig11_series(std::uint64_t seed) {
  // The generator's golden structure (trend, seasonality, regime shift)
  // with a seeded jitter of 1/20 of its noise on top: which paths survive
  // the halving race decides how many neural fits an op runs, so a fully
  // reseeded series would change the work per op from seed to seed.
  IndustrialSeriesConfig cfg;
  cfg.n_variables = 2;
  cfg.length = 260;
  cfg.seasonal_amplitude = 2.0;
  cfg.noise_stddev = 0.2;
  TimeSeries series = make_industrial_series(cfg);
  Rng rng(derive_seed(seed, "fig11.series"));
  for (double& v : series.values().data()) v += rng.normal(0.0, 0.01);
  return series;
}

TEGraph fig3_graph() {
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
  return g;
}

std::vector<TemplateCase> template_cases(std::uint64_t seed) {
  std::vector<TemplateCase> cases;
  {
    RegressionConfig cfg;
    cfg.n_samples = 600;
    cfg.seed = derive_seed(seed, "template.fig3_tabular");
    cases.push_back({"fig3_tabular", fig3_graph(), make_regression(cfg),
                     Metric::kRmse});
  }
  {
    FailureWorkloadConfig cfg;
    cfg.n_samples = 1200;
    cfg.seed = derive_seed(seed, "template.failure_prediction");
    cases.push_back({"failure_prediction",
                     templates::FailurePredictionAnalysis::search_graph(),
                     make_failure_workload(cfg), Metric::kF1});
  }
  {
    RegressionConfig cfg;
    cfg.n_samples = 800;
    cfg.seed = derive_seed(seed, "template.root_cause");
    cases.push_back({"root_cause",
                     templates::RootCauseAnalysis::search_graph(),
                     make_regression(cfg), Metric::kRmse});
  }
  {
    AnomalyWorkloadConfig cfg;
    cfg.n_samples = 1200;
    cfg.seed = derive_seed(seed, "template.anomaly");
    cases.push_back({"anomaly", templates::AnomalyAnalysis::search_graph(),
                     make_anomaly_workload(cfg), Metric::kF1});
  }
  {
    CohortWorkloadConfig cfg;
    cfg.n_assets = 240;
    cfg.seed = derive_seed(seed, "template.cohort");
    cases.push_back({"cohort", templates::CohortAnalysis::search_graph(),
                     templates::CohortAnalysis::membership_dataset(
                         make_cohort_workload(cfg), 0),
                     Metric::kAccuracy});
  }
  return cases;
}

Dataset fleet_rows(std::uint64_t seed) {
  RegressionConfig cfg;
  cfg.n_samples = 120;
  cfg.n_features = 5;
  cfg.n_informative = 4;
  cfg.seed = derive_seed(seed, "fleet.rows");
  return make_regression(cfg);
}

// ------------------------------------------------------------ SensorSource

SensorSource::SensorSource(std::uint64_t seed) : seed_(seed) {
  assets_.resize(kAssets);
  for (std::size_t a = 0; a < kAssets; ++a) {
    IndustrialSeriesConfig cfg;
    cfg.n_variables = kVariables;
    cfg.length = kSteps;
    cfg.seasonal_amplitude = 2.0;
    cfg.noise_stddev = 0.2;
    cfg.seed = derive_seed(seed, "sensor.series", a);
    assets_[a].values = make_industrial_series(cfg).values();
    assets_[a].rng_state = derive_seed(seed, "sensor.updates", a);
    assets_[a].step = kSteps;
  }
}

std::string SensorSource::key(std::size_t asset) const {
  return "asset" + std::to_string(asset) + "/series";
}

Bytes SensorSource::encode(std::size_t asset) const {
  const Matrix& m = assets_.at(asset).values;
  ByteWriter w;
  w.write_u64(m.rows());
  w.write_u64(m.cols());
  w.write_doubles(m.data());
  return w.take();
}

TimeSeries SensorSource::decode(const Bytes& bytes) {
  ByteReader r(bytes);
  const auto rows = static_cast<std::size_t>(r.read_u64());
  const auto cols = static_cast<std::size_t>(r.read_u64());
  std::vector<double> data = r.read_doubles();
  require(data.size() == rows * cols, "SensorSource::decode: bad shape");
  return TimeSeries(Matrix(rows, cols, std::move(data)));
}

double SensorSource::draw(Asset& asset) {
  std::uint64_t z = (asset.rng_state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

void SensorSource::update(std::size_t asset) {
  Asset& a = assets_.at(asset);
  std::vector<double>& data = a.values.data();
  const auto appended = 1 + static_cast<std::size_t>(draw(a) * 8.0);
  const auto revised = static_cast<std::size_t>(draw(a) * 5.0);
  // Revise recent rows (late-arriving corrections), then slide the window:
  // drop the oldest rows and append as many new ones.
  for (std::size_t r = 0; r < revised; ++r) {
    const std::size_t row = kSteps - 1 - r;
    for (std::size_t j = 0; j < kVariables; ++j) {
      data[row * kVariables + j] += 0.1 * (draw(a) - 0.5);
    }
  }
  std::vector<double> last(data.end() - kVariables, data.end());
  data.erase(data.begin(),
             data.begin() + static_cast<std::ptrdiff_t>(appended * kVariables));
  for (std::size_t r = 0; r < appended; ++r) {
    ++a.step;
    const double phase =
        2.0 * M_PI * static_cast<double>(a.step % 24) / 24.0;
    for (std::size_t j = 0; j < kVariables; ++j) {
      const double target = 2.0 * std::sin(phase + static_cast<double>(j));
      last[j] = 0.7 * last[j] + 0.3 * target + 0.4 * (draw(a) - 0.5);
      data.push_back(last[j]);
    }
  }
}

std::size_t SensorSource::asset_of(std::size_t index,
                                   std::size_t block) const {
  const std::size_t blocks = index / block;
  const std::size_t cycle = blocks / kAssets;
  std::vector<std::size_t> order(kAssets);
  std::iota(order.begin(), order.end(), 0);
  std::uint64_t state = derive_seed(seed_, "sensor.order", cycle);
  for (std::size_t i = kAssets - 1; i > 0; --i) {
    state = derive_seed(state, "shuffle", i);
    std::swap(order[i], order[state % (i + 1)]);
  }
  return order[blocks % kAssets];
}

}  // namespace perfbench
