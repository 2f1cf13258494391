// The four workloads. Each op runs the program's public entry points and
// checks their output; the Span/Lane/TimingCache hooks record the layer
// boundaries when the run is traced.
#include "perfbench/src/workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>

#include "perfbench/src/trace.h"
#include "src/darr/cooperative.h"
#include "src/dist/client_cache.h"
#include "src/dist/home_store.h"
#include "src/dist/sim_net.h"
#include "src/dist/update_monitor.h"
#include "src/ml/scalers.h"
#include "src/ts/forecast_graph.h"
#include "src/ts/forecasters.h"
#include "src/ts/windowing.h"

namespace perfbench {

using namespace coda;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void add(OpOutcome& out, const std::string& key, double value) {
  out.layer[key] += value;
}

void keep_max(OpOutcome& out, const std::string& key, double value) {
  double& slot = out.layer[key];
  slot = std::max(slot, value);
}

/// Report-derived per-op layer values shared by every workload.
void add_report(OpOutcome& out, const EvaluationReport& report) {
  add(out, "core.fold_evals", static_cast<double>(report.fold_evaluations));
  for (const auto& r : report.results) {
    keep_max(out, "core.candidate.eval_s_max", r.eval_seconds);
    add(out, "core.claim_wait_s", r.claim_wait_seconds);
  }
}

/// Folds one cooperative run into the op: wire bytes, peer-served share,
/// claim counts, per-client report values, and the fleet check.
void add_fleet(OpOutcome& out, const darr::CooperativeReport& report,
               const ClaimCounts& claims, const std::string& expected_best) {
  out.wire_bytes += static_cast<double>(report.bytes_on_wire);
  for (const auto& client : report.clients) {
    out.peer_served += static_cast<double>(client.served_from_cache);
    out.peer_candidates += static_cast<double>(client.served_from_cache +
                                               client.evaluated_locally);
    add_report(out, client.report);
  }
  add(out, "darr.claim.attempts", static_cast<double>(claims.claims.load()));
  add(out, "darr.claim.denied", static_cast<double>(claims.denied.load()));
  if (out.failure.empty()) out.failure = check_fleet(report, expected_best);
}

/// The chaos-grade transfer budget bench_fleet uses: deep enough that
/// seeded 5% drops never exhaust an operation's retries.
RetryPolicy chaos_retry(std::uint64_t seed) {
  RetryPolicy policy;
  policy.max_attempts = 12;
  policy.initial_backoff_seconds = 0.05;
  policy.multiplier = 2.0;
  policy.max_backoff_seconds = 1.0;
  policy.jitter_fraction = 0.1;
  policy.deadline_seconds = 20.0;
  policy.seed = seed;
  return policy;
}

// ---------------------------------------------------------- fig11_forecast

class Fig11Forecast final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    series_ = fig11_series(seed);
    ts::ForecastSpec spec;
    spec.history = 24;
    graph_ = std::make_unique<ts::ForecastGraph>(
        ts::ForecastGraph::standard(spec, /*neural_epochs=*/12));
    reference_ = search();
  }

  OpOutcome run_op(std::size_t) override {
    const EvaluationReport report = search();
    OpOutcome out;
    out.failure = check_search(report, reference_);
    add_report(out, report);
    return out;
  }

  std::string describe() const override {
    return "one halving (eta=6) search of the standard Fig-11 graph (" +
           std::to_string(graph_->enumerate().size()) +
           " paths), closed loop, 1 caller, " + std::to_string(nproc()) +
           " engine threads";
  }

 private:
  EvaluationReport search() const {
    EvalOptions options;
    options.metric = Metric::kRmse;
    options.threads = nproc();
    options.search.strategy = SearchStrategy::kHalving;
    options.search.eta = 6;
    const Span span("core.evaluate");
    return ts::ForecastGraphEvaluator(options).evaluate(*graph_, series_, cv_);
  }

  TimeSeries series_;
  std::unique_ptr<ts::ForecastGraph> graph_;
  TimeSeriesSlidingSplit cv_{2, 150, 40, 5};
  EvaluationReport reference_;
};

// ------------------------------------------------------- template_searches

class TemplateSearches final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    cases_ = template_cases(seed);
    references_.clear();
    for (const TemplateCase& c : cases_) references_.push_back(search(c));
  }

  OpOutcome run_op(std::size_t) override {
    OpOutcome out;
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      const auto start = std::chrono::steady_clock::now();
      const EvaluationReport report = search(cases_[i]);
      add(out, "template." + cases_[i].name + ".search_s",
          seconds_since(start));
      add_report(out, report);
      const CheckResult failure = check_search(report, references_[i]);
      if (out.failure.empty() && !failure.empty()) {
        out.failure = cases_[i].name + ": " + failure;
      }
    }
    return out;
  }

  std::string describe() const override {
    return "one pass of exhaustive KFold(3) searches over 5 tabular graphs, "
           "closed loop, 1 caller, " +
           std::to_string(nproc()) + " engine threads";
  }

 private:
  static EvaluationReport search(const TemplateCase& c) {
    EvalOptions options;
    options.metric = c.metric;
    options.threads = nproc();
    const Span span("core.evaluate");
    return GraphEvaluator(options).evaluate(c.graph, c.data, KFold(3));
  }

  std::vector<TemplateCase> cases_;
  std::vector<EvaluationReport> references_;
};

// --------------------------------------------------------------- fleet_coop

class FleetCoop final : public Workload {
 public:
  static constexpr std::size_t kClients = 64;
  static constexpr std::size_t kSessions = 4;
  static constexpr double kRoundsPerSecond = 8.5;

  void setup(std::uint64_t seed) override {
    seed_ = seed;
    rows_ = fleet_rows(seed);
    graph_ = std::make_unique<TEGraph>(fig3_graph());
    // The single-client fault-free reference winner.
    darr::FleetOptions single;
    single.n_clients = 1;
    single.max_parallel_clients = 1;
    single.telemetry = false;
    expected_best_ = darr::run_cooperative_search(*graph_, rows_, KFold(3),
                                                  Metric::kRmse, single)
                         .clients.at(0)
                         .report.best()
                         .spec;
    const OpOutcome warm = run_op(0);
    require(warm.failure.empty(), "fleet_coop warm-up: " + warm.failure);
  }

  OpOutcome run_op(std::size_t) override {
    const std::uint64_t round = next_round_++;
    darr::FleetOptions options;
    options.n_clients = kClients;
    options.n_shards = 4;
    options.replication = 2;
    options.max_parallel_clients = sessions();
    options.evaluator_threads = 1;
    dist::SimNet::FaultConfig faults;
    faults.seed = derive_seed(seed_, "fleet.faults", round);
    faults.drop_probability = 0.05;
    faults.latency_spike_probability = 0.05;
    options.faults = faults;
    options.retry = chaos_retry(derive_seed(seed_, "fleet.retry", round));

    ClaimCounts claims;
    const bool traced = Tracer::instance().enabled();
    const auto session = [&](std::size_t, ResultCache& cache) {
      const Lane lane;
      TimingCache timed(cache, claims);
      EvalOptions eval;
      eval.metric = Metric::kRmse;
      eval.threads = 1;
      eval.cache = traced ? static_cast<ResultCache*>(&timed) : &cache;
      const Span span("core.evaluate");
      return GraphEvaluator(eval).evaluate(*graph_, rows_, KFold(3));
    };
    const Span span("darr.run_cooperative");
    const darr::CooperativeReport report = darr::run_cooperative_fleet(
        graph_->enumerate_candidates().size(), options, session);
    OpOutcome out;
    add_fleet(out, report, claims, expected_best_);
    return out;
  }

  // Every round leaves its threads' profiler arenas behind and telemetry
  // publishing walks all of them, so round k costs a + b*k. Run for a
  // fixed number of rounds per --seconds (170 for 20 s, what a 20 s run made
  // on the reference host) so op_s_p50 ~ a + b*N/2 follows the round cost:
  // run for a fixed time, the round count would adapt and the median would
  // settle near sqrt(b*T/2) whatever a is.
  std::size_t op_budget(double seconds) const override {
    return static_cast<std::size_t>(std::lround(kRoundsPerSecond * seconds));
  }

  std::string describe() const override {
    return "one cooperative round: 64 clients, 4 shards rf=2, " +
           std::to_string(sessions()) +
           " concurrent sessions, 9 candidates on 120x5 rows, 5% drops + "
           "5% latency spikes, closed loop of a fixed round count";
  }

 private:
  static std::size_t sessions() { return std::min(kSessions, nproc()); }

  std::uint64_t seed_ = 0;
  std::uint64_t next_round_ = 0;
  Dataset rows_;
  std::unique_ptr<TEGraph> graph_;
  std::string expected_best_;
};

// ----------------------------------------------------------- sensor_refresh

class SensorRefresh final : public Workload {
 public:
  /// Updates per asset block; the UpdateMonitor's count threshold equals
  /// it, so the last update of every block triggers a recompute.
  static constexpr std::size_t kBlock = 4;
  /// The open-loop rate. On the 4-core host in perfbench/README.md the
  /// loop's capacity is about 26 updates/s (a recompute takes ~140 ms, a
  /// plain update ~4 ms); 5/s spaces updates further apart than one
  /// recompute, so only a stall or a slower recompute makes updates late.
  static constexpr double kRatePerS = 5.0;
  static constexpr std::size_t kClients = 4;

  void setup(std::uint64_t seed) override {
    source_ = std::make_unique<SensorSource>(seed);
    net_ = std::make_unique<dist::SimNet>();
    home_ = std::make_unique<dist::HomeDataStore>(net_.get(),
                                                  net_->add_node("home"));
    caches_.clear();
    for (std::size_t c = 0; c < kClients; ++c) {
      caches_.push_back(std::make_unique<dist::ClientCache>(
          net_.get(), net_->add_node("replica" + std::to_string(c)),
          home_.get()));
    }
    home_->set_push_handler(
        [this](dist::NodeId client, const dist::PushMessage& message) {
          const Span span("dist.client.on_push");
          for (auto& cache : caches_) {
            if (cache->node_id() == client) cache->on_push(message);
          }
        });
    for (std::size_t a = 0; a < SensorSource::kAssets; ++a) {
      const std::string key = source_->key(a);
      home_->put(key, source_->encode(a));
      // Subscribers: push-delta, push-delta, notify+pull; the fourth
      // replica is pull-only.
      caches_[0]->subscribe(key, kLease, dist::PushMode::kDelta);
      caches_[1]->subscribe(key, kLease, dist::PushMode::kDelta);
      caches_[2]->subscribe(key, kLease, dist::PushMode::kNotifyOnly);
      for (auto& cache : caches_) cache->get(key);
    }
    monitor_ = std::make_unique<dist::UpdateMonitor>(
        std::make_unique<dist::CountThresholdPolicy>(kBlock),
        [this](const std::string& key) { recompute(key); });

    ts::ForecastSpec spec;
    spec.history = 64;
    graph_ = std::make_unique<ts::ForecastGraph>(spec);
    graph_->add_scaler(std::make_unique<StandardScaler>());
    graph_->add_scaler(std::make_unique<MinMaxScaler>());
    graph_->add_scaler(std::make_unique<RobustScaler>());
    graph_->add_scaler(std::make_unique<NoOp>());
    graph_->add_windower(std::make_unique<ts::CascadedWindows>(), "cascaded");
    graph_->add_model(std::make_unique<ts::ArModel>(), "cascaded");
    for (int lag = 0; lag < 8; ++lag) {
      auto zero = std::make_unique<ts::ZeroModel>();
      zero->set_name("zero_lag" + std::to_string(lag));
      zero->set_param("value_col", std::int64_t{lag});
      graph_->add_model(std::move(zero), "cascaded");
    }

    // Warm-up: one whole block, whose last update triggers a recompute.
    next_update_ = 0;
    for (std::size_t i = 0; i < kBlock; ++i) {
      const OpOutcome warm = run_op(i);
      require(warm.failure.empty(), "sensor_refresh warm-up: " + warm.failure);
    }
  }

  OpOutcome run_op(std::size_t) override {
    const std::size_t index = next_update_++;
    const std::size_t asset = source_->asset_of(index, kBlock);
    const std::string key = source_->key(asset);
    const Bytes previous = home_->value(key);
    const std::uint64_t wire0 = net_->total().bytes;
    const dist::ClientCache::Stats delta0 = caches_[0]->stats();

    source_->update(asset);
    {
      const Span span("dist.home.put");
      home_->put(key, source_->encode(asset));
    }
    dist::ClientCache& notified = *caches_[2];
    if (notified.notified_version(key) > notified.version(key)) {
      const Span span("dist.client.get");
      notified.get(key);
    }
    {
      const Span span("dist.client.get");
      caches_[3]->get(key);
    }

    OpOutcome out;
    recompute_out_ = &out;
    std::vector<const Bytes*> replicas;
    for (const auto& cache : caches_) replicas.push_back(&cache->cached(key));
    out.failure = check_replicas(home_->value(key), replicas);

    const dist::ClientCache::Stats delta1 = caches_[0]->stats();
    const std::size_t pushed = delta1.bytes_received - delta0.bytes_received;
    const std::size_t saved =
        delta1.bytes_saved_by_delta - delta0.bytes_saved_by_delta;
    add(out, "dist.delta.bytes_saved", static_cast<double>(saved));
    add(out, "dist.delta.bytes_full", static_cast<double>(saved + pushed));
    bool fired = false;
    {
      const Span span("dist.monitor.on_update");
      fired = monitor_->on_update(key, &previous, home_->value(key),
                                  home_->version(key), pushed);
    }
    add(out, "dist.monitor.recompute", fired ? 1.0 : 0.0);
    out.wire_bytes += static_cast<double>(net_->total().bytes - wire0);
    recompute_out_ = nullptr;
    return out;
  }

  double rate_per_s() const override { return kRatePerS; }
  std::string describe() const override {
    return "one update of 8 asset series (3 x 4000) through a home store "
           "with 4 replicas; every 4th update recomputes a 4-client "
           "forecast search over 36 candidates; open loop at " +
           std::to_string(static_cast<int>(kRatePerS)) + " updates/s";
  }

 private:
  static constexpr double kLease = 1e9;  // simulated seconds: never expires

  void recompute(const std::string& key) {
    const TimeSeries series = SensorSource::decode(caches_[0]->cached(key));
    darr::FleetOptions options;
    options.n_clients = kClients;
    options.max_parallel_clients = std::min(kClients, nproc());
    options.evaluator_threads = 1;
    ClaimCounts claims;
    const bool traced = Tracer::instance().enabled();
    const auto session = [&](std::size_t, ResultCache& cache) {
      const Lane lane;
      TimingCache timed(cache, claims);
      EvalOptions eval;
      eval.metric = Metric::kRmse;
      eval.threads = 1;
      eval.cache = traced ? static_cast<ResultCache*>(&timed) : &cache;
      const Span span("core.evaluate");
      return ts::ForecastGraphEvaluator(eval).evaluate(*graph_, series, cv_);
    };
    const Span span("darr.run_cooperative");
    const darr::CooperativeReport report = darr::run_cooperative_fleet(
        graph_->enumerate().size(), options, session);
    if (recompute_out_ != nullptr) {
      add_fleet(*recompute_out_, report, claims, /*expected_best=*/"");
    }
  }

  std::unique_ptr<SensorSource> source_;
  std::unique_ptr<dist::SimNet> net_;
  std::unique_ptr<dist::HomeDataStore> home_;
  std::vector<std::unique_ptr<dist::ClientCache>> caches_;
  std::unique_ptr<dist::UpdateMonitor> monitor_;
  std::unique_ptr<ts::ForecastGraph> graph_;
  TimeSeriesSlidingSplit cv_{2, 3000, 450, 10};
  std::size_t next_update_ = 0;
  OpOutcome* recompute_out_ = nullptr;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "fig11_forecast", "template_searches", "fleet_coop", "sensor_refresh"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "fig11_forecast") return std::make_unique<Fig11Forecast>();
  if (name == "template_searches") return std::make_unique<TemplateSearches>();
  if (name == "fleet_coop") return std::make_unique<FleetCoop>();
  if (name == "sensor_refresh") return std::make_unique<SensorRefresh>();
  return nullptr;
}

}  // namespace perfbench
