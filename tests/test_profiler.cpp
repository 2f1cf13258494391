// Tests for the always-on region profiler (DESIGN.md §15) and the
// executor instrumentation that feeds it: call/path accounting across
// threads, the pool.* / timerwheel.* metric families under a concurrent
// submit storm (run under -DCODA_SANITIZE=thread via `ctest -L tsan`),
// folded-export determinism, fleet hot-path reproducibility, the reset
// contract, arena reuse across threads, and obs::Region's one clock pair
// feeding its span and the report rows' phase costs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/evaluator.h"
#include "src/darr/cooperative.h"
#include "src/data/synthetic.h"
#include "src/ml/decision_tree.h"
#include "src/ml/linear.h"
#include "src/ml/scalers.h"
#include "src/obs/obs.h"
#include "src/util/thread_pool.h"
#include "src/util/timer_wheel.h"

namespace coda {
namespace {

// A fixed workload of nested regions: 3 outer calls, 2 inner calls each,
// plus one call of a sibling region. Deterministic by construction.
void fixed_workload() {
  for (int outer = 0; outer < 3; ++outer) {
    const obs::Region outer_region(obs::region_id<"test.prof.outer">());
    for (int inner = 0; inner < 2; ++inner) {
      const obs::Region inner_region(obs::region_id<"test.prof.inner">());
    }
  }
  const obs::Region sibling(obs::region_id<"test.prof.sibling">());
}

std::vector<std::pair<std::string, std::uint64_t>> region_calls() {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& region : obs::prof::region_table()) {
    out.emplace_back(region.name, region.calls);
  }
  return out;
}

TEST(Profiler, NestedScopesAccumulatePathsAndSelfTime) {
  obs::prof::reset();
  fixed_workload();

  bool saw_outer = false, saw_inner = false, saw_sibling = false;
  for (const auto& path : obs::prof::merged_paths()) {
    if (path.path == std::vector<std::string>{"test.prof.outer"}) {
      saw_outer = true;
      EXPECT_EQ(path.calls, 3u);
      EXPECT_GE(path.total_ns, path.self_ns);
    } else if (path.path ==
               std::vector<std::string>{"test.prof.outer",
                                        "test.prof.inner"}) {
      saw_inner = true;
      EXPECT_EQ(path.calls, 6u);
    } else if (path.path == std::vector<std::string>{"test.prof.sibling"}) {
      saw_sibling = true;
      EXPECT_EQ(path.calls, 1u);
    }
  }
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_inner);
  EXPECT_TRUE(saw_sibling);

  // The folded export carries the same stacks, semicolon-joined.
  const std::string folded = obs::prof::folded();
  EXPECT_NE(folded.find("test.prof.outer;test.prof.inner "),
            std::string::npos);
  EXPECT_NE(folded.find("test.prof.sibling "), std::string::npos);
}

TEST(Profiler, FoldedExportIsDeterministicForAFixedWorkload) {
  obs::prof::reset();
  fixed_workload();
  const auto first = region_calls();

  obs::prof::reset();
  fixed_workload();
  const auto second = region_calls();

  // Region set, ordering, and call counts reproduce exactly; only the
  // recorded times vary run to run (DESIGN.md §15 determinism rules).
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

// The tsan storm: many threads hammer one pool while the profiler records
// inside every task. Counts must balance exactly — the instrumentation
// sits under the queue lock (submit side) or on the single popping worker
// (drain side), so no increment can be lost or doubled.
TEST(Profiler, ConcurrentSubmitStormCountsEveryTask) {
  constexpr std::size_t kSubmitters = 4;
  constexpr std::size_t kTasksPerSubmitter = 64;
  constexpr std::size_t kTasks = kSubmitters * kTasksPerSubmitter;

  const std::uint64_t tasks_before = obs::counter("pool.tasks").value();
  const std::uint64_t wait_before =
      obs::histogram("pool.queue_wait_seconds").count();
  const std::uint64_t run_before =
      obs::histogram("pool.task_seconds").count();
  const double depth_before = obs::gauge("pool.queue_depth").value();
  obs::prof::reset();

  {
    ThreadPool pool(3);
    std::vector<std::thread> submitters;
    std::vector<std::future<void>> futures(kTasks);
    std::mutex futures_mutex;
    submitters.reserve(kSubmitters);
    for (std::size_t s = 0; s < kSubmitters; ++s) {
      submitters.emplace_back([&, s] {
        for (std::size_t i = 0; i < kTasksPerSubmitter; ++i) {
          auto f = pool.submit([] {
            const obs::Region task(obs::region_id<"test.prof.storm.task">());
            volatile std::uint64_t sink = 0;
            for (int spin = 0; spin < 500; ++spin) {
              sink = sink + static_cast<std::uint64_t>(spin);
            }
          });
          std::lock_guard<std::mutex> lock(futures_mutex);
          futures[s * kTasksPerSubmitter + i] = std::move(f);
        }
      });
    }
    for (auto& t : submitters) t.join();
    for (auto& f : futures) f.get();

    const double live = pool.utilization();
    EXPECT_GE(live, 0.0);
    EXPECT_LE(live, 1.0);
  }  // pool drains, joins, and finalizes pool.utilization

  EXPECT_EQ(obs::counter("pool.tasks").value() - tasks_before, kTasks);
  EXPECT_EQ(obs::histogram("pool.queue_wait_seconds").count() - wait_before,
            kTasks);
  EXPECT_EQ(obs::histogram("pool.task_seconds").count() - run_before,
            kTasks);
  EXPECT_DOUBLE_EQ(obs::gauge("pool.queue_depth").value(), depth_before);

  const double final_util = obs::gauge("pool.utilization").value();
  EXPECT_GE(final_util, 0.0);
  EXPECT_LE(final_util, 1.0);

  // Every task's scope landed in the merge, across all worker threads.
  std::uint64_t storm_calls = 0;
  for (const auto& region : obs::prof::region_table()) {
    if (region.name == "test.prof.storm.task") storm_calls = region.calls;
  }
  EXPECT_EQ(storm_calls, kTasks);
}

TEST(Profiler, TimerWheelRecordsFireLagForDelayedFires) {
  constexpr std::size_t kEntries = 3;
  const std::uint64_t scheduled_before =
      obs::counter("timerwheel.scheduled").value();
  const std::uint64_t fired_before =
      obs::counter("timerwheel.fired").value();
  const std::uint64_t lag_before =
      obs::histogram("timerwheel.fire_lag_seconds").count();
  const double outstanding_before =
      obs::gauge("timerwheel.outstanding").value();

  {
    TimerWheel wheel;
    std::promise<void> all_fired;
    std::atomic<std::size_t> remaining{kEntries};
    for (std::size_t i = 0; i < kEntries; ++i) {
      wheel.schedule(std::chrono::milliseconds(1 + i), [&] {
        if (remaining.fetch_sub(1) == 1) all_fired.set_value();
      });
    }
    all_fired.get_future().wait();
  }

  EXPECT_EQ(obs::counter("timerwheel.scheduled").value() - scheduled_before,
            kEntries);
  EXPECT_EQ(obs::counter("timerwheel.fired").value() - fired_before,
            kEntries);
  // One lag sample per fire; fire time >= deadline, so every sample is
  // non-negative (the histogram rejects negatives loudly if not).
  EXPECT_EQ(
      obs::histogram("timerwheel.fire_lag_seconds").count() - lag_before,
      kEntries);
  EXPECT_DOUBLE_EQ(obs::gauge("timerwheel.outstanding").value(),
                   outstanding_before);
}

// Serial fleet (max_parallel_clients = 1, no faults): the region table
// must reproduce back-to-back — same regions, same order, same call
// counts — and each client's profile stays keyed by its node.
TEST(Profiler, SerialFleetRegionTableReproduces) {
  const auto run_fleet = [] {
    obs::reset_all();
    TEGraph g;
    std::vector<std::unique_ptr<Transformer>> scalers;
    scalers.push_back(std::make_unique<StandardScaler>());
    scalers.push_back(std::make_unique<NoOp>());
    g.add_feature_scalers(std::move(scalers));
    std::vector<std::unique_ptr<Estimator>> models;
    models.push_back(std::make_unique<LinearRegression>());
    models.push_back(std::make_unique<DecisionTreeRegressor>());
    g.add_regression_models(std::move(models));

    RegressionConfig cfg;
    cfg.n_samples = 120;
    cfg.n_features = 4;
    cfg.n_informative = 4;
    const Dataset data = make_regression(cfg);

    darr::FleetOptions options;
    options.n_clients = 3;
    options.max_parallel_clients = 1;  // fully deterministic ordering
    const auto report = darr::run_cooperative_search(
        g, data, KFold(3), Metric::kRmse, options);
    EXPECT_TRUE(report.telemetry_divergence.empty())
        << report.telemetry_divergence;

    std::set<std::string> nodes;
    for (const auto& path : obs::prof::merged_paths()) {
      nodes.insert(path.node);
    }
    for (std::size_t i = 0; i < options.n_clients; ++i) {
      EXPECT_TRUE(nodes.count("client" + std::to_string(i)))
          << "no profiled root under client" << i;
    }

    std::vector<std::pair<std::string, std::uint64_t>> table;
    for (const auto& row : obs::prof::region_table()) {
      table.emplace_back(row.name, row.calls);
    }
    return table;
  };

  const auto first = run_fleet();
  const auto second = run_fleet();
  EXPECT_EQ(first, second);

  ASSERT_FALSE(first.empty());
  bool saw_candidate = false;
  for (const auto& [region, calls] : first) {
    if (region == "eval.candidate") saw_candidate = true;
  }
  EXPECT_TRUE(saw_candidate);
}

TEST(Profiler, ResetLeavesProfilerEmpty) {
  fixed_workload();
  EXPECT_FALSE(obs::prof::empty());
  obs::prof::reset();
  EXPECT_TRUE(obs::prof::empty());
  EXPECT_TRUE(obs::prof::merged_paths().empty());
  EXPECT_EQ(obs::prof::folded(), "");

  // And the regions keep working after the rewind.
  fixed_workload();
  EXPECT_FALSE(obs::prof::empty());
}

// A traced Region's span is the profile interval under the same name: one
// clock pair, so for a single call the span duration is exactly the
// region's total_ns.
TEST(Region, TracedSpanSharesNameAndClockWithProfile) {
  obs::reset_all();
  double stopped = 0.0;
  {
    obs::Region region(obs::region_id<"test.region.traced">(), obs::kTraced);
    region.tag("k", "v");
    const obs::Region untraced(obs::region_id<"test.region.untraced">());
    volatile std::uint64_t sink = 0;
    for (int spin = 0; spin < 2000; ++spin) {
      sink = sink + static_cast<std::uint64_t>(spin);
    }
    stopped = region.stop();
    EXPECT_EQ(region.stop(), stopped);  // closes once
  }

  const auto spans = obs::Tracer::instance().snapshot();
  ASSERT_EQ(spans.size(), 1u);  // the untraced region records no span
  EXPECT_EQ(spans[0].name, "test.region.traced");
  ASSERT_EQ(spans[0].tags.size(), 1u);
  EXPECT_EQ(spans[0].tags[0].second, "v");

  std::uint64_t total_ns = 0;
  std::uint64_t calls = 0;
  for (const auto& region : obs::prof::region_table()) {
    if (region.name == "test.region.traced") {
      total_ns = region.total_ns;
      calls = region.calls;
    }
  }
  ASSERT_EQ(calls, 1u);
  ASSERT_GT(total_ns, 0u);
  EXPECT_DOUBLE_EQ(spans[0].duration_seconds,
                   static_cast<double>(total_ns) / 1e9);
  EXPECT_EQ(spans[0].duration_seconds, stopped);
}

TEGraph phase_graph() {
  TEGraph g;
  std::vector<std::unique_ptr<Transformer>> scalers;
  scalers.push_back(std::make_unique<StandardScaler>());
  scalers.push_back(std::make_unique<MinMaxScaler>());
  scalers.push_back(std::make_unique<NoOp>());
  g.add_feature_scalers(std::move(scalers));
  std::vector<std::unique_ptr<Estimator>> models;
  models.push_back(std::make_unique<LinearRegression>());
  models.push_back(std::make_unique<DecisionTreeRegressor>());
  g.add_regression_models(std::move(models));
  return g;
}

Dataset phase_data() {
  RegressionConfig cfg;
  cfg.n_samples = 120;
  cfg.n_features = 4;
  cfg.n_informative = 3;
  return make_regression(cfg);
}

// Fold phases are timed once: summed over the report rows, each phase's
// seconds equal its eval.fold.* profile total.
void expect_rows_match_fold_phase_profile(
    const std::vector<const EvaluationReport*>& reports) {
  double charged[3] = {0.0, 0.0, 0.0};
  for (const EvaluationReport* report : reports) {
    for (const CandidateResult& row : report->results) {
      charged[0] += row.prepare_seconds;
      charged[1] += row.fit_seconds;
      charged[2] += row.score_seconds;
    }
  }
  const char* names[3] = {"eval.fold.prepare", "eval.fold.fit",
                          "eval.fold.score"};
  for (int phase = 0; phase < 3; ++phase) {
    SCOPED_TRACE(names[phase]);
    std::uint64_t total_ns = 0;
    for (const auto& region : obs::prof::region_table()) {
      if (region.name == names[phase]) total_ns = region.total_ns;
    }
    const double profiled = static_cast<double>(total_ns) * 1e-9;
    ASSERT_GT(profiled, 0.0);
    EXPECT_NEAR(charged[phase], profiled, 1e-12 * profiled);
  }
}

TEST(Region, CandidatePhaseCostsEqualFoldPhaseProfile) {
  obs::reset_all();
  EvalOptions options;
  options.threads = 2;
  const EvaluationReport report =
      GraphEvaluator(options).evaluate(phase_graph(), phase_data(), KFold(3));
  expect_rows_match_fold_phase_profile({&report});
}

// The same identity on two clients searching concurrently, one thread
// each: every fold lands in exactly one client's rows.
TEST(Region, FleetPhaseCostsEqualFoldPhaseProfile) {
  obs::reset_all();
  const auto fleet = darr::run_cooperative_search(
      phase_graph(), phase_data(), KFold(3), Metric::kRmse,
      {.n_clients = 2});
  std::vector<const EvaluationReport*> reports;
  for (const auto& client : fleet.clients) reports.push_back(&client.report);
  expect_rows_match_fold_phase_profile(reports);
}

// An exited thread's arena goes back to a free list for the next thread,
// so back-to-back runs, each spinning up and joining its own workers, do
// not grow the profiler.
TEST(Profiler, ArenaCountIsBoundedByLiveThreads) {
  TEGraph g;
  std::vector<std::unique_ptr<Transformer>> scalers;
  scalers.push_back(std::make_unique<NoOp>());
  g.add_feature_scalers(std::move(scalers));
  std::vector<std::unique_ptr<Estimator>> models;
  models.push_back(std::make_unique<LinearRegression>());
  g.add_regression_models(std::move(models));
  RegressionConfig cfg;
  cfg.n_samples = 20;
  cfg.n_features = 2;
  cfg.n_informative = 2;
  const Dataset data = make_regression(cfg);
  EvalOptions options;
  options.threads = 2;
  const GraphEvaluator evaluator(options);

  // Each run keeps at most 3 profiling threads live beside this one: its
  // 2 workers and its timer wheel.
  const std::size_t before = obs::prof::arena_count();
  for (int run = 0; run < 1000; ++run) evaluator.evaluate(g, data, KFold(2));
  EXPECT_LE(obs::prof::arena_count(), before + 4);
}

}  // namespace
}  // namespace coda
