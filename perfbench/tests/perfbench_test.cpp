// Tests of the benchmark's own logic: the tail rule, seed plumbing, the
// metric-name charset and failure counting.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "perfbench/src/core.h"
#include "perfbench/src/probes.h"
#include "perfbench/src/workloads.h"
#include "src/data/fingerprint.h"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
  return v;  // n, n-1, ..., 1: the rule must sort
}

TEST(TailRule, LeavesExactlyTenSamplesBeyond) {
  const Tail t = tail_percentile(ramp(100));
  ASSERT_TRUE(t.defined);
  EXPECT_EQ(t.value, 90.0);
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.samples, 100u);

  const Tail twenty = tail_percentile(ramp(20));
  EXPECT_EQ(twenty.value, 10.0);
  EXPECT_DOUBLE_EQ(twenty.percentile, 50.0);

  const Tail eleven = tail_percentile(ramp(11));
  ASSERT_TRUE(eleven.defined);
  EXPECT_EQ(eleven.value, 1.0);
  EXPECT_NEAR(eleven.percentile, 100.0 / 11.0, 1e-12);
}

TEST(TailRule, UndefinedWithTenOrFewerSamples) {
  EXPECT_FALSE(tail_percentile(ramp(10)).defined);
  EXPECT_FALSE(tail_percentile({}).defined);
}

TEST(Stats, MedianInterpolates) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(SeedPlumbing, SameSeedSameInputsOtherSeedOtherInputs) {
  EXPECT_EQ(coda::fingerprint(fig11_series(7)),
            coda::fingerprint(fig11_series(7)));
  EXPECT_NE(coda::fingerprint(fig11_series(7)),
            coda::fingerprint(fig11_series(8)));

  EXPECT_EQ(coda::fingerprint(fleet_rows(7)), coda::fingerprint(fleet_rows(7)));
  EXPECT_NE(coda::fingerprint(fleet_rows(7)), coda::fingerprint(fleet_rows(8)));

  const auto a = template_cases(7);
  const auto b = template_cases(7);
  const auto c = template_cases(8);
  ASSERT_EQ(a.size(), 5u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(coda::fingerprint(a[i].data), coda::fingerprint(b[i].data))
        << a[i].name;
    EXPECT_NE(coda::fingerprint(a[i].data), coda::fingerprint(c[i].data))
        << a[i].name;
  }
}

TEST(SeedPlumbing, SensorStreamIsAFunctionOfTheSeed) {
  SensorSource x(7), y(7), z(8);
  std::vector<std::size_t> order_x, order_z;
  for (std::size_t i = 0; i < 64; ++i) {
    const std::size_t asset = x.asset_of(i, 4);
    ASSERT_EQ(asset, y.asset_of(i, 4));
    order_x.push_back(asset);
    order_z.push_back(z.asset_of(i, 4));
    x.update(asset);
    y.update(asset);
    z.update(asset);
  }
  EXPECT_NE(order_x, order_z);
  for (std::size_t a = 0; a < SensorSource::kAssets; ++a) {
    EXPECT_EQ(x.encode(a), y.encode(a));
    EXPECT_NE(x.encode(a), z.encode(a));
  }
  // Blocks of 4 updates go to one asset; every asset once per cycle.
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(order_x[i], order_x[i - i % 4]);
  }
  const std::set<std::size_t> cycle(order_x.begin(), order_x.begin() + 32);
  EXPECT_EQ(cycle.size(), SensorSource::kAssets);
}

TEST(SeedPlumbing, SensorUpdatesKeepTheShapeAndDecode) {
  SensorSource source(3);
  const coda::Bytes before = source.encode(2);
  source.update(2);
  const coda::Bytes after = source.encode(2);
  EXPECT_NE(before, after);
  EXPECT_EQ(before.size(), after.size());
  const coda::TimeSeries series = SensorSource::decode(after);
  EXPECT_EQ(series.length(), SensorSource::kSteps);
  EXPECT_EQ(series.n_variables(), SensorSource::kVariables);
}

TEST(MetricNames, Charset) {
  EXPECT_TRUE(valid_metric_name("op_s_p50"));
  EXPECT_TRUE(valid_metric_name("darr.fetch_many.calls"));
  EXPECT_TRUE(valid_metric_name("9lives-x"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("_leading"));
  EXPECT_FALSE(valid_metric_name(".leading"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/name"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));

  EXPECT_TRUE(valid_unit("1/s"));
  EXPECT_TRUE(valid_unit("GFLOP/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit("way-too-long-unit"));
  EXPECT_FALSE(valid_unit("m s"));
}

TEST(MetricNames, ProbesEmitValidUniqueNames) {
  std::set<std::string> seen;
  for (const MetricValue& m : run_probes(1)) {
    EXPECT_TRUE(valid_metric_name(m.name)) << m.name;
    EXPECT_TRUE(valid_unit(m.unit)) << m.name << " " << m.unit;
    EXPECT_TRUE(seen.insert(m.name).second) << m.name;
    EXPECT_GT(m.value, 0.0) << m.name;
  }
}

coda::EvaluationReport report_with(const std::string& best,
                                   std::vector<double> folds) {
  coda::EvaluationReport report;
  coda::CandidateResult loser;
  loser.spec = "noop -> zeromodel";
  loser.fold_scores = {9.0, 9.0};
  coda::CandidateResult winner;
  winner.spec = best;
  winner.fold_scores = std::move(folds);
  report.results = {loser, winner};
  report.best_index = 1;
  return report;
}

TEST(FailureCounting, WrongWinnerCountsAsFailedNotDropped) {
  const auto reference = report_with("standardscaler -> ar", {0.5, 0.25});
  Tally tally;
  OpOutcome ok;
  ok.failure = check_search(report_with("standardscaler -> ar", {0.5, 0.25}),
                            reference);
  EXPECT_TRUE(ok.failure.empty());
  tally.record(ok);

  OpOutcome wrong;
  wrong.failure =
      check_search(report_with("noop -> ar", {0.5, 0.25}), reference);
  EXPECT_FALSE(wrong.failure.empty());
  tally.record(wrong);

  OpOutcome drift;  // same winner, one fold score one ulp off
  drift.failure = check_search(
      report_with("standardscaler -> ar", {0.5, std::nextafter(0.25, 1.0)}),
      reference);
  EXPECT_FALSE(drift.failure.empty());
  tally.record(drift);

  tally.record_exception("boom");
  EXPECT_EQ(tally.attempted(), 4u);
  EXPECT_EQ(tally.failed(), 3u);
  EXPECT_DOUBLE_EQ(tally.failed_share(), 0.75);
  EXPECT_NE(tally.first_failure().find("winner changed"), std::string::npos);
}

TEST(FailureCounting, FailedCandidateFailsTheOp) {
  const auto reference = report_with("standardscaler -> ar", {0.5});
  auto report = report_with("standardscaler -> ar", {0.5});
  report.results[0].failed = true;
  EXPECT_FALSE(check_search(report, reference).empty());
}

TEST(FailureCounting, ReplicaMismatchCountsAsFailed) {
  const coda::Bytes home = {1, 2, 3};
  const coda::Bytes same = {1, 2, 3};
  const coda::Bytes stale = {1, 2, 4};
  EXPECT_TRUE(check_replicas(home, {&same, &same}).empty());
  OpOutcome out;
  out.failure = check_replicas(home, {&same, &stale});
  EXPECT_NE(out.failure.find("replica 1"), std::string::npos);
  Tally tally;
  tally.record(out);
  EXPECT_EQ(tally.attempted(), 1u);
  EXPECT_EQ(tally.failed(), 1u);
}

TEST(FailureCounting, FleetRedundancyOrDisagreementFails) {
  coda::darr::CooperativeReport fleet;
  fleet.clients.resize(2);
  fleet.clients[0].name = "client0";
  fleet.clients[0].report = report_with("a", {1.0});
  fleet.clients[1].name = "client1";
  fleet.clients[1].report = report_with("a", {1.0});
  EXPECT_TRUE(check_fleet(fleet, "a").empty());
  EXPECT_TRUE(check_fleet(fleet, "").empty());
  EXPECT_FALSE(check_fleet(fleet, "b").empty());
  fleet.clients[1].report = report_with("b", {1.0});
  EXPECT_FALSE(check_fleet(fleet, "").empty());
  fleet.clients[1].report = report_with("a", {1.0});
  fleet.redundant_evaluations = 1;
  EXPECT_FALSE(check_fleet(fleet, "a").empty());
}

TEST(ResultLine, HasExactlyTheContractKeys) {
  const std::string line =
      result_line(true, 12, 0, {{"op_s_p50", 0.125, "s"}, {"n", 3.0, "count"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
            "\"metrics\": {\"op_s_p50\": {\"value\": 0.125, \"unit\": \"s\"}, "
            "\"n\": {\"value\": 3, \"unit\": \"count\"}}}");
}

TEST(ResultLine, RejectsBadNamesUnitsAndValues) {
  EXPECT_THROW(result_line(true, 1, 0, {{"bad name", 1.0, "s"}}),
               std::invalid_argument);
  EXPECT_THROW(result_line(true, 1, 0, {{"ok", 1.0, "bad unit"}}),
               std::invalid_argument);
  EXPECT_THROW(result_line(true, 1, 0, {{"ok", std::nan(""), "s"}}),
               std::invalid_argument);
}

TEST(Workloads, NamesAreFinal) {
  EXPECT_EQ(workload_names(),
            (std::vector<std::string>{"fig11_forecast", "template_searches",
                                      "fleet_coop", "sensor_refresh"}));
  for (const auto& name : workload_names()) {
    EXPECT_NE(make_workload(name), nullptr) << name;
  }
  EXPECT_EQ(make_workload("nope"), nullptr);
}

}  // namespace
}  // namespace perfbench
