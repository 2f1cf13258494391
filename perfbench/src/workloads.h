// The four workloads (their names are part of the benchmark contract). Each
// generates its inputs from the workload seed, runs a warm-up op during
// setup (its result is the reference the checks compare against), and then
// runs ops one at a time for the loop in main.cpp.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/core.h"
#include "src/core/te_graph.h"
#include "src/data/dataset.h"
#include "src/data/time_series.h"
#include "src/util/serialization.h"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates inputs and runs the warm-up op.
  virtual void setup(std::uint64_t seed) = 0;
  /// Runs op `index` and checks its output.
  virtual OpOutcome run_op(std::size_t index) = 0;

  /// Open-loop workloads are driven at a fixed rate (ops/s); closed loops
  /// return 0 and run their next op as soon as the previous one ends.
  virtual double rate_per_s() const { return 0.0; }
  /// Closed loops whose op cost depends on how many ops ran before (state
  /// the program keeps for the life of the process) run a fixed number of
  /// ops for a given --seconds, the same on every commit, instead of
  /// running for --seconds; 0 = run for --seconds.
  virtual std::size_t op_budget(double /*seconds*/) const { return 0; }
  /// One-line description of the op (and its threads, at most nproc)
  /// printed with the results.
  virtual std::string describe() const = 0;
};

/// The workload named `name`, or nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);
const std::vector<std::string>& workload_names();

/// Hardware threads, at least 1.
std::size_t nproc();

// Input generators, exposed so tests can check the seed plumbing.

/// fig11_forecast: the 2-variable 260-step industrial series.
coda::TimeSeries fig11_series(std::uint64_t seed);

/// template_searches: the five golden-seed tabular graphs at bench_search
/// sizes, with their data sets.
struct TemplateCase {
  std::string name;
  coda::TEGraph graph;
  coda::Dataset data;
  coda::Metric metric;
};
std::vector<TemplateCase> template_cases(std::uint64_t seed);

/// The Fig-3 tabular shape: 3 scalers x 3 regressors = 9 candidates
/// (fleet_coop's graph and template_searches' fig3_tabular).
coda::TEGraph fig3_graph();

/// fleet_coop: the 120x5 regression rows.
coda::Dataset fleet_rows(std::uint64_t seed);

/// sensor_refresh: the data source. It holds 8 asset series (3 variables
/// x 4000 steps) and produces updates that append rows, drop as many of
/// the oldest, and revise a few recent ones. Everything it draws comes
/// from the seed.
class SensorSource {
 public:
  static constexpr std::size_t kAssets = 8;
  static constexpr std::size_t kVariables = 3;
  static constexpr std::size_t kSteps = 4000;

  explicit SensorSource(std::uint64_t seed);

  std::string key(std::size_t asset) const;
  /// Encoded current value of `asset` (row count, then row-major doubles).
  coda::Bytes encode(std::size_t asset) const;
  /// Advances `asset` by one update.
  void update(std::size_t asset);
  /// Asset of update `index`: updates come in blocks of `block` to one
  /// asset, the assets of each cycle of blocks in a seeded order.
  std::size_t asset_of(std::size_t index, std::size_t block) const;

  static coda::TimeSeries decode(const coda::Bytes& bytes);

 private:
  struct Asset {
    coda::Matrix values;  // kSteps x kVariables
    std::uint64_t rng_state = 0;
    std::uint64_t step = 0;  // timestamp of the last row
  };
  double draw(Asset& asset);  // uniform [0, 1)

  std::uint64_t seed_;
  std::vector<Asset> assets_;
};

}  // namespace perfbench
