// Benchmark-side plumbing that owns no workload: seeds, sample statistics,
// op accounting, output checks and the result line. Everything here is a
// pure function or a plain value type so tests/perfbench_test.cpp can pin
// it without running a workload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/evaluator.h"
#include "src/darr/cooperative.h"
#include "src/util/serialization.h"

namespace perfbench {

// ---------------------------------------------------------------- seeds

/// Derives an independent 64-bit seed for input stream `salt` from the
/// workload seed (SplitMix64 over seed ^ FNV-1a(salt)). The program only
/// ever sees generated inputs, never the workload seed itself.
std::uint64_t derive_seed(std::uint64_t seed, const std::string& salt,
                          std::uint64_t index = 0);

// ---------------------------------------------------------------- stats

/// Median with linear interpolation (coda::quantile; throws when empty).
double median(std::vector<double> values);

/// The tail rule: the highest percentile that still has at least
/// `min_beyond` samples strictly beyond it in rank, i.e. the
/// (n - min_beyond)-th smallest sample. Undefined for n <= min_beyond.
struct Tail {
  bool defined = false;
  double value = 0.0;
  double percentile = 0.0;  ///< 100 * (n - min_beyond) / n
  std::size_t beyond = 0;   ///< samples ranked above the reported one
  std::size_t samples = 0;
};
Tail tail_percentile(std::vector<double> samples,
                     std::size_t min_beyond = 10);

/// BENCHMARK.json naming rules: a metric name starts with a letter or
/// digit and has at most 64 of [A-Za-z0-9_.-]; a unit has at most 16 of
/// [A-Za-z0-9_/%.-].
bool valid_metric_name(const std::string& name);
bool valid_unit(const std::string& unit);

// ---------------------------------------------------------------- checks

/// What the benchmark checks after each op. An empty string is a pass;
/// anything else names the first violated invariant.
using CheckResult = std::string;

/// fig11_forecast / template_searches: the winner and its fold scores are
/// bit-identical to the warm-up op's, and no candidate failed.
CheckResult check_search(const coda::EvaluationReport& report,
                         const coda::EvaluationReport& reference);

/// fleet_coop / sensor_refresh recompute: zero redundant evaluations and
/// every client elects `expected_best` (empty = all clients agree with
/// client 0).
CheckResult check_fleet(const coda::darr::CooperativeReport& report,
                        const std::string& expected_best);

/// sensor_refresh: every replica is byte-equal to the home value.
CheckResult check_replicas(const coda::Bytes& home,
                           const std::vector<const coda::Bytes*>& replicas);

// ---------------------------------------------------------------- ops

/// Per-op outcome a workload hands back to the loop.
struct OpOutcome {
  CheckResult failure;          ///< empty = the op's output checked out
  double wire_bytes = 0.0;      ///< SimNet bytes the op put on the wire
  double peer_served = 0.0;     ///< candidate results read from a peer
  double peer_candidates = 0.0; ///< candidate results obtained in total
  /// Per-op layer values the workload measured itself (report fields,
  /// per-graph search times); summed over traced ops by the loop.
  std::map<std::string, double> layer;
};

/// Attempted/failed accounting. Every op that was started is attempted;
/// an op that threw or failed its check is failed. Nothing is dropped.
class Tally {
 public:
  void record(const OpOutcome& outcome);
  void record_exception(const std::string& what);

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  double failed_share() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }
  /// The first failure message seen ("" when none).
  const std::string& first_failure() const { return first_failure_; }

 private:
  void fail(const std::string& what);

  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::string first_failure_;
};

// ---------------------------------------------------------------- output

/// One metric of the result line.
struct MetricValue {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
/// Doubles are printed with 17 significant digits (all of them). Throws
/// std::invalid_argument for a name or unit outside the naming rules or a
/// value that is not finite, so a broken metric never reaches the line.
std::string result_line(bool correct, std::size_t attempted,
                        std::size_t failed,
                        const std::vector<MetricValue>& metrics);

/// JSON string escaping for the fingerprint and result lines.
std::string json_escape(const std::string& s);

}  // namespace perfbench
