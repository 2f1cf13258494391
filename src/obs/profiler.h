// Always-on region profiler (observability layer, DESIGN.md §15) and the
// one instrumentation primitive, obs::Region: a RAII interval that reads
// the steady clock once when it opens and once when it closes, and feeds
// that pair to the profiler path node, to a span of the same name when
// traced (trace.h), to the installed FoldCost when it is a fold phase,
// and to the caller through stop(). The hot path takes no lock: two clock
// reads plus a few relaxed atomic operations on a per-thread call-path
// arena, which returns to a free list when its thread exits. Arenas are
// merged at export time into
//   * folded-stack ("collapsed") text consumable by flamegraph.pl /
//     speedscope — the `--profile-folded` bench flag and the
//     CODA_PROFILE_DUMP environment variable both emit it;
//   * a flat per-region table (the `coda_top` view, the one hot-path
//     view) with self time, derived kernel GF/s, and deterministic
//     (calls desc, name) ranking;
//   * merged_paths(), the call paths keyed by node, which is the one
//     copy of each client's profile (no metric mirrors it).
//
// Node attribution: a top-level region keys its call tree by the thread's
// ambient obs::Tracer::current_node() (maintained by NodeScope /
// ContextScope), so one process running many simulated clients keeps one
// profile per client. Nested regions inherit the root's node.
//
// Determinism rules (DESIGN.md §15): regions wrap whole phases
// (lookup-plus-maybe-compute), never cache-miss-gated branches, so the
// region set and call counts of a seeded run are reproducible while the
// recorded times vary. Exports iterate sorted and rank by (calls desc,
// name asc) — never by time.
//
// Thread safety: a PathNode's calls/total_ns are written only by the
// owning thread (relaxed load+store, no RMW); exporters read them
// relaxed. Tree edges are published via an atomic sibling list
// (store-release by the owner, load-acquire by readers). reset() is only
// safe while no regions are live — the same contract as Tracer::clear().
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/obs/trace.h"

namespace coda::obs::prof {

/// Interned region identifier; stable for the process lifetime.
using RegionId = std::uint32_t;

/// Interns `name` (idempotent) and returns its id. Call sites reach it
/// through region_id<"name">(), which interns once per name.
RegionId intern(const std::string& name);

/// The name behind an interned id (throws InvalidArgument on unknown id).
const std::string& region_name(RegionId id);

/// A string literal usable as a template argument: region_id<"eval.run">.
template <std::size_t N>
struct RegionName {
  constexpr RegionName(const char (&name)[N]) { std::copy_n(name, N, chars); }
  char chars[N];
};

/// One merged root→leaf call path, aggregated over every thread arena.
struct PathStat {
  std::string node;               ///< "" = the ambient process
  std::vector<std::string> path;  ///< region names, root first
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;  ///< wall time inside the leaf region
  std::uint64_t self_ns = 0;   ///< total minus time in child regions
};

/// One merged flat region row (summed over paths, threads, and nodes).
/// total_ns assumes non-recursive regions: a region nested under itself
/// would double-count total (self_ns stays exact either way).
struct RegionStat {
  std::string name;
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

/// Every call path with calls > 0, merged across threads, sorted by
/// (node, path) — byte-deterministic ordering for seeded runs.
std::vector<PathStat> merged_paths();

/// Flat per-region rollup of merged_paths(), ranked by (calls desc, name
/// asc) — the deterministic hot-path ordering (DESIGN.md §15).
std::vector<RegionStat> region_table();

/// Folded-stack ("collapsed") text: one line per call path,
/// "node;root;child;leaf self_ns" (the node frame is omitted for the
/// ambient ""), sorted by stack. Zero-self paths are kept as long as they
/// were called, so the stack *set* of a seeded run is deterministic even
/// though the sample values are wall-clock times.
std::string folded();

/// Writes folded() to `path` (throws coda::Error on I/O error).
void write_folded(const std::string& path);

/// Human-readable `coda_top` view: the top `max_rows` regions by
/// (calls desc, name), with calls, self/total time, and — when the
/// kernel.gemm.{flops,seconds} metrics are non-empty — the derived
/// GEMM GF/s line.
std::string report(std::size_t max_rows = 24);

/// True when no region has any recorded calls (e.g. right after reset()).
bool empty();

/// Zeroes every accumulator; the interned regions and arena structure
/// survive (references stay valid). Only safe while no Region is live on
/// another thread. obs::reset_all() calls this.
void reset();

/// Arenas allocated so far. A thread's arena returns to a free list when
/// the thread exits and the next new thread reuses it, so this is bounded
/// by the peak count of live profiling threads (tests use it).
std::size_t arena_count();

}  // namespace coda::obs::prof

namespace coda::obs {

/// The interned id of region `Name`, held in a function-local static so
/// the hot path never takes the intern mutex.
template <prof::RegionName Name>
prof::RegionId region_id() {
  static const prof::RegionId id = prof::intern(Name.chars);
  return id;
}

/// A fold phase, profiled as eval.fold.{prepare,fit,score}.
enum class Phase : std::uint8_t { kPrepare = 0, kFit = 1, kScore = 2 };

/// One fold's phase seconds and prefix-cache traffic. While a FoldCostScope
/// installs one on a thread, every Region(Phase) closing there and every
/// PrefixCache lookup made there adds to it; with none installed nothing
/// is charged. The engine folds it into the candidate's CandidateResult.
struct FoldCost {
  double prepare_seconds = 0.0;
  double fit_seconds = 0.0;
  double score_seconds = 0.0;
  std::uint64_t prefix_hits = 0;
  std::uint64_t prefix_misses = 0;

  FoldCost& operator+=(const FoldCost& other);
};

/// Installs `cost` as the calling thread's FoldCost for the scope's life.
class FoldCostScope {
 public:
  explicit FoldCostScope(FoldCost& cost);
  ~FoldCostScope();

  FoldCostScope(const FoldCostScope&) = delete;
  FoldCostScope& operator=(const FoldCostScope&) = delete;

 private:
  FoldCost* prev_;
};

/// Charges a prefix-cache hit or miss to the installed FoldCost, if any.
void prefix_event(bool hit);

/// Selects the traced Region constructor.
inline constexpr struct Traced {} kTraced;

/// One timed interval on the calling thread (see the file comment), e.g.
///   obs::Region fold(obs::region_id<"eval.fold">(), obs::kTraced);
/// Open and close on the same thread, innermost first.
class Region {
 public:
  /// Profiled only.
  explicit Region(prof::RegionId region);
  /// Profiled and traced under the ambient context.
  Region(prof::RegionId region, Traced);
  /// A fold phase: profiled as eval.fold.{prepare,fit,score} and charged
  /// to the installed FoldCost (none when no FoldCostScope is live).
  explicit Region(Phase phase);
  ~Region() { stop(); }

  Region(const Region&) = delete;
  Region& operator=(const Region&) = delete;

  /// Closes the interval (first call only) and returns its seconds.
  double stop();

  /// The span's tag() and context(), on a traced region only (throws
  /// std::bad_optional_access otherwise).
  void tag(std::string key, std::string value);
  TraceContext context() const;

 private:
  using Clock = std::chrono::steady_clock;

  void open(prof::RegionId region, bool traced);

  void* node_ = nullptr;  // prof PathNode* of this region
  void* prev_ = nullptr;  // PathNode* of the enclosing region (may be null)
  std::optional<ScopedSpan> span_;
  std::optional<Phase> phase_;
  Clock::time_point start_;
  std::optional<double> seconds_;  // set once closed
};

}  // namespace coda::obs
