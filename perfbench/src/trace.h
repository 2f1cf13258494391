// The benchmark's own layer spans (traced runs only). Spans are recorded
// from the benchmark's files around calls into each layer's public
// functions — evaluate(), run_cooperative_*, the ResultCache operations,
// HomeDataStore::put, ClientCache::get/on_push and UpdateMonitor — never
// from inside src/.
//
// Model:
//  * An op is one request of the workload; every span recorded while it
//    runs carries its op id.
//  * A lane is a thread's stretch of work on behalf of the op: the loop
//    thread for the whole op, plus each cooperative session callback on
//    the fleet's worker threads. Lanes are what the attribution divides
//    by.
//  * A span's self time is its duration minus the time its children on
//    the same thread cover (spans nest by RAII per thread). Waiting inside
//    a call — e.g. the loop thread blocked in run_cooperative_fleet while
//    sessions run — is that call's self time.
//  * Spans on threads without an open lane (engine pool workers issuing
//    ResultCache calls) count towards their layer's calls and self time
//    but not towards the attributed share.
//
// When tracing is off every Span/Lane is a no-op costing one relaxed load.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/core/evaluator.h"

namespace perfbench {

/// Per-layer totals over a set of ops.
struct LayerTotals {
  std::uint64_t calls = 0;
  double self_s = 0.0;
};

/// Aggregate of one op's spans.
struct OpTrace {
  std::map<std::string, LayerTotals> layers;
  double lane_s = 0.0;        ///< summed lane wall
  double attributed_s = 0.0;  ///< lane time inside some layer span
};

/// Collects the current op's spans into an OpTrace as they close; nothing
/// outlives the op.
class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens op `id`: spans opened until end_op() belong to it.
  void begin_op(std::uint64_t id);
  /// Closes the current op and hands back its aggregate.
  OpTrace end_op();

  std::uint64_t current_op() const {
    return op_.load(std::memory_order_relaxed);
  }
  /// Adds a closed span of op `op` (dropped when another op has begun).
  void record(const char* layer, bool lane_root, std::uint64_t op,
              std::int64_t duration_ns, std::int64_t self_ns);

 private:
  Tracer() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> op_{0};
  std::mutex mutex_;
  OpTrace current_;  // guarded by mutex_
};

/// RAII layer span named `layer`.
class Span {
 public:
  explicit Span(const char* layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 protected:
  Span(const char* layer, bool lane_root);

 private:
  const char* layer_ = nullptr;  ///< null when tracing was off at open
  bool lane_root_ = false;
  std::uint64_t op_ = 0;
  std::int64_t start_ns_ = 0;
};

/// RAII lane: a thread's work for the current op (its root is not a layer).
class Lane : public Span {
 public:
  Lane() : Span("lane", /*lane_root=*/true) {}
};

/// Claim outcomes counted across every TimingCache of one op.
struct ClaimCounts {
  std::atomic<std::size_t> claims{0};
  std::atomic<std::size_t> denied{0};
};

/// A timing ResultCache decorator: forwards every call to `inner` inside a
/// darr.<op> span and counts claims and denied claims into `counts`.
class TimingCache final : public coda::ResultCache {
 public:
  TimingCache(coda::ResultCache& inner, ClaimCounts& counts)
      : inner_(inner), counts_(counts) {}

  std::optional<coda::CachedResult> fetch(const std::string& key) override;
  std::vector<std::optional<coda::CachedResult>> fetch_many(
      const std::vector<std::string>& keys) override;
  bool claim(const std::string& key) override;
  void put(const std::string& key, const coda::CachedResult& result) override;
  void release(const std::string& key) override;

 private:
  coda::ResultCache& inner_;
  ClaimCounts& counts_;
};

}  // namespace perfbench
