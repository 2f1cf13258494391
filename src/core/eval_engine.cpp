#include "src/core/eval_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <numeric>
#include <tuple>
#include <utility>

#include "src/core/search_scheduler.h"

#include "src/obs/obs.h"
#include "src/util/thread_pool.h"
#include "src/util/timer_wheel.h"

namespace coda {

namespace {

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

// ---------------------------------------------------------------------------
// PrefixCache

PrefixCache::PrefixCache(std::size_t byte_budget) : budget_(byte_budget) {}

std::shared_ptr<const void> PrefixCache::lookup(const std::string& key) {
  if (!enabled()) return nullptr;
  // One region around the whole lookup (hit and miss paths alike): the
  // profiler's determinism contract forbids regions inside miss-gated
  // branches, whose interleaving is racy under a parallel pool.
  const obs::Region region(obs::region_id<"eval.prefix.lookup">());
  static auto& hit = obs::counter("eval.prefix_cache.hit");
  static auto& miss = obs::counter("eval.prefix_cache.miss");
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    miss.inc();
    obs::prefix_event(/*hit=*/false);  // charged to the fold being scored
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);  // move to front (MRU)
  ++hits_;
  hit.inc();
  obs::prefix_event(/*hit=*/true);
  return it->second.value;
}

void PrefixCache::insert(const std::string& key,
                         std::shared_ptr<const void> value, std::size_t bytes) {
  if (!enabled() || bytes > budget_) return;
  static auto& bytes_gauge = obs::gauge("eval.prefix_cache.bytes");
  std::lock_guard<std::mutex> lock(mutex_);
  if (entries_.count(key) != 0) return;  // a sibling task won the race
  evict_locked(bytes);
  lru_.push_front(key);
  entries_[key] = Entry{std::move(value), bytes, lru_.begin()};
  bytes_ += bytes;
  bytes_gauge.set(static_cast<double>(bytes_));
}

void PrefixCache::evict_locked(std::size_t needed) {
  static auto& evicted = obs::counter("eval.prefix_cache.evicted");
  while (bytes_ + needed > budget_ && !lru_.empty()) {
    auto it = entries_.find(lru_.back());
    bytes_ -= it->second.bytes;
    entries_.erase(it);
    lru_.pop_back();
    ++evictions_;
    evicted.inc();
  }
}

std::size_t PrefixCache::bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

std::size_t PrefixCache::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::uint64_t PrefixCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t PrefixCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::uint64_t PrefixCache::evictions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

// ---------------------------------------------------------------------------
// CooperativeFetch

CooperativeFetch::CooperativeFetch(ResultCache* cache) : cache_(cache) {}

void CooperativeFetch::degrade(const char* op) {
  static auto& darr_degraded = obs::counter("eval.darr_degraded");
  const bool first = !degraded_.exchange(true, std::memory_order_acq_rel);
  darr_degraded.inc();
  obs::counter(std::string("eval.darr_degraded.") + op).inc();
  obs::event(obs::Severity::kError, "eval.darr_degraded", {{"op", op}});
  if (first) {
    // Sticky local-only degradation is the most consequential silent state
    // change in the system — offer the flight-recorder tail when asked.
    obs::flight_dump_if_env(
        std::string("CooperativeFetch degraded to local-only (op: ") + op +
        ")");
  }
}

std::vector<std::optional<CachedResult>> CooperativeFetch::fetch_many(
    const std::vector<std::string>& keys) {
  if (!usable()) {
    return std::vector<std::optional<CachedResult>>(keys.size());
  }
  std::vector<std::optional<CachedResult>> results;
  try {
    results = cache_->fetch_many(keys);
  } catch (const NetworkError&) {
    degrade("fetch_many");
    return std::vector<std::optional<CachedResult>>(keys.size());
  }
  std::uint64_t found = 0;
  for (const auto& r : results) {
    if (r.has_value()) ++found;
  }
  if (found > 0) obs::count_scoped("darr.lookup.hit", found);
  if (found < results.size()) {
    obs::count_scoped("darr.lookup.miss", results.size() - found);
  }
  return results;
}

std::optional<CachedResult> CooperativeFetch::fetch(const std::string& key) {
  if (!usable()) return std::nullopt;
  std::optional<CachedResult> result;
  try {
    result = cache_->fetch(key);
  } catch (const NetworkError&) {
    degrade("fetch");
    return std::nullopt;
  }
  obs::count_scoped(result.has_value() ? "darr.lookup.hit"
                                       : "darr.lookup.miss");
  return result;
}

bool CooperativeFetch::claim(const std::string& key) {
  if (!usable()) return true;
  try {
    return cache_->claim(key);
  } catch (const NetworkError&) {
    // Claim unreachable -> claim it "locally": computing without the global
    // claim risks duplicated work across the partition, never wrong results.
    degrade("claim");
    return true;
  }
}

void CooperativeFetch::put(const std::string& key,
                           const CachedResult& result) {
  if (!usable()) return;
  try {
    cache_->put(key, result);
  } catch (const NetworkError&) {
    degrade("put");
  }
}

void CooperativeFetch::release(const std::string& key) {
  if (!usable()) return;
  try {
    cache_->release(key);
  } catch (const NetworkError&) {
    degrade("release");
  }
}

// ---------------------------------------------------------------------------
// EvalEngine

EvalEngine::EvalEngine(EvalOptions options) : options_(std::move(options)) {
  // Register every family the engine can emit, so exported snapshots (and
  // the --metrics-json smoke checks) list them even for runs that never
  // increment one — e.g. darr.* without a cache, prefix_cache.* when
  // memoization is disabled.
  obs::counter("darr.lookup.hit");
  obs::counter("darr.lookup.miss");
  obs::counter("evaluator.candidate.local");
  obs::counter("evaluator.candidate.cached");
  obs::counter("evaluator.candidate.failed");
  obs::counter("evaluator.candidate.deferred");
  obs::counter("eval.prefix_cache.hit");
  obs::counter("eval.prefix_cache.miss");
  obs::counter("eval.prefix_cache.evicted");
  obs::counter("eval.claim.requeued");
  obs::counter("eval.plan.compiled");
  obs::counter("eval.plan.fused_stages");
  obs::counter("eval.plan.fallback");
  obs::counter("eval.darr_degraded");
  obs::counter("eval.search.rungs");
  obs::counter("eval.search.pruned");
  obs::counter("eval.search.fold_evals_saved");
  obs::counter("eval.candidate.folds");
  obs::counter("eval.candidate.cached");
  obs::counter("obs.trace.recorded");
  obs::counter("obs.trace.dropped");
  obs::counter("prof.scopes");
  obs::counter("pool.tasks");
  obs::counter("timerwheel.scheduled");
  obs::counter("timerwheel.fired");
  obs::gauge("eval.prefix_cache.bytes");
  obs::gauge("pool.queue_depth");
  obs::gauge("pool.utilization");
  obs::gauge("timerwheel.outstanding");
  obs::histogram("evaluator.candidate.seconds");
  obs::histogram("evaluator.claim.wait_seconds");
  obs::histogram("cv.fold.seconds");
  obs::histogram("pool.queue_wait_seconds");
  obs::histogram("pool.task_seconds");
  obs::histogram("timerwheel.fire_lag_seconds");
}

EvaluationReport EvalEngine::run(std::vector<Candidate> candidates,
                                 std::size_t n_folds) const {
  require(!candidates.empty(), "EvalEngine: no candidates");
  require(n_folds > 0, "EvalEngine: need at least one fold");
  obs::Region run_region(obs::region_id<"eval.run">(), obs::kTraced);
  // Captured for pool/wheel tasks: thread-local parenting does not cross a
  // submit(), so every task re-installs the root context (and the node
  // attribution of the simulated client driving this run) via ContextScope.
  const obs::TraceContext root_ctx = run_region.context();
  const std::string root_node = obs::Tracer::current_node();

  // Candidate-level events write through count_scoped()/observe_scoped():
  // the process-wide family plus (when this run is driven by a simulated
  // client under obs::NodeScope / ContextScope) that node's MetricScope,
  // so fleet telemetry can attribute work to individual clients. These
  // fire once per candidate/fold, not per row — the name lookup is cheap
  // relative to the work they account.

  // One racing loop runs every search (DESIGN.md §16): exhaustive search is
  // the one-rung plan, halving adds racing rungs in front of the final one.
  const std::size_t n = candidates.size();
  const SearchOptions& search = options_.search;
  const HalvingPlan plan = search.strategy == SearchStrategy::kHalving
                               ? HalvingPlan::build(n, n_folds, search.eta)
                               : HalvingPlan::exhaustive(n, n_folds);
  // A lone rung spans every fold, so its units claim and publish the plain
  // base key — the key the initial sweep fetches.
  const bool single_rung = plan.rungs.size() == 1;
  const std::vector<std::size_t> tie_rank = tournament_ranks(n, search.seed);
  const bool maximize = higher_is_better(options_.metric);

  // The saving is a property of the plan, not the schedule — count it once
  // up front so it is identical on every client and under every chaos
  // interleaving.
  const std::size_t saved =
      plan.exhaustive_fold_evals() - plan.total_fold_evals();
  if (saved > 0) obs::count_scoped("eval.search.fold_evals_saved", saved);

  EvaluationReport report;
  report.metric = options_.metric;
  report.results.resize(n);
  for (std::size_t i = 0; i < n; ++i) report.results[i].spec = candidates[i].spec;
  report.fold_evaluations_planned = plan.total_fold_evals();
  report.rungs = plan.rungs.size();

  // Racing state per candidate. Non-atomic fields are guarded by `mutex`
  // except those only touched by the candidate's own attempt chain
  // (attempts for one unit never overlap — each is scheduled by its
  // predecessor's requeue, and a candidate runs one rung at a time).
  struct Cand {
    std::vector<double> fold_scores;  ///< valid prefix [0, folds_known)
    std::size_t folds_known = 0;
    bool swept = false;         ///< full result served by the initial sweep
    bool computed_any = false;  ///< scored at least one fold locally
    int pruned_at = -1;
    double compute_seconds = 0.0;
    obs::FoldCost cost;  ///< summed over the locally scored folds
    double claim_wait = 0.0;
    std::atomic<bool> failed{false};
    std::string failure_message;
    // Current-rung unit state.
    bool holds_token = false;   ///< occupies a slot of the claim window
    bool deferred = false;      ///< claim-blocked, parked on the wheel
    bool was_deferred = false;  ///< counter guard (once per candidate)
    bool deadline_set = false;
    std::chrono::steady_clock::time_point block_start{};
    std::chrono::steady_clock::time_point deadline{};
    std::atomic<std::size_t> folds_left{0};
  };
  std::vector<std::unique_ptr<Cand>> cands(n);
  for (std::size_t i = 0; i < n; ++i) {
    cands[i] = std::make_unique<Cand>();
    cands[i]->fold_scores.assign(n_folds, 0.0);
  }

  // Process-wide only (no per-node scope), so fleet telemetry bytes do not
  // depend on them.
  static auto& folds_metric = obs::counter("eval.candidate.folds");
  static auto& cached_metric = obs::counter("eval.candidate.cached");

  // Initial sweep: one batched lookup of the plain base keys answers every
  // candidate any client already finished (a peer, an earlier run, or a
  // completed halving search) before any scheduling machinery spins up. A
  // swept candidate still ranks in every rung via its full fold scores,
  // which can only sharpen prune decisions. Only a full-CV result counts:
  // a hit with the wrong fold count is ignored and recomputed.
  CooperativeFetch coop(options_.cache);
  std::atomic<std::size_t> local_fold_evals{0};
  std::size_t remaining = n;  ///< candidates the sweep did not answer
  if (coop.cooperative()) {
    obs::Region sweep_region(obs::region_id<"eval.sweep">());
    std::vector<std::string> keys;
    keys.reserve(n);
    for (const auto& c : candidates) keys.push_back(c.key);
    const auto hits = coop.fetch_many(keys);
    const double per_key = sweep_region.stop() / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (!hits[i].has_value() || hits[i]->fold_scores.size() != n_folds) {
        continue;
      }
      Cand& c = *cands[i];
      c.swept = true;
      c.fold_scores = hits[i]->fold_scores;
      c.folds_known = n_folds;
      --remaining;
      CandidateResult& out = report.results[i];
      out.mean_score = hits[i]->mean_score;
      out.stddev = hits[i]->stddev;
      out.fold_scores = hits[i]->fold_scores;
      out.from_cache = true;
      out.eval_seconds = per_key;
      obs::count_scoped("evaluator.candidate.cached");
      cached_metric.inc();
    }
  }

  PrefixCache prefixes(options_.prefix_cache_bytes);

  std::mutex mutex;
  std::condition_variable done_cv;
  bool all_done = false;
  std::size_t rung_index = 0;
  std::vector<std::size_t> entrants(n);
  std::iota(entrants.begin(), entrants.end(), std::size_t{0});
  std::size_t outstanding = 0;  ///< unresolved units in the current rung
  // Unresolved units not claim-blocked — i.e. local work still exists. A
  // blocked unit's local-compute deadline only starts once this reaches
  // zero: while peers make progress AND we still have other units to
  // score, waiting costs nothing (no worker parks).
  std::size_t unblocked = 0;
  std::deque<std::size_t> unit_queue;
  std::size_t pruned_total = 0;

  // Cooperative key of candidate i's unit in rung r.
  auto unit_key = [&](std::size_t i, std::size_t r) {
    return single_rung ? candidates[i].key
                       : rung_key(candidates[i].key, search, r);
  };

  // Mean over the candidate's known fold prefix, truncated to `fold_end`.
  // Caller holds `mutex`.
  auto partial_mean = [&](std::size_t i, std::size_t fold_end) {
    const Cand& c = *cands[i];
    const std::size_t k = std::min(fold_end, c.folds_known);
    if (k == 0) return 0.0;
    double sum = 0.0;
    for (std::size_t f = 0; f < k; ++f) sum += c.fold_scores[f];
    return sum / static_cast<double>(k);
  };

  // Declared before the pool/wheel (and assigned after) so they are
  // destroyed only once the pool has joined its workers — a worker is
  // always inside one of these callables while it runs engine work.
  std::function<void()> dispatch_locked;
  std::function<void(std::size_t)> attempt;
  std::function<void(std::size_t, std::size_t, std::size_t)> run_fold;
  std::function<void(std::size_t, std::size_t)> finish_unit;
  std::function<void(std::size_t)> unit_done;
  std::function<void(std::size_t)> finalize_locked;
  std::function<void()> seal_locked;
  std::function<void()> start_rung_locked;
  // Claim window: at most pool.size() units are claimed-but-unfinished at
  // once, so a client claims work just before it has the capacity to score
  // it — claiming the whole graph up front would starve cooperating peers.
  std::size_t tokens = 0;

  // Spun up only when the sweep left something to score. `wheel` is
  // declared last, so it is destroyed first and can no longer re-submit
  // into `pool`.
  struct Workers {
    explicit Workers(std::size_t threads) : pool(threads) {}
    ThreadPool pool;
    TimerWheel wheel;
  };
  std::optional<Workers> workers;

  // Pops queued units while window slots are free. Caller holds `mutex`.
  dispatch_locked = [&] {
    while (tokens > 0 && !unit_queue.empty()) {
      const std::size_t i = unit_queue.front();
      unit_queue.pop_front();
      --tokens;
      cands[i]->holds_token = true;
      workers->pool.submit([&attempt, i, root_ctx, root_node] {
        obs::ContextScope trace_scope(root_ctx, root_node);
        attempt(i);
      });
    }
  };

  // Copies the candidate's racing state into its report row. Caller holds
  // `mutex`. Swept candidates were finalized at the sweep and are skipped.
  finalize_locked = [&](std::size_t i) {
    Cand& c = *cands[i];
    if (c.swept) return;
    CandidateResult& out = report.results[i];
    out.claim_wait_seconds = c.claim_wait;
    out.eval_seconds = c.compute_seconds;
    out.prepare_seconds = c.cost.prepare_seconds;
    out.fit_seconds = c.cost.fit_seconds;
    out.score_seconds = c.cost.score_seconds;
    out.prefix_hits = c.cost.prefix_hits;
    out.prefix_misses = c.cost.prefix_misses;
    out.pruned_at_rung = c.pruned_at;
    if (c.failed.load(std::memory_order_acquire)) {
      out.failed = true;
      out.failure_message = c.failure_message;
      obs::count_scoped("evaluator.candidate.failed");
      return;
    }
    const std::size_t k = c.folds_known;
    out.fold_scores.assign(c.fold_scores.begin(),
                           c.fold_scores.begin() + static_cast<std::ptrdiff_t>(k));
    std::tie(out.mean_score, out.stddev) = mean_stddev(out.fold_scores);
    if (c.computed_any) {
      obs::count_scoped("evaluator.candidate.local");
      obs::observe_scoped("evaluator.candidate.seconds", out.eval_seconds);
    } else if (coop.cooperative()) {
      // Every rung segment arrived from peers.
      out.from_cache = true;
      obs::count_scoped("evaluator.candidate.cached");
      cached_metric.inc();
    }
    // A candidate that completed the full fold set over racing rungs
    // republishes under its plain base key, so exhaustive peers and future
    // runs hit the sweep instead of re-racing (the repository's store is
    // idempotent for the bit-identical value every client assembles). A
    // single rung already published the base key when its folds landed.
    if (!single_rung && k == n_folds && coop.cooperative() &&
        !candidates[i].key.empty()) {
      coop.put(candidates[i].key,
               CachedResult{out.mean_score, out.stddev, out.fold_scores,
                            candidates[i].spec});
    }
  };

  // Rank-and-prune seal (DESIGN.md §16): runs exactly once per rung, when
  // its last unit resolves. Ranking is a pure function of fold scores,
  // enumeration order and the seeded tournament permutation — no schedule
  // state — so every cooperating client seals identically. Caller holds
  // `mutex`.
  seal_locked = [&] {
    const obs::Region region(obs::region_id<"eval.search.seal">());
    obs::count_scoped("eval.search.rungs");
    const RungSpec& rung = plan.rungs[rung_index];
    const bool final_rung = rung_index + 1 == plan.rungs.size();
    if (final_rung) {
      for (const std::size_t i : entrants) finalize_locked(i);
      all_done = true;
      done_cv.notify_all();
      return;
    }
    std::vector<std::size_t> order = entrants;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const bool fa = cands[a]->failed.load(std::memory_order_acquire);
      const bool fb = cands[b]->failed.load(std::memory_order_acquire);
      if (fa != fb) return !fa;  // failed candidates rank strictly last
      if (!fa) {
        const double sa = partial_mean(a, rung.fold_end);
        const double sb = partial_mean(b, rung.fold_end);
        if (sa != sb) return maximize ? sa > sb : sa < sb;
      }
      return tie_rank[a] < tie_rank[b];
    });
    const std::size_t keep = plan.rungs[rung_index + 1].entrants;
    for (std::size_t pos = keep; pos < order.size(); ++pos) {
      const std::size_t i = order[pos];
      Cand& c = *cands[i];
      // Every cut entrant is pruned at this rung — including failed ones
      // (ranked strictly last): the rung records where the race dropped
      // them. Swept candidates keep their full-CV row untouched.
      if (!c.swept) {
        c.pruned_at = static_cast<int>(rung_index);
        obs::count_scoped("eval.search.pruned");
        ++pruned_total;
      }
      finalize_locked(i);
    }
    // Promote in rank order: the current best candidates queue first
    // (GraphLab-style prioritized continuation).
    order.resize(keep);
    entrants = std::move(order);
    ++rung_index;
    start_rung_locked();
  };

  // Submits the current rung's unresolved units. Caller holds `mutex`.
  start_rung_locked = [&] {
    const RungSpec& rung = plan.rungs[rung_index];
    outstanding = 0;
    unit_queue.clear();
    for (const std::size_t i : entrants) {
      Cand& c = *cands[i];
      if (c.failed.load(std::memory_order_acquire) ||
          c.folds_known >= rung.fold_end) {
        continue;  // already resolved (failed earlier, swept, or cached)
      }
      c.deferred = false;
      c.deadline_set = false;
      ++outstanding;
      unit_queue.push_back(i);
    }
    unblocked = outstanding;
    if (outstanding == 0) {
      seal_locked();
      return;
    }
    dispatch_locked();
  };

  // A unit resolved (computed, adopted from a peer, or failed): release
  // its window slot, let queued units in, and seal the rung when it was
  // the last one out.
  unit_done = [&](std::size_t i) {
    std::lock_guard<std::mutex> lock(mutex);
    Cand& c = *cands[i];
    if (!c.deferred) --unblocked;  // deferred units already left
    c.deferred = false;
    if (c.holds_token) {
      c.holds_token = false;
      ++tokens;
    }
    --outstanding;
    dispatch_locked();
    if (outstanding == 0) seal_locked();
  };

  // All of the unit's folds are in (or it failed): publish/release the
  // unit's key, commit folds_known, resolve the unit.
  finish_unit = [&](std::size_t i, std::size_t r) {
    Cand& c = *cands[i];
    const RungSpec& rung = plan.rungs[r];
    const std::string key = unit_key(i, r);
    const bool failed = c.failed.load(std::memory_order_acquire);
    if (coop.cooperative() && !key.empty()) {
      if (failed) {
        coop.release(key);
      } else {
        CachedResult segment;
        segment.fold_scores.assign(
            c.fold_scores.begin() + static_cast<std::ptrdiff_t>(rung.fold_begin),
            c.fold_scores.begin() + static_cast<std::ptrdiff_t>(rung.fold_end));
        std::tie(segment.mean_score, segment.stddev) =
            mean_stddev(segment.fold_scores);
        segment.explanation = candidates[i].spec;
        coop.put(key, segment);
      }
    }
    if (!failed) {
      std::lock_guard<std::mutex> lock(mutex);
      c.folds_known = rung.fold_end;
      c.computed_any = true;
    }
    unit_done(i);
  };

  run_fold = [&](std::size_t i, std::size_t fold, std::size_t r) {
    Cand& c = *cands[i];
    // A sibling fold already failed the candidate: skip the work, just
    // balance the countdown.
    if (!c.failed.load(std::memory_order_acquire)) {
      obs::Region fold_region(obs::region_id<"eval.fold">(), obs::kTraced);
      fold_region.tag("path", candidates[i].spec);
      fold_region.tag("fold", std::to_string(fold));
      fold_region.tag("rung", std::to_string(r));
      // The fold phases and PrefixCache lookups inside score_fold charge
      // this fold-local accumulator; it joins the candidate's row below.
      obs::FoldCost cost;
      const obs::FoldCostScope cost_scope(cost);
      try {
        c.fold_scores[fold] = candidates[i].score_fold(fold, prefixes);
        const double elapsed = fold_region.stop();
        obs::observe_scoped("cv.fold.seconds", elapsed);
        folds_metric.inc();
        local_fold_evals.fetch_add(1, std::memory_order_acq_rel);
        std::lock_guard<std::mutex> lock(mutex);
        c.compute_seconds += elapsed;
        c.cost += cost;
      } catch (const std::exception& e) {
        bool expected = false;
        if (c.failed.compare_exchange_strong(expected, true,
                                             std::memory_order_acq_rel)) {
          std::lock_guard<std::mutex> lock(mutex);
          c.failure_message = e.what();
        }
      }
    }
    if (c.folds_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      finish_unit(i, r);
    }
  };

  attempt = [&](std::size_t i) {
    Cand& c = *cands[i];
    std::size_t r;
    bool retry;
    {
      std::lock_guard<std::mutex> lock(mutex);
      r = rung_index;
      retry = c.deferred;
    }
    const RungSpec& rung = plan.rungs[r];
    // One span per scheduling attempt, parented under the run's root via
    // the ContextScope the submitting task installed. Cooperative calls
    // and fold tasks all descend from it.
    obs::Region attempt_region(obs::region_id<"eval.candidate">(),
                               obs::kTraced);
    attempt_region.tag("path", candidates[i].spec);
    attempt_region.tag("rung", std::to_string(r));
    if (retry) attempt_region.tag("retry", "1");
    const std::string key = unit_key(i, r);
    if (coop.cooperative() && !key.empty()) {
      // Adopt a published result if one exists: on a retry it is the peer
      // whose claim deferred us finishing; on a racing rung's first attempt
      // it is a segment left by an earlier run — rung keys are invisible to
      // the base-key sweep, so they must be probed here before claiming. A
      // single rung's first attempt skips the probe: the sweep asked.
      std::optional<CachedResult> hit;
      if (retry || !single_rung) hit = coop.fetch(key);
      if (hit) {
        bool adopted = false;
        double wait = -1.0;
        {
          std::lock_guard<std::mutex> lock(mutex);
          const std::size_t want = rung.folds();
          // A malformed result (foreign publisher) is ignored — the claim
          // cycle below falls through to local compute.
          if (hit->fold_scores.size() == want) {
            for (std::size_t f = 0; f < want; ++f) {
              c.fold_scores[rung.fold_begin + f] = hit->fold_scores[f];
            }
            c.folds_known = rung.fold_end;
            adopted = true;
            if (retry) {
              wait = seconds_between(c.block_start,
                                     std::chrono::steady_clock::now());
              c.claim_wait += wait;
            }
          }
        }
        if (adopted) {
          if (wait >= 0.0) {
            obs::observe_scoped("evaluator.claim.wait_seconds", wait);
          }
          unit_done(i);
          return;
        }
      }
      if (!coop.claim(key)) {
        // Claim-blocked: park the unit on the timer wheel and let the
        // workers keep scoring other units. No thread sleeps here.
        std::lock_guard<std::mutex> lock(mutex);
        const auto block_now = std::chrono::steady_clock::now();
        if (!c.deferred) {
          c.deferred = true;
          c.block_start = block_now;
          --unblocked;
          if (c.holds_token) {
            c.holds_token = false;
            ++tokens;
            dispatch_locked();
          }
          if (!c.was_deferred) {
            c.was_deferred = true;
            obs::count_scoped("evaluator.candidate.deferred");
          }
        }
        const bool expired = c.deadline_set && block_now >= c.deadline;
        if (!expired) {
          if (!c.deadline_set && unblocked == 0) {
            // No local work left to hide the wait behind — start the
            // local-compute deadline (peer-failure safety net). With every
            // unit of the rung blocked, the seal cannot happen until
            // somebody's result lands or this deadline fires.
            c.deadline_set = true;
            c.deadline = block_now + std::chrono::milliseconds(
                                         options_.claim_wait_ms);
          }
          obs::count_scoped("eval.claim.requeued");
          workers->wheel.schedule(
              std::chrono::milliseconds(options_.claim_poll_ms),
              [&workers, &attempt, i, root_ctx, root_node] {
                workers->pool.submit([&attempt, i, root_ctx, root_node] {
                  obs::ContextScope trace_scope(root_ctx, root_node);
                  attempt(i);
                });
              });
          return;
        }
        // Deadline expired without a stored result or a winnable claim:
        // the peer presumably died. Compute locally without the claim so
        // the rung always seals.
      }
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (c.deferred) {
          c.deferred = false;
          ++unblocked;
          const double wait = seconds_between(
              c.block_start, std::chrono::steady_clock::now());
          c.claim_wait += wait;
          obs::observe_scoped("evaluator.claim.wait_seconds", wait);
        }
      }
    }
    // Fan out one task per fold of the unit (a single fold on racing rungs,
    // every remaining fold on the final rung), so a slow candidate's folds
    // spread over the workers instead of serializing at the tail of the
    // run. Fold tasks parent under this attempt's span (which may close
    // first — parent links are ids, not lifetimes).
    const obs::TraceContext fold_ctx = attempt_region.context();
    c.folds_left.store(rung.folds(), std::memory_order_release);
    for (std::size_t fold = rung.fold_begin; fold < rung.fold_end; ++fold) {
      workers->pool.submit([&run_fold, i, fold, r, fold_ctx, root_node] {
        obs::ContextScope trace_scope(fold_ctx, root_node);
        run_fold(i, fold, r);
      });
    }
  };

  // A run the sweep answered whole has nothing to race: it spins up no
  // workers and seals no rung, so a fleet of peers served from the DARR
  // pays for one fetch_many each and nothing more.
  if (remaining > 0) {
    workers.emplace(options_.threads);
    tokens = workers->pool.size();
    {
      std::lock_guard<std::mutex> lock(mutex);
      start_rung_locked();
    }
    std::unique_lock<std::mutex> lock(mutex);
    done_cv.wait(lock, [&] { return all_done; });
  }
  // With the final rung sealed neither `pool` nor `wheel` holds engine
  // work.

  report.fold_evaluations = local_fold_evals.load(std::memory_order_acquire);
  report.pruned_candidates = pruned_total;

  // Best = best full-CV, non-failed candidate (survivors of the final
  // rung plus anything served whole from the cooperative cache). Pruned
  // candidates carry partial scores and are not eligible. Order-stable:
  // the earlier candidate wins ties.
  bool found = false;
  for (std::size_t i = 0; i < n; ++i) {
    const CandidateResult& res = report.results[i];
    report.total_claim_wait_seconds += res.claim_wait_seconds;
    if (res.failed) continue;
    if (res.from_cache) {
      ++report.served_from_cache;
    } else {
      ++report.evaluated_locally;
    }
    if (res.fold_scores.size() != n_folds) continue;  // pruned: partial CV
    if (!found) {
      report.best_index = i;
      found = true;
      continue;
    }
    const CandidateResult& best = report.results[report.best_index];
    const bool better = maximize ? res.mean_score > best.mean_score
                                 : res.mean_score < best.mean_score;
    if (better) report.best_index = i;
  }
  require_state(found, "EvalEngine: every candidate failed");
  report.total_seconds = run_region.stop();
  return report;
}

}  // namespace coda
