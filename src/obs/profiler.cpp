#include "src/obs/profiler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/error.h"

namespace coda::obs::prof {

namespace {

// ---------------------------------------------------------------------------
// Region interning. Names live in a deque so region_name() references stay
// valid forever; the mutex is only taken at intern time (once per name,
// via the region_id<> function-local static) and at lookup.

struct Regions {
  std::mutex mutex;
  std::unordered_map<std::string, RegionId> ids;
  std::deque<std::string> names;  // index == RegionId
};

Regions& regions() {
  static Regions* r = new Regions();  // leaked: outlives arena teardown
  return *r;
}

// ---------------------------------------------------------------------------
// Per-thread call-path tries. Every PathNode belongs to exactly one arena
// and is *mutated* only by that arena's owning thread; the atomics exist
// so exporters on other threads can read without locks:
//   * calls / total_ns: owner does relaxed load+store (no RMW needed —
//     single writer), readers load relaxed. Counts are monotone, so a
//     racy read is merely slightly stale, never torn.
//   * first_child / the arena's first_root: owner publishes a fully
//     constructed node with store-release; readers walk with
//     load-acquire. next_sibling is written before the release store and
//     immutable afterwards.

struct PathNode {
  PathNode(RegionId r, std::string node, PathNode* p)
      : region(r), name(region_name(r)), node_name(std::move(node)),
        parent(p) {}

  const RegionId region;
  const std::string& name;      // region_name(region), resolved once
  const std::string node_name;  // roots: ambient node attribution; else ""
  PathNode* const parent;       // nullptr for roots

  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> total_ns{0};

  std::atomic<PathNode*> first_child{nullptr};
  PathNode* next_sibling = nullptr;
};

struct ThreadArena {
  std::atomic<PathNode*> first_root{nullptr};
  // Owner-private: root lookup by (node attribution, region). Exporters
  // never touch it — they walk the atomic links instead.
  std::map<std::pair<std::string, RegionId>, PathNode*> root_index;
  std::deque<PathNode> owned;  // owner-only append; nodes never move
};

struct Arenas {
  std::mutex mutex;                // guards both lists
  std::deque<ThreadArena> list;    // arenas live for the process
  std::vector<ThreadArena*> free;  // arenas of exited threads
};

Arenas& arenas() {
  static Arenas* a = new Arenas();  // leaked: threads may outlive main
  return *a;
}

// Trivially destructible, so the hot path reads it without a TLS guard.
struct ThreadState {
  ThreadArena* arena = nullptr;
  PathNode* current = nullptr;
};

thread_local ThreadState t_state;

// Hands the thread's arena back to the free list at thread exit. Its
// totals stay in place for the exporters, and the mutex orders the old
// owner's last writes before the next owner's first.
struct ArenaLease {
  ThreadArena* arena = nullptr;

  ~ArenaLease() {
    if (arena == nullptr) return;
    Arenas& a = arenas();
    std::lock_guard<std::mutex> lock(a.mutex);
    a.free.push_back(arena);
    t_state = ThreadState{};
  }
};

thread_local ArenaLease t_lease;

ThreadArena& acquire_arena() {
  if (t_state.arena == nullptr) {
    Arenas& a = arenas();
    std::lock_guard<std::mutex> lock(a.mutex);
    if (a.free.empty()) {
      t_state.arena = &a.list.emplace_back();
    } else {
      t_state.arena = a.free.back();
      a.free.pop_back();
    }
    t_lease.arena = t_state.arena;
  }
  return *t_state.arena;
}

PathNode* find_child(PathNode* parent, RegionId region) {
  for (PathNode* c = parent->first_child.load(std::memory_order_acquire);
       c != nullptr; c = c->next_sibling) {
    if (c->region == region) return c;
  }
  return nullptr;
}

// Owner-only: appends a child and publishes it for concurrent readers.
PathNode* add_child(ThreadArena& arena, PathNode* parent, RegionId region) {
  arena.owned.emplace_back(region, std::string(), parent);
  PathNode* node = &arena.owned.back();
  node->next_sibling = parent->first_child.load(std::memory_order_relaxed);
  parent->first_child.store(node, std::memory_order_release);
  return node;
}

PathNode* root_for(ThreadArena& arena, const std::string& node_name,
                   RegionId region) {
  const auto key = std::make_pair(node_name, region);
  const auto it = arena.root_index.find(key);
  if (it != arena.root_index.end()) return it->second;
  arena.owned.emplace_back(region, node_name, nullptr);
  PathNode* node = &arena.owned.back();
  node->next_sibling = arena.first_root.load(std::memory_order_relaxed);
  arena.first_root.store(node, std::memory_order_release);
  arena.root_index.emplace(key, node);
  return node;
}

// ---------------------------------------------------------------------------
// Export-side tree walking. Snapshots are approximate under concurrent
// mutation (a racing region lands wholly in the next snapshot); at quiesced
// points (bench export, test assertions) they are exact.

template <typename Fn>
void for_each_node(const ThreadArena& arena, Fn&& fn) {
  // Iterative DFS; `fn(root, node)` for every published node.
  for (PathNode* root = arena.first_root.load(std::memory_order_acquire);
       root != nullptr; root = root->next_sibling) {
    std::vector<PathNode*> stack{root};
    while (!stack.empty()) {
      PathNode* node = stack.back();
      stack.pop_back();
      fn(root, node);
      for (PathNode* c = node->first_child.load(std::memory_order_acquire);
           c != nullptr; c = c->next_sibling) {
        stack.push_back(c);
      }
    }
  }
}

std::uint64_t children_total_ns(const PathNode& node) {
  std::uint64_t sum = 0;
  for (PathNode* c = node.first_child.load(std::memory_order_acquire);
       c != nullptr; c = c->next_sibling) {
    sum += c->total_ns.load(std::memory_order_relaxed);
  }
  return sum;
}

// Self time of one PathNode, clamped at zero: while a region is live its
// time has not yet landed in the parent's total, so a mid-flight snapshot
// can transiently observe children > parent.
std::uint64_t self_ns_of(const PathNode& node) {
  const std::uint64_t total = node.total_ns.load(std::memory_order_relaxed);
  const std::uint64_t children = children_total_ns(node);
  return total > children ? total - children : 0;
}

std::vector<std::string> path_names(const PathNode& leaf) {
  std::vector<std::string> names;
  for (const PathNode* n = &leaf; n != nullptr; n = n->parent) {
    names.push_back(n->name);
  }
  std::reverse(names.begin(), names.end());
  return names;
}

std::string format_seconds(double s) {
  char buf[32];
  if (s >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.3fs", s);
  } else if (s >= 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.3fms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fus", s * 1e6);
  }
  return buf;
}

}  // namespace

RegionId intern(const std::string& name) {
  require(!name.empty(), "prof::intern: region name must be non-empty");
  Regions& r = regions();
  std::lock_guard<std::mutex> lock(r.mutex);
  const auto it = r.ids.find(name);
  if (it != r.ids.end()) return it->second;
  const RegionId id = static_cast<RegionId>(r.names.size());
  r.names.push_back(name);
  r.ids.emplace(name, id);
  return id;
}

const std::string& region_name(RegionId id) {
  Regions& r = regions();
  std::lock_guard<std::mutex> lock(r.mutex);
  require(id < r.names.size(), "prof::region_name: unknown region id");
  return r.names[id];
}

std::vector<PathStat> merged_paths() {
  struct Agg {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };
  // std::map keeps the (node, path) ordering contract for free.
  std::map<std::pair<std::string, std::vector<std::string>>, Agg> merged;
  Arenas& a = arenas();
  std::lock_guard<std::mutex> lock(a.mutex);
  for (const ThreadArena& arena : a.list) {
    for_each_node(arena, [&merged](PathNode* root, PathNode* node) {
      const std::uint64_t calls =
          node->calls.load(std::memory_order_relaxed);
      if (calls == 0) return;
      Agg& agg = merged[{root->node_name, path_names(*node)}];
      agg.calls += calls;
      agg.total_ns += node->total_ns.load(std::memory_order_relaxed);
      agg.self_ns += self_ns_of(*node);
    });
  }
  std::vector<PathStat> out;
  out.reserve(merged.size());
  for (const auto& [key, agg] : merged) {
    PathStat stat;
    stat.node = key.first;
    stat.path = key.second;
    stat.calls = agg.calls;
    stat.total_ns = agg.total_ns;
    stat.self_ns = agg.self_ns;
    out.push_back(std::move(stat));
  }
  return out;
}

std::vector<RegionStat> region_table() {
  std::map<std::string, RegionStat> by_name;
  for (const PathStat& path : merged_paths()) {
    RegionStat& stat = by_name[path.path.back()];
    stat.name = path.path.back();
    stat.calls += path.calls;
    stat.total_ns += path.total_ns;
    stat.self_ns += path.self_ns;
  }
  std::vector<RegionStat> out;
  out.reserve(by_name.size());
  for (auto& [name, stat] : by_name) out.push_back(std::move(stat));
  std::sort(out.begin(), out.end(),
            [](const RegionStat& a, const RegionStat& b) {
              if (a.calls != b.calls) return a.calls > b.calls;
              return a.name < b.name;
            });
  return out;
}

std::string folded() {
  std::ostringstream os;
  for (const PathStat& path : merged_paths()) {
    bool first = true;
    if (!path.node.empty()) {
      os << path.node;
      first = false;
    }
    for (const std::string& frame : path.path) {
      if (!first) os << ';';
      os << frame;
      first = false;
    }
    os << ' ' << path.self_ns << '\n';
  }
  return os.str();
}

void write_folded(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw Error("prof::write_folded: cannot open " + path);
  out << folded();
  if (!out) throw Error("prof::write_folded: write failed for " + path);
}

std::string report(std::size_t max_rows) {
  const std::vector<RegionStat> table = region_table();
  std::ostringstream os;
  os << "== coda_top: hot regions (calls desc) ==\n";
  if (table.empty()) {
    os << "  (no profiled regions)\n";
  }
  char line[160];
  std::snprintf(line, sizeof(line), "  %-28s %12s %12s %12s\n", "region",
                "calls", "self", "total");
  os << line;
  std::size_t rows = 0;
  for (const RegionStat& stat : table) {
    if (rows++ == max_rows) {
      os << "  ... (" << (table.size() - max_rows) << " more)\n";
      break;
    }
    std::snprintf(line, sizeof(line), "  %-28s %12llu %12s %12s\n",
                  stat.name.c_str(),
                  static_cast<unsigned long long>(stat.calls),
                  format_seconds(stat.self_ns * 1e-9).c_str(),
                  format_seconds(stat.total_ns * 1e-9).c_str());
    os << line;
  }
  // Derived FLOP rate (ISSUE 9): the GEMM kernel publishes flop counts
  // and per-call seconds; no Region sits inside the kernel itself.
  const auto& reg = MetricsRegistry::instance();
  const auto flops = reg.find_counter("kernel.gemm.flops");
  const Histogram* seconds = reg.find_histogram("kernel.gemm.seconds");
  if (flops && *flops > 0 && seconds != nullptr && seconds->sum() > 0.0) {
    std::snprintf(line, sizeof(line),
                  "  kernel.gemm: %.2f GF/s (%llu flops / %s)\n",
                  static_cast<double>(*flops) / seconds->sum() * 1e-9,
                  static_cast<unsigned long long>(*flops),
                  format_seconds(seconds->sum()).c_str());
    os << line;
  }
  return os.str();
}

bool empty() {
  Arenas& a = arenas();
  std::lock_guard<std::mutex> lock(a.mutex);
  for (const ThreadArena& arena : a.list) {
    bool any = false;
    for_each_node(arena, [&any](PathNode*, PathNode* node) {
      if (node->calls.load(std::memory_order_relaxed) > 0) any = true;
    });
    if (any) return false;
  }
  return true;
}

std::size_t arena_count() {
  Arenas& a = arenas();
  std::lock_guard<std::mutex> lock(a.mutex);
  return a.list.size();
}

void reset() {
  Arenas& a = arenas();
  std::lock_guard<std::mutex> lock(a.mutex);
  for (ThreadArena& arena : a.list) {
    for_each_node(arena, [](PathNode*, PathNode* node) {
      node->calls.store(0, std::memory_order_relaxed);
      node->total_ns.store(0, std::memory_order_relaxed);
    });
  }
}

}  // namespace coda::obs::prof

namespace coda::obs {

namespace {
thread_local FoldCost* t_fold_cost = nullptr;
}  // namespace

FoldCost& FoldCost::operator+=(const FoldCost& other) {
  prepare_seconds += other.prepare_seconds;
  fit_seconds += other.fit_seconds;
  score_seconds += other.score_seconds;
  prefix_hits += other.prefix_hits;
  prefix_misses += other.prefix_misses;
  return *this;
}

FoldCostScope::FoldCostScope(FoldCost& cost) : prev_(t_fold_cost) {
  t_fold_cost = &cost;
}

FoldCostScope::~FoldCostScope() { t_fold_cost = prev_; }

void prefix_event(bool hit) {
  if (t_fold_cost == nullptr) return;
  ++(hit ? t_fold_cost->prefix_hits : t_fold_cost->prefix_misses);
}

Region::Region(prof::RegionId region) { open(region, /*traced=*/false); }

Region::Region(prof::RegionId region, Traced) { open(region, /*traced=*/true); }

Region::Region(Phase phase) : phase_(phase) {
  // The fold-phase name table: the one place these region names live.
  static const prof::RegionId ids[] = {prof::intern("eval.fold.prepare"),
                                       prof::intern("eval.fold.fit"),
                                       prof::intern("eval.fold.score")};
  open(ids[static_cast<std::size_t>(phase)], /*traced=*/false);
}

void Region::open(prof::RegionId region, bool traced) {
  using prof::PathNode;
  prof::ThreadArena& arena = prof::acquire_arena();
  PathNode* parent = prof::t_state.current;
  PathNode* node;
  if (parent == nullptr) {
    node = prof::root_for(arena, Tracer::current_node(), region);
  } else {
    node = prof::find_child(parent, region);
    if (node == nullptr) node = prof::add_child(arena, parent, region);
  }
  node_ = node;
  prev_ = parent;
  prof::t_state.current = node;
  static auto& regions_entered = counter("prof.scopes");
  regions_entered.inc();
  start_ = Clock::now();
  if (traced) {
    span_.emplace(node->name, Tracer::current_context(), Tracer::instance(),
                  start_);
  }
}

double Region::stop() {
  if (seconds_) return *seconds_;
  const Clock::time_point end = Clock::now();
  const auto elapsed_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
          .count());
  seconds_ = std::chrono::duration<double>(end - start_).count();
  auto* node = static_cast<prof::PathNode*>(node_);
  // Single-writer accumulate: relaxed load+store, no RMW on the hot path.
  node->calls.store(node->calls.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
  node->total_ns.store(
      node->total_ns.load(std::memory_order_relaxed) + elapsed_ns,
      std::memory_order_relaxed);
  prof::t_state.current = static_cast<prof::PathNode*>(prev_);
  if (span_) span_->close(end);
  if (phase_ && t_fold_cost != nullptr) {
    switch (*phase_) {
      case Phase::kPrepare:
        t_fold_cost->prepare_seconds += *seconds_;
        break;
      case Phase::kFit:
        t_fold_cost->fit_seconds += *seconds_;
        break;
      case Phase::kScore:
        t_fold_cost->score_seconds += *seconds_;
        break;
    }
  }
  return *seconds_;
}

void Region::tag(std::string key, std::string value) {
  span_.value().tag(std::move(key), std::move(value));
}

TraceContext Region::context() const { return span_.value().context(); }

}  // namespace coda::obs
