#include "perfbench/src/trace.h"

#include <chrono>
#include <utility>

namespace perfbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Child time covered so far, one entry per span open on this thread.
thread_local std::vector<std::int64_t> t_child_ns;

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::begin_op(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  op_.store(id, std::memory_order_relaxed);
  current_ = OpTrace{};
}

OpTrace Tracer::end_op() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(current_, OpTrace{});
}

void Tracer::record(const char* layer, bool lane_root, std::uint64_t op,
                    std::int64_t duration_ns, std::int64_t self_ns) {
  const double dur = 1e-9 * static_cast<double>(duration_ns);
  const double self = 1e-9 * static_cast<double>(self_ns);
  std::lock_guard<std::mutex> lock(mutex_);
  if (op != op_.load(std::memory_order_relaxed)) return;
  if (lane_root) {
    current_.lane_s += dur;
    current_.attributed_s += dur - self;
    return;
  }
  LayerTotals& t = current_.layers[layer];
  ++t.calls;
  t.self_s += self;
}

Span::Span(const char* layer) : Span(layer, /*lane_root=*/false) {}

Span::Span(const char* layer, bool lane_root) {
  const Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  layer_ = layer;
  lane_root_ = lane_root;
  op_ = tracer.current_op();
  t_child_ns.push_back(0);
  start_ns_ = now_ns();
}

Span::~Span() {
  if (layer_ == nullptr) return;
  const std::int64_t duration = now_ns() - start_ns_;
  const std::int64_t child = t_child_ns.back();
  t_child_ns.pop_back();
  if (!t_child_ns.empty()) t_child_ns.back() += duration;
  Tracer::instance().record(layer_, lane_root_, op_, duration,
                            duration - child);
}

std::optional<coda::CachedResult> TimingCache::fetch(const std::string& key) {
  const Span span("darr.fetch");
  return inner_.fetch(key);
}

std::vector<std::optional<coda::CachedResult>> TimingCache::fetch_many(
    const std::vector<std::string>& keys) {
  const Span span("darr.fetch_many");
  return inner_.fetch_many(keys);
}

bool TimingCache::claim(const std::string& key) {
  const Span span("darr.claim");
  const bool granted = inner_.claim(key);
  counts_.claims.fetch_add(1, std::memory_order_relaxed);
  if (!granted) counts_.denied.fetch_add(1, std::memory_order_relaxed);
  return granted;
}

void TimingCache::put(const std::string& key,
                      const coda::CachedResult& result) {
  const Span span("darr.put");
  inner_.put(key, result);
}

void TimingCache::release(const std::string& key) {
  const Span span("darr.release");
  inner_.release(key);
}

}  // namespace perfbench
