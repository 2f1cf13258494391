// coda's benchmark. One process runs one workload:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--revision <id>]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// traces a fixed pseudo-random half of the ops and reports the per-layer
// metrics, the trace overhead (traced vs interleaved untraced ops) and the
// layer probes. The last stdout line is the result object; everything
// before it is a human-readable report. perfbench/README.md documents the
// metrics.
#include <malloc.h>
#include <sys/resource.h>

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "perfbench/src/core.h"
#include "perfbench/src/probes.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"
#include "src/ml/scalers.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/obs/profiler.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_NATIVE_ARCH
#define PERFBENCH_NATIVE_ARCH 0
#endif

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace obs = coda::obs;

constexpr int kSetups = 3;           // setup_s is the median of these
constexpr std::size_t kMinOps = 11;  // the tail rule needs > 10 samples
constexpr std::size_t kMinTracedOps = 6;  // 3 traced, 3 untraced
// A workload with an op budget stops after that many ops, or at this many
// times --seconds of wall, whichever comes first (so a run still ends in
// time on a commit that makes its ops several times slower).
constexpr double kBudgetWallFactor = 6.0;

double since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Restarts the kernel's peak-RSS watermark (VmHWM) so peak_rss_mb()
/// covers only what runs afterwards.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// Peak resident set since the last reset_peak_rss(), in MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ------------------------------------------------------------ arguments

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string revision = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--revision") {
      args.revision = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be > 0");
  }
  return args;
}

// ---------------------------------------------------------- fingerprint

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string fingerprint_json(const Args& args) {
  return std::string("{\"cpu_model\": \"") + json_escape(cpu_model()) +
         "\", \"nproc\": " + std::to_string(nproc()) +
         ", \"build_type\": \"" + PERFBENCH_BUILD_TYPE +
         "\", \"compiler\": \"" + json_escape(compiler()) +
         "\", \"coda_native_arch\": " +
         (PERFBENCH_NATIVE_ARCH ? "true" : "false") + ", \"revision\": \"" +
         json_escape(args.revision) + "\", \"workload\": \"" +
         json_escape(args.workload) +
         "\", \"seed\": " + std::to_string(args.seed) + "}";
}

// ---------------------------------------------------- program counters

/// Registry values the traced run reads around each traced op.
struct Counters {
  std::map<std::string, double> values;

  static Counters read() {
    const auto& reg = obs::MetricsRegistry::instance();
    Counters c;
    for (const char* name :
         {"kernel.gemm.calls", "kernel.gemm.flops", "eval.prefix_cache.hit",
          "eval.prefix_cache.miss", "eval.plan.fused_stages",
          "eval.plan.fallback", "simnet.messages", "simnet.bytes_sent",
          "retry.attempts", "retry.gave_up", "net.fault.dropped",
          "telemetry.bytes.sent", "pool.tasks"}) {
      c.values[name] =
          static_cast<double>(reg.find_counter(name).value_or(0));
    }
    for (const char* name : {"nn.step.seconds", "kernel.gemm.seconds",
                             "pool.queue_wait_seconds",
                             "timerwheel.fire_lag_seconds"}) {
      const obs::Histogram* h = reg.find_histogram(name);
      c.values[std::string(name) + ".sum"] = h ? h->sum() : 0.0;
      c.values[std::string(name) + ".count"] =
          h ? static_cast<double>(h->count()) : 0.0;
    }
    for (const auto& region : obs::prof::region_table()) {
      if (region.name.rfind("eval.fold.", 0) == 0) {
        c.values["prof." + region.name] =
            1e-9 * static_cast<double>(region.total_ns);
      }
    }
    return c;
  }

  /// Adds `after - before` into this accumulator.
  void add_delta(const Counters& before, const Counters& after) {
    for (const auto& [name, value] : after.values) {
      const auto it = before.values.find(name);
      values[name] += value - (it == before.values.end() ? 0.0 : it->second);
    }
  }

  double get(const std::string& name) const {
    const auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
  }
};

double pool_utilization() {
  return obs::MetricsRegistry::instance()
      .find_gauge("pool.utilization")
      .value_or(0.0);
}

// ------------------------------------------------------------- the loop

struct Phase {
  std::vector<double> op_s;      ///< per op, from due (open) or start
  std::vector<double> traced_op_s;  ///< the traced ops' op_s
  std::vector<double> plain_op_s;   ///< the untraced ops' op_s
  std::vector<double> lateness;  ///< open loop: start - due
  double wall_s = 0.0;
  double busy_s = 0.0;  ///< summed service time: op start to op end
  double cpu_s = 0.0;
  Tally tally;
  double wire_bytes = 0.0;
  double peer_served = 0.0;
  double peer_candidates = 0.0;
  std::map<std::string, double> layer;  ///< summed OpOutcome::layer
  OpTrace trace;                        ///< summed over traced ops
  Counters counters;                    ///< per-op deltas, traced ops
  double utilization_sum = 0.0;

  std::size_t ops() const { return op_s.size(); }
  double per_op(double total) const {
    return ops() == 0 ? 0.0 : total / static_cast<double>(ops());
  }
  /// Per traced op: layer values are only collected on traced ops.
  double per_traced_op(double total) const {
    return traced_op_s.empty()
               ? 0.0
               : total / static_cast<double>(traced_op_s.size());
  }
};

void add_trace(OpTrace& into, const OpTrace& op) {
  into.lane_s += op.lane_s;
  into.attributed_s += op.attributed_s;
  for (const auto& [name, t] : op.layers) {
    LayerTotals& dst = into.layers[name];
    dst.calls += t.calls;
    dst.self_s += t.self_s;
  }
}

/// Runs ops for `seconds` (and at least `min_ops`), or the workload's op
/// budget for `seconds` when it has one: back to back for a closed loop, on
/// the workload's schedule for an open one. With
/// `trace_half`, a fixed pseudo-random half of the ops is traced, so traced
/// and untraced ops interleave (drift over the run cannot pass for trace
/// overhead) without lining up with a workload's own period, such as
/// sensor_refresh's recompute on every 4th update.
Phase run_phase(Workload& w, double seconds, std::size_t min_ops,
                bool trace_half) {
  Phase phase;
  Tracer& tracer = Tracer::instance();
  const double rate = w.rate_per_s();
  const std::size_t budget = w.op_budget(seconds);
  if (budget > 0) min_ops = std::max(min_ops, budget);
  double excluded_cpu = 0.0;  // the loop's own: resets, reads, spinning
  const double cpu0 = cpu_seconds();
  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    // Every op starts from zeroed program metrics: the always-on registry,
    // profiler and tracer would otherwise grow with the op count (new
    // per-instance counters each fleet round) and slow later ops.
    const bool traced = trace_half && (derive_seed(0, "trace", i) & 1) != 0;
    const double housekeeping0 = thread_cpu_seconds();
    obs::reset_all();
    const Counters before = traced ? Counters::read() : Counters{};
    excluded_cpu += thread_cpu_seconds() - housekeeping0;
    auto due = Clock::now();
    if (rate > 0.0) {
      due = start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(i) / rate));
      if (due - start >= std::chrono::duration<double>(seconds) &&
          i >= min_ops) {
        break;
      }
      // Busy-wait for the due time: precise, and a sleeping generator lets
      // the guest scheduler crowd the op's worker threads onto one CPU
      // some seconds into a run. The spin's CPU time is not the op's.
      const double spin0 = thread_cpu_seconds();
      while (Clock::now() < due) {
      }
      excluded_cpu += thread_cpu_seconds() - spin0;
      phase.lateness.push_back(since(due));
    } else if (budget > 0 ? i >= min_ops ||
                                since(start) >= kBudgetWallFactor * seconds
                          : since(start) >= seconds && i >= min_ops) {
      break;
    }
    tracer.set_enabled(traced);
    if (traced) tracer.begin_op(i);
    OpOutcome out;
    bool threw = false;
    const auto begun = Clock::now();
    {
      const Lane lane;
      try {
        out = w.run_op(i);
      } catch (const std::exception& e) {
        phase.tally.record_exception(e.what());
        threw = true;
      }
    }
    phase.op_s.push_back(since(due));
    phase.busy_s += since(begun);
    tracer.set_enabled(false);
    (traced ? phase.traced_op_s : phase.plain_op_s)
        .push_back(phase.op_s.back());
    if (traced) {
      add_trace(phase.trace, tracer.end_op());
      phase.counters.add_delta(before, Counters::read());
      phase.utilization_sum += pool_utilization();
    }
    if (threw) continue;
    phase.tally.record(out);
    phase.wire_bytes += out.wire_bytes;
    phase.peer_served += out.peer_served;
    phase.peer_candidates += out.peer_candidates;
    if (traced) {
      for (const auto& [key, value] : out.layer) phase.layer[key] += value;
    }
  }
  phase.wall_s = since(start);
  phase.cpu_s = cpu_seconds() - cpu0 - excluded_cpu;
  return phase;
}

/// Ops per second of service time, from each op's start to its end: the
/// loop's metric resets between ops and, on an open loop, the idle time
/// between updates and any queueing are excluded, so this is the rate the
/// program sustains rather than the offered rate.
double ops_per_s(const Phase& p) {
  return p.busy_s > 0.0 ? static_cast<double>(p.ops()) / p.busy_s : 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double p99_lateness(const Phase& p) {
  return p.lateness.empty() ? 0.0 : coda::quantile(p.lateness, 0.99);
}

void print_failures(const Phase& p) {
  if (p.tally.failed() > 0) {
    std::printf("FAILED ops: %zu of %zu attempted; first: %s\n",
                p.tally.failed(), p.tally.attempted(),
                p.tally.first_failure().c_str());
  }
}

void print_metric(const MetricValue& m, const char* note = "") {
  std::printf("  %-40s %16.6g %-8s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), note);
}

// --------------------------------------------------------------- modes

int run_untraced(Workload& w, const Args& args, double setup_s) {
  const Phase p = run_phase(w, args.seconds, kMinOps, false);
  const Tail tail = tail_percentile(p.op_s);
  const std::vector<MetricValue> metrics = {
      {"setup_s", setup_s, "s"},
      {"op_s_p50", median(p.op_s), "s"},
      {"op_s_tail", tail.value, "s"},
      {"ops_per_s", ops_per_s(p), "1/s"},
      {"cpu_s_per_op", p.per_op(p.cpu_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  std::printf("end-to-end metrics (%zu ops in %.2f s):\n", p.ops(), p.wall_s);
  const std::size_t budget = w.op_budget(args.seconds);
  if (budget > 0 && p.ops() < budget) {
    std::printf("  NOTE: stopped at the wall cap after %zu of %zu budgeted "
                "ops\n", p.ops(), budget);
  }
  char tail_note[96];
  std::snprintf(tail_note, sizeof(tail_note),
                "p%.1f of %zu samples, %zu beyond", tail.percentile,
                tail.samples, tail.beyond);
  for (const MetricValue& m : metrics) {
    print_metric(m, m.name == "op_s_tail" ? tail_note : "");
  }
  print_metric({"failed_share", p.tally.failed_share(), "share"},
               "(result line: attempted/failed)");
  print_metric({"wire_bytes_per_op", p.per_op(p.wire_bytes), "bytes"},
               "(fleet_coop, sensor_refresh)");
  print_metric({"peer_served_share", ratio(p.peer_served, p.peer_candidates),
                "share"},
               "(fleet_coop, sensor_refresh)");
  print_metric({"generator_lag_s", p99_lateness(p), "s"},
               "(p99, open loop: sensor_refresh)");
  print_failures(p);
  std::printf("%s\n", result_line(p.tally.failed() == 0, p.tally.attempted(),
                                  p.tally.failed(), metrics)
                          .c_str());
  return 0;
}

int run_traced(Workload& w, const Args& args) {
  const Phase p = run_phase(w, args.seconds, kMinTracedOps, true);
  const auto total = [&](const std::string& counter) {
    return p.counters.get(counter);
  };
  const auto per_op = [&](const std::string& counter, double scale = 1.0) {
    return p.per_traced_op(total(counter)) * scale;
  };
  const auto layer = [&](const std::string& key) {
    const auto it = p.layer.find(key);
    return it == p.layer.end() ? 0.0 : it->second;
  };
  const auto span = [&](const std::string& name) {
    const auto it = p.trace.layers.find(name);
    return it == p.trace.layers.end() ? LayerTotals{} : it->second;
  };

  std::vector<MetricValue> metrics;
  const auto put = [&](const std::string& name, double value,
                       const std::string& unit) {
    metrics.push_back({name, value, unit});
  };
  put("nn.step_s", per_op("nn.step.seconds.sum"), "s");
  put("nn.steps", per_op("nn.step.seconds.count"), "count");
  put("kernels.gemm_gflop", per_op("kernel.gemm.flops", 1e-9), "GFLOP");
  put("kernels.gemm_calls", per_op("kernel.gemm.calls"), "count");
  put("kernels.gemm_s_timed", per_op("kernel.gemm.seconds.sum"), "s");
  put("core.fold_evals", p.per_traced_op(layer("core.fold_evals")), "count");
  put("core.candidate.eval_s_max",
      p.per_traced_op(layer("core.candidate.eval_s_max")), "s");
  put("util.pool.queue_wait_s", per_op("pool.queue_wait_seconds.sum"), "s");
  put("util.pool.tasks", per_op("pool.tasks"), "count");
  put("util.pool.utilization", p.per_traced_op(p.utilization_sum), "share");
  put("core.fold.prepare_s", per_op("prof.eval.fold.prepare"), "s");
  put("core.fold.fit_s", per_op("prof.eval.fold.fit"), "s");
  put("core.fold.score_s", per_op("prof.eval.fold.score"), "s");
  for (const char* g : {"fig3_tabular", "failure_prediction", "root_cause",
                        "anomaly", "cohort"}) {
    const std::string key = std::string("template.") + g + ".search_s";
    put(key, p.per_traced_op(layer(key)), "s");
  }
  const double hits = total("eval.prefix_cache.hit");
  const double misses = total("eval.prefix_cache.miss");
  put("core.prefix_cache.hit_ratio", ratio(hits, hits + misses), "share");
  const double fused = total("eval.plan.fused_stages");
  const double fallback = total("eval.plan.fallback");
  put("core.plan.fallback_ratio", ratio(fallback, fused + fallback), "share");
  for (const char* op : {"fetch_many", "fetch", "claim", "put", "release"}) {
    const LayerTotals t = span(std::string("darr.") + op);
    put(std::string("darr.") + op + ".calls",
        p.per_traced_op(static_cast<double>(t.calls)), "count");
    put(std::string("darr.") + op + ".s", p.per_traced_op(t.self_s), "s");
  }
  put("darr.claim.denied_ratio",
      ratio(layer("darr.claim.denied"), layer("darr.claim.attempts")), "share");
  put("core.claim_wait_s", p.per_traced_op(layer("core.claim_wait_s")), "s");
  put("util.timerwheel.fire_lag_s", per_op("timerwheel.fire_lag_seconds.sum"),
      "s");
  put("dist.simnet.messages", per_op("simnet.messages"), "count");
  put("dist.simnet.bytes", per_op("simnet.bytes_sent"), "bytes");
  put("dist.retry.attempts", per_op("retry.attempts"), "count");
  put("dist.retry.gave_up", per_op("retry.gave_up"), "count");
  put("dist.net.dropped", per_op("net.fault.dropped"), "count");
  put("obs.telemetry.bytes", per_op("telemetry.bytes.sent"), "bytes");
  put("dist.home.put_s", p.per_traced_op(span("dist.home.put").self_s), "s");
  put("dist.client.get_s", p.per_traced_op(span("dist.client.get").self_s),
      "s");
  put("dist.client.on_push_s",
      p.per_traced_op(span("dist.client.on_push").self_s), "s");
  put("dist.monitor.on_update_s",
      p.per_traced_op(span("dist.monitor.on_update").self_s), "s");
  put("dist.delta.bytes_saved_ratio",
      ratio(layer("dist.delta.bytes_saved"), layer("dist.delta.bytes_full")),
      "share");
  put("dist.monitor.recompute_ratio",
      p.per_traced_op(layer("dist.monitor.recompute")), "share");
  put("core.evaluate.calls",
      p.per_traced_op(static_cast<double>(span("core.evaluate").calls)),
      "count");
  put("core.evaluate.self_s", p.per_traced_op(span("core.evaluate").self_s),
      "s");
  put("darr.run_cooperative.self_s",
      p.per_traced_op(span("darr.run_cooperative").self_s), "s");
  const double plain_p50 = median(p.plain_op_s);
  const double traced_p50 = median(p.traced_op_s);
  put("obs.trace.overhead_ratio", ratio(traced_p50, plain_p50), "ratio");
  put("obs.attributed_share", ratio(p.trace.attributed_s, p.trace.lane_s),
      "share");
  put("e2e.wire_bytes_per_op", p.per_op(p.wire_bytes), "bytes");
  put("e2e.peer_served_share", ratio(p.peer_served, p.peer_candidates),
      "share");
  put("e2e.generator_lag_s", p99_lateness(p), "s");
  for (MetricValue& m : run_probes(args.seed)) metrics.push_back(std::move(m));

  // Reconciliation: how much of each op the named layers explain.
  std::printf("reconciliation (%zu traced ops, %zu untraced, interleaved):\n",
              p.traced_op_s.size(), p.plain_op_s.size());
  std::printf("  op wall p50: %.6f s traced, %.6f s untraced\n", traced_p50,
              plain_p50);
  std::printf("  lane time per op: %.6f s, inside a layer span: %.1f%%\n",
              p.per_traced_op(p.trace.lane_s),
              100.0 * ratio(p.trace.attributed_s, p.trace.lane_s));
  std::printf("  %-28s %10s %12s %12s\n", "layer span", "calls/op",
              "self s/op", "self/wall");
  double traced_wall = 0.0;
  for (const double s : p.traced_op_s) traced_wall += s;
  for (const auto& [name, t] : p.trace.layers) {
    std::printf("  %-28s %10.2f %12.6f %11.1f%%\n", name.c_str(),
                p.per_traced_op(static_cast<double>(t.calls)),
                p.per_traced_op(t.self_s),
                100.0 * ratio(t.self_s, traced_wall));
  }
  const double cpu_per_op = p.per_op(p.cpu_s);
  std::printf("  cpu_s_per_op %.6f s: nn.step_s %.6f s (%.1f%%), "
              "kernels.gemm_s_timed %.6f s (%.1f%%, timed GEMMs only)\n",
              cpu_per_op, per_op("nn.step.seconds.sum"),
              100.0 * ratio(per_op("nn.step.seconds.sum"), cpu_per_op),
              per_op("kernel.gemm.seconds.sum"),
              100.0 * ratio(per_op("kernel.gemm.seconds.sum"), cpu_per_op));
  std::printf("per-layer metrics:\n");
  for (const MetricValue& m : metrics) print_metric(m);
  print_failures(p);

  std::printf("%s\n", result_line(p.tally.failed() == 0, p.tally.attempted(),
                                  p.tally.failed(), metrics)
                          .c_str());
  return 0;
}

int main_impl(int argc, char** argv) {
  // Pin glibc's mmap threshold at its initial 128 KiB instead of letting it
  // drift upwards as large blocks are freed: big matrices then go back to
  // the OS when freed, so peak_rss_mb measures live data rather than how
  // much freed memory the allocator's per-thread arenas happened to keep
  // (which varied by 25% between identical sensor_refresh runs).
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  std::unique_ptr<Workload> w = make_workload(args.workload);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::printf("fingerprint: %s\n", fingerprint_json(args).c_str());

  // Set up several times and keep the last: setup_s is their median. The
  // warm-up op each setup runs is counted here, never in the op timings.
  std::vector<double> setups;
  for (int s = 0; s < kSetups; ++s) {
    w = make_workload(args.workload);
    const auto start = Clock::now();
    w->setup(args.seed);
    setups.push_back(since(start));
  }
  const double setup_s = median(setups);
  std::printf("workload %s: %s\n", args.workload.c_str(),
              w->describe().c_str());
  std::printf("setup: %.4f s median of %d (%.4f, %.4f, %.4f)\n", setup_s,
              kSetups, setups[0], setups[1], setups[2]);
  std::fflush(stdout);
  reset_peak_rss();
  return args.trace ? run_traced(*w, args) : run_untraced(*w, args, setup_s);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
