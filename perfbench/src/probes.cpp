#include "perfbench/src/probes.h"

#include <chrono>
#include <functional>
#include <string>

#include "perfbench/src/workloads.h"
#include "src/core/kernels.h"
#include "src/darr/client.h"
#include "src/darr/sharded.h"
#include "src/dist/delta.h"
#include "src/dist/retry.h"
#include "src/dist/sim_net.h"
#include "src/nn/conv1d.h"
#include "src/nn/dense.h"
#include "src/nn/lstm.h"
#include "src/nn/optimizer.h"
#include "src/util/random.h"

namespace perfbench {

using namespace coda;

namespace {

constexpr std::size_t kBatch = 32;
constexpr std::size_t kHistory = 24;
constexpr std::size_t kVars = 2;

/// Median seconds per call of `fn` over 7 timed chunks of about 20 ms
/// each, after one untimed call.
double time_per_call(const std::function<void()>& fn) {
  using Clock = std::chrono::steady_clock;
  fn();
  const auto start = Clock::now();
  fn();
  const double once =
      std::max(1e-7, std::chrono::duration<double>(Clock::now() - start)
                         .count());
  const auto reps = static_cast<std::size_t>(std::max(1.0, 0.02 / once));
  std::vector<double> per_call;
  for (int chunk = 0; chunk < 7; ++chunk) {
    const auto t0 = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) fn();
    per_call.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count() /
        static_cast<double>(reps));
  }
  return median(per_call);
}

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.uniform(-1.0, 1.0);
  return m;
}

double layer_fwd_bwd(nn::Layer& layer, const Matrix& input,
                     std::uint64_t seed) {
  const Matrix out = layer.forward(input, /*training=*/true);
  const Matrix grad = random_matrix(out.rows(), out.cols(), seed);
  return time_per_call([&] {
    layer.forward(input, /*training=*/true);
    layer.backward(grad);
  });
}

double gemm_gflops(double* seconds_out, double* flops_out,
                   const std::function<void()>& gemm, double flops) {
  const double s = time_per_call(gemm);
  *seconds_out += s;
  *flops_out += flops;
  return flops / s * 1e-9;
}

RetryPolicy probe_retry() {
  RetryPolicy policy;
  policy.max_attempts = 12;
  policy.deadline_seconds = 20.0;
  return policy;
}

double darr_round_trip(std::size_t shards) {
  dist::SimNet net;
  darr::DarrCluster::Config config;
  config.n_shards = shards;
  config.replication = std::min<std::size_t>(2, shards);
  darr::DarrCluster cluster(&net, config);
  darr::ShardedDarrService service(&cluster, net.add_node("probe"));
  darr::DarrClient client(&service, "probe");
  CachedResult result;
  result.fold_scores = {0.1, 0.2, 0.3};
  result.mean_score = 0.2;
  result.explanation = "standardscaler -> linearregression";
  std::size_t i = 0;
  return time_per_call([&] {
    const std::string key = "probe/" + std::to_string(i++);
    if (!client.claim(key)) throw std::runtime_error("probe claim denied");
    client.put(key, result);
    if (!client.fetch(key)) throw std::runtime_error("probe fetch missed");
  });
}

}  // namespace

std::vector<MetricValue> run_probes(std::uint64_t seed) {
  std::vector<MetricValue> out;
  const Matrix seq = random_matrix(kBatch, kHistory * kVars, seed);

  nn::Lstm lstm(kVars, 16, /*return_sequences=*/false, seed);
  out.push_back({"nn.lstm.fwd_bwd_s", layer_fwd_bwd(lstm, seq, seed + 1), "s"});
  nn::Conv1D conv(kVars, 16, 3, 1, /*causal=*/true, seed);
  out.push_back(
      {"nn.conv1d.fwd_bwd_s", layer_fwd_bwd(conv, seq, seed + 2), "s"});
  nn::Dense dense(kHistory * kVars, 32, seed, kernels::Activation::kRelu);
  out.push_back(
      {"nn.dense.fwd_bwd_s", layer_fwd_bwd(dense, seq, seed + 3), "s"});
  nn::Adam adam(1e-3);
  const std::vector<nn::ParamTensor*> params = lstm.parameters();
  out.push_back({"nn.adam.step_s", time_per_call([&] { adam.step(params); }),
                 "s"});

  // The LSTM gate GEMM (batch 32, hidden 16, 4 gates) in the three
  // orientations its forward and backward passes use.
  const std::size_t m = kBatch, h = 16, g = 4 * h;
  const Matrix a = random_matrix(m, h, seed + 4);    // h_t: 32 x 16
  const Matrix w = random_matrix(h, g, seed + 5);    // Wh: 16 x 64
  const Matrix dz = random_matrix(m, g, seed + 6);   // dz: 32 x 64
  Matrix c_nn(m, g), c_tn(h, g), c_nt(m, h);
  double seconds = 0.0, flops = 0.0;
  const double f = 2.0 * static_cast<double>(m * h * g);
  out.push_back({"kernels.gemm_nn_gflops",
                 gemm_gflops(&seconds, &flops, [&] {
                   kernels::gemm_nn(m, g, h, a.ptr(), h, w.ptr(), g,
                                    c_nn.ptr(), g);
                 }, f),
                 "GFLOP/s"});
  out.push_back({"kernels.gemm_tn_gflops",
                 gemm_gflops(&seconds, &flops, [&] {
                   kernels::gemm_tn(h, g, m, a.ptr(), h, dz.ptr(), g,
                                    c_tn.ptr(), g);
                 }, f),
                 "GFLOP/s"});
  out.push_back({"kernels.gemm_nt_gflops",
                 gemm_gflops(&seconds, &flops, [&] {
                   kernels::gemm_nt(m, h, g, dz.ptr(), g, w.ptr(), g,
                                    c_nt.ptr(), h);
                 }, f),
                 "GFLOP/s"});
  out.push_back({"kernels.gemm_gflops", flops / seconds * 1e-9, "GFLOP/s"});

  out.push_back({"darr.probe.shard1.claim_put_fetch_s", darr_round_trip(1),
                 "s"});
  out.push_back({"darr.probe.shard4.claim_put_fetch_s", darr_round_trip(4),
                 "s"});

  {
    dist::SimNet net;
    dist::SimNet::FaultConfig faults;
    faults.seed = derive_seed(seed, "probe.faults");
    faults.drop_probability = 0.05;
    net.set_faults(faults);
    const dist::NodeId from = net.add_node("a");
    const dist::NodeId to = net.add_node("b");
    const RetryPolicy retry = probe_retry();
    out.push_back({"dist.simnet.transfer_retry_s", time_per_call([&] {
                     dist::transfer_with_retry(net, from, to, 1024, retry,
                                               "probe");
                   }),
                   "s"});
  }

  {
    SensorSource source(seed);
    const Bytes base = source.encode(0);
    source.update(0);
    const Bytes target = source.encode(0);
    dist::Delta delta;
    const double encode_s =
        time_per_call([&] { delta = dist::compute_delta(base, target); });
    Bytes decoded;
    const double decode_s =
        time_per_call([&] { decoded = dist::apply_delta(base, delta); });
    if (decoded != target) {
      throw std::runtime_error("delta probe: apply_delta(compute_delta) "
                               "does not reproduce the target");
    }
    const double mb = static_cast<double>(target.size()) * 1e-6;
    out.push_back({"dist.delta.encode_mb_s", mb / encode_s, "MB/s"});
    out.push_back({"dist.delta.decode_mb_s", mb / decode_s, "MB/s"});
  }
  return out;
}

}  // namespace perfbench
