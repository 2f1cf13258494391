// Standalone layer probes for the traced run: each times one layer's
// public entry point at the shapes the workloads use, outside any search.
#pragma once

#include <cstdint>
#include <vector>

#include "perfbench/src/core.h"

namespace perfbench {

/// Runs every probe (about 2 s in total) and returns its metrics:
///  * nn.{lstm,conv1d,dense}.fwd_bwd_s, nn.adam.step_s — one forward +
///    backward (or optimizer step) at the Fig-11 forecasters' batch 32,
///    history 24, 2 variables, hidden 16 / 16 filters / 32 units;
///  * kernels.gemm_{nn,tn,nt}_gflops and kernels.gemm_gflops — the LSTM
///    gate GEMM shapes (32x64x16 forward, and its two backward forms);
///  * darr.probe.shard{1,4}.claim_put_fetch_s — one DarrClient
///    claim + put + fetch against a 1-shard and a 4-shard (rf=2) service;
///  * dist.simnet.transfer_retry_s — one 1 KiB transfer_with_retry under
///    5% drops;
///  * dist.delta.{encode,decode}_mb_s — compute_delta / apply_delta over a
///    real sensor_refresh version pair (throws if the decode differs).
std::vector<MetricValue> run_probes(std::uint64_t seed);

}  // namespace perfbench
