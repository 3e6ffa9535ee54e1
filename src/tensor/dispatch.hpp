// The "should this loop fan out?" policy for elementwise, row and plane
// loops: ops.cpp's elementwise, broadcast, permute, softmax, layernorm
// and sum_dim kernels and the model-layer data movers
// (patchify/unpatchify) dispatch through here, so backend gating, grain
// thresholds and lane caps never drift between them. GEMMs fan out in ops.cpp's gemm_rows instead, at ~1 MFLOP row
// strips.
#pragma once

#include "tensor/kernel_config.hpp"
#include "tensor/thread_pool.hpp"

namespace dchag::tensor {

/// Baseline fan-out grain in ELEMENTS of touched data: a chunk below
/// this spends more on fork/join than on its loop. Callers iterating
/// coarser units (rows, planes) divide by the unit's element count.
inline constexpr Index kDispatchGrain = 1 << 15;

/// Splits [0, n) over the process-wide pool when the calling
/// thread's backend is kParallel and the range spans at least two
/// grains; otherwise runs fn(0, n) inline. fn must write disjoint
/// outputs per index.
template <typename F>
void dispatch_range(Index n, Index grain, F&& fn) {
  const KernelConfig cfg = kernel_config();
  if (cfg.backend == KernelBackend::kParallel && n >= 2 * grain) {
    ThreadPool::global().parallel_for(n, grain, std::forward<F>(fn),
                                      cfg.threads);
  } else {
    fn(Index{0}, n);
  }
}

}  // namespace dchag::tensor
