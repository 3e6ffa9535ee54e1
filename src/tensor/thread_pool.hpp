// Fixed-size thread pool with a parallel_for primitive — the substrate of
// the parallel kernel backend (kernel_config.hpp). Deliberately
// work-stealing-free: chunks are handed out through one shared atomic
// cursor, so execution order is deterministic enough for the blocked and
// parallel matmul backends to stay bit-identical (each output element's
// accumulation order never depends on the thread count).
//
// The caller always participates in its own parallel_for, so a pool sized
// for N hardware threads spawns N-1 workers. Many threads may issue
// parallel_for concurrently (serve workers, SPMD ranks): their chunks
// interleave on the shared workers instead of oversubscribing the machine.
// A parallel_for issued from inside another parallel_for runs inline on
// the calling thread — nesting never deadlocks and never over-splits.
#pragma once

#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "tensor/shape.hpp"

namespace dchag::tensor {

class ThreadPool {
 public:
  /// Spawns `workers` threads (0 is valid: every parallel_for runs inline).
  explicit ThreadPool(int workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Process-wide pool, sized on first use from the environment's
  /// thread budget (DCHAG_THREADS via Context::from_env()) minus the
  /// caller lane; default: hardware_concurrency - 1. All kernel fan-out
  /// (dispatch.hpp, ops.cpp) runs on it. A Context's
  /// KernelConfig::threads only CAPS individual parallel_fors — it
  /// never resizes this pool.
  static ThreadPool& global();

  [[nodiscard]] int workers() const { return static_cast<int>(threads_.size()); }
  /// Concurrency of a parallel_for on this pool: workers + the caller.
  [[nodiscard]] int lanes() const { return workers() + 1; }

  /// Splits [0, n) into contiguous chunks of at least `grain` iterations
  /// and runs fn(begin, end) on the pool + the calling thread. Blocks
  /// until every chunk finished. The first exception thrown by any chunk
  /// is rethrown here (remaining chunks are skipped). Runs fully inline
  /// when the range is small, the pool has no workers, or the call is
  /// nested inside another parallel_for. `max_lanes` > 0 caps the number
  /// of chunks (KernelConfig::threads plumbs through here).
  ///
  /// Pool workers run their chunks under the SUBMITTER's effective
  /// runtime::Context (captured here, installed as a runtime::Scope on
  /// the worker), so overrides active on the calling thread — backend,
  /// tracing sink, everything — follow the work across the fan-out.
  void parallel_for(Index n, Index grain,
                    const std::function<void(Index, Index)>& fn,
                    int max_lanes = 0);

  /// True while the current thread is executing a parallel_for chunk
  /// (pool worker or participating caller). Nested calls check this.
  [[nodiscard]] static bool in_parallel_region();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::vector<std::thread> threads_;
};

}  // namespace dchag::tensor
