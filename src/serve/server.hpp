// The request-facing serving layer: a Batcher in front of a worker pool
// executing an InferenceFn (single-device Engine or SpmdEngine) over a
// loaded checkpoint, with Metrics accounting on every stage.
//
// Lifecycle: construct -> (optionally submit early; requests park in the
// batcher) -> start() -> submit()/futures -> drain() or destructor.
// Workers never leak exceptions: a failing batch fails its requests'
// futures and the worker keeps serving.
#pragma once

#include <thread>
#include <vector>

#include "runtime/context.hpp"
#include "serve/batcher.hpp"
#include "serve/engine.hpp"
#include "serve/metrics.hpp"
#include "tensor/kernel_config.hpp"

namespace dchag::serve {

struct ServerConfig {
  /// Worker threads executing batches. More than one only helps when the
  /// InferenceFn is itself thread-safe (the single-device Engine is; an
  /// SpmdEngine serializes internally).
  int num_workers = 1;
  BatcherConfig batcher;
};

class Server {
 public:
  /// `ctx` (default: the CONSTRUCTING thread's effective context) is the
  /// server's execution context: every worker thread scopes into it, so
  /// an override active where the server is built — kernel backend,
  /// tracing sink — reaches every worker forward by construction. The
  /// pre-Context footgun ("a scope set on the caller silently does not
  /// reach worker threads") is gone: workers inherit, always.
  ///
  /// Workers never get private pools: on the parallel backend all of
  /// them fan out onto the process-wide tensor::ThreadPool::global(),
  /// whose lane count is fixed no matter how many workers run — batches
  /// queue instead of oversubscribing cores.
  Server(InferenceFn infer, ServerConfig cfg,
         const runtime::Context& ctx = runtime::Context::current());
  /// Drains on destruction: closes the batcher, finishes parked work,
  /// joins workers.
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Enqueues one request. Valid before start() — requests park in the
  /// batcher until workers spin up (handy for deterministic coalescing
  /// tests and warm-up bursts).
  [[nodiscard]] ResponseFuture submit(Request r);

  /// Spawns the worker pool. Idempotent.
  void start();

  /// Stops accepting requests, completes everything parked, joins the
  /// workers. Idempotent; implied by the destructor.
  void drain();

  [[nodiscard]] const Metrics& metrics() const { return metrics_; }
  [[nodiscard]] std::size_t queue_depth() const { return batcher_.depth(); }
  [[nodiscard]] const ServerConfig& config() const { return cfg_; }
  /// The execution context workers run under.
  [[nodiscard]] const runtime::Context& context() const { return ctx_; }

 private:
  void worker_loop();
  void execute(Batch batch);

  InferenceFn infer_;
  ServerConfig cfg_;
  runtime::Context ctx_;
  Batcher batcher_;
  Metrics metrics_;
  std::vector<std::thread> workers_;
  bool started_ = false;
  bool drained_ = false;
};

}  // namespace dchag::serve
