#include "serve/server.hpp"

#include <chrono>

#include "tensor/ops.hpp"
#include "tensor/plan.hpp"

namespace dchag::serve {

namespace {

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Server::Server(InferenceFn infer, ServerConfig cfg,
               const runtime::Context& ctx)
    : infer_(std::move(infer)),
      cfg_(cfg),
      // Capture the submitter's EFFECTIVE context: scopes active on the
      // constructing thread fold in here and reach every worker.
      ctx_(ctx.effective()),
      batcher_(cfg.batcher) {
  DCHAG_CHECK(infer_ != nullptr, "Server needs an InferenceFn");
  DCHAG_CHECK(cfg_.num_workers >= 1, "Server needs >= 1 worker");
}

Server::~Server() { drain(); }

ResponseFuture Server::submit(Request r) {
  ResponseFuture f = batcher_.submit(std::move(r));
  metrics_.observe_queue_depth(batcher_.depth());
  metrics_.mark_window(now_ms());
  return f;
}

void Server::start() {
  if (started_) return;
  started_ = true;
  workers_.reserve(static_cast<std::size_t>(cfg_.num_workers));
  for (int w = 0; w < cfg_.num_workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void Server::drain() {
  if (drained_) return;
  drained_ = true;
  batcher_.close();
  // Unstarted servers still owe answers for parked requests.
  if (!started_) start();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
}

void Server::worker_loop() {
  // Serving is tape-free for the whole worker thread; every forward under
  // this guard allocates zero autograd nodes.
  autograd::NoGradGuard no_grad;
  // Every worker runs under the server's captured context — the
  // submitter's overrides reach here by construction.
  runtime::Scope ctx_scope(ctx_);
  while (std::optional<Batch> batch = batcher_.pop()) {
    execute(std::move(*batch));
  }
}

void Server::execute(Batch batch) {
  const auto assembled = std::chrono::steady_clock::now();
  const auto n = batch.items.size();
  try {
    // Stack the samples into one [B, C, H, W] forward. Lane keys guarantee
    // identical shapes / channel subsets / lead times within a batch.
    std::vector<Tensor> slabs;
    slabs.reserve(n);
    for (const PendingRequest& p : batch.items) {
      const auto& s = p.request.images.shape();
      slabs.push_back(p.request.images.reshape(
          tensor::Shape{1, s.dim(0), s.dim(1), s.dim(2)}));
    }
    Tensor images =
        n == 1 ? slabs.front() : tensor::ops::concat(slabs, 0);
    const Request& head = batch.items.front().request;

    // Heap-buffer delta across the forward: the Engine runs it on this
    // worker thread, so the thread-local counter captures exactly its
    // allocations (zero in steady state under a memory plan). SPMD
    // forwards run on rank threads and read ~0 here by construction.
    const std::uint64_t allocs0 = tensor::plan::thread_buffer_allocations();
    const auto t0 = std::chrono::steady_clock::now();
    Tensor pred = infer_(images, head.channels, head.lead_time);
    const auto t1 = std::chrono::steady_clock::now();
    const double forward_ms = ms_between(t0, t1);
    const std::uint64_t forward_allocs =
        tensor::plan::thread_buffer_allocations() - allocs0;
    DCHAG_CHECK(pred.rank() == 3 &&
                    pred.dim(0) == static_cast<Index>(n),
                "InferenceFn returned " << pred.shape().to_string()
                                        << " for a batch of " << n);

    runtime::trace_here("serve.batch.size", static_cast<double>(n));
    runtime::trace_here("serve.batch.forward_ms", forward_ms);

    for (std::size_t i = 0; i < n; ++i) {
      PendingRequest& p = batch.items[i];
      Response resp;
      resp.pred = tensor::ops::slice(pred, 0, static_cast<Index>(i), 1)
                      .reshape(tensor::Shape{pred.dim(1), pred.dim(2)});
      resp.batch_size = static_cast<Index>(n);
      resp.queue_ms = ms_between(p.enqueued, assembled);
      resp.forward_ms = forward_ms;
      const auto done = std::chrono::steady_clock::now();
      resp.total_ms = ms_between(p.enqueued, done);
      metrics_.record_request(resp.total_ms, resp.queue_ms);
      p.promise.set_value(std::move(resp));
    }
    metrics_.record_batch(n, forward_ms, forward_allocs);
    metrics_.mark_window(now_ms());
  } catch (...) {
    // A worker never leaks: the batch's requests fail individually and the
    // pool keeps serving subsequent batches.
    const std::exception_ptr err = std::current_exception();
    for (PendingRequest& p : batch.items) {
      metrics_.record_failure();
      p.promise.set_exception(err);
    }
  }
}

}  // namespace dchag::serve
