#include "comm/async.hpp"

namespace dchag::comm {

// ----- SyncCollective --------------------------------------------------------

CommFuture SyncCollective::iall_gather(std::span<const float> send,
                                       std::span<float> recv) {
  // Capture failures into the future instead of throwing here so sync and
  // async callers see errors at the same place: wait().
  auto state = std::make_shared<detail::FutureState>();
  try {
    comm_->all_gather(send, recv);
  } catch (...) {
    state->error = std::current_exception();
  }
  state->done = true;
  return CommFuture(std::move(state));
}

// ----- AsyncCommunicator -----------------------------------------------------

AsyncCommunicator::AsyncCommunicator(Communicator& parent)
    // split(color=0) with the parent rank as key: a same-membership,
    // same-order twin group whose barriers are private to the progress
    // threads — in-flight traffic can never collide with blocking
    // collectives the rank threads keep issuing on the parent.
    : shadow_(parent.split(0, parent.rank())),
      progress_([this] { progress_loop(); }) {}

AsyncCommunicator::~AsyncCommunicator() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_ops_.notify_all();
  progress_.join();
}

void AsyncCommunicator::progress_loop() {
  for (;;) {
    PendingOp op;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_ops_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      // Drain everything already issued even when stopping: peers' progress
      // threads are inside the same collectives and must not be abandoned.
      if (queue_.empty()) return;
      op = std::move(queue_.front());
      queue_.pop_front();
    }
    std::exception_ptr err;
    {
      // The op runs under the ISSUER's effective context: a scope active
      // on the rank thread at issue time is visible here (and its tracing
      // sink observes the op completing on this progress thread).
      runtime::Scope ctx_scope(op.ctx);
      try {
        shadow_.all_gather(op.send, op.recv);
      } catch (...) {
        err = std::current_exception();
      }
      if (!err) {
        // Metrics emission must never fail the comm path: a throwing
        // sink cannot turn a completed collective into a failed future.
        try {
          runtime::trace_here("comm.async.op.bytes",
                              static_cast<double>(op.recv.size_bytes()));
        } catch (...) {
        }
      }
    }
    {
      std::lock_guard<std::mutex> lock(op.state->mu);
      op.state->error = std::move(err);
      op.state->done = true;
    }
    op.state->cv.notify_all();
  }
}

CommFuture AsyncCommunicator::iall_gather(std::span<const float> send,
                                          std::span<float> recv) {
  auto state = std::make_shared<detail::FutureState>();
  {
    std::lock_guard<std::mutex> lock(mu_);
    DCHAG_CHECK(!stop_, "issue on a stopped AsyncCommunicator");
    queue_.push_back(
        PendingOp{send, recv, state, runtime::Context::current()});
  }
  cv_ops_.notify_one();
  return CommFuture(std::move(state));
}

}  // namespace dchag::comm
