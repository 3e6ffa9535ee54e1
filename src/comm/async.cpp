#include "comm/async.hpp"

namespace dchag::comm {

namespace {

std::uint64_t bytes_of(std::size_t n) {
  return static_cast<std::uint64_t>(n) * sizeof(float);
}

std::shared_ptr<detail::FutureState> completed_state(std::exception_ptr err) {
  auto st = std::make_shared<detail::FutureState>();
  st->done = true;
  st->error = std::move(err);
  return st;
}

}  // namespace

// ----- SyncCollective --------------------------------------------------------

CommFuture SyncCollective::run_inline(
    const std::function<void(Communicator&)>& fn) {
  // Capture failures into the future instead of throwing here so sync and
  // async callers see errors at the same place: wait().
  std::exception_ptr err;
  try {
    fn(*comm_);
  } catch (...) {
    err = std::current_exception();
  }
  return CommFuture(completed_state(std::move(err)));
}

CommFuture SyncCollective::do_iall_reduce(std::span<float> data,
                                          ReduceOp op) {
  return run_inline([=](Communicator& c) { c.all_reduce(data, op); });
}

CommFuture SyncCollective::do_iall_gather(std::span<const float> send,
                                          std::span<float> recv) {
  return run_inline([=](Communicator& c) { c.all_gather(send, recv); });
}

CommFuture SyncCollective::do_ireduce_scatter(std::span<const float> send,
                                              std::span<float> recv,
                                              ReduceOp op) {
  return run_inline([=](Communicator& c) { c.reduce_scatter(send, recv, op); });
}

CommFuture SyncCollective::do_ibroadcast(std::span<float> data, int root) {
  return run_inline([=](Communicator& c) { c.broadcast(data, root); });
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
        op.fn(shadow_);
      } catch (...) {
        err = std::current_exception();
      }
      if (!err) {
        // Metrics emission must never fail the comm path: a throwing
        // sink cannot turn a completed collective into a failed future.
        try {
          runtime::trace_here("comm.async.op.bytes",
                              static_cast<double>(op.bytes));
        } catch (...) {
        }
      }
    }
    {
      // One critical section for completion AND accounting: a thread that
      // saw the future done must also see in_flight_ decremented, and a
      // drain() that saw in_flight_ == 0 must find every future ready.
      std::scoped_lock lock(mu_, op.state->mu);
      op.state->error = std::move(err);
      op.state->done = true;
      --in_flight_;
    }
    op.state->cv.notify_all();
    cv_idle_.notify_all();
  }
}

CommFuture AsyncCommunicator::enqueue(CollectiveKind kind,
                                      std::uint64_t bytes,
                                      std::function<void(Communicator&)> fn) {
  stats_.record(kind, bytes);
  auto state = std::make_shared<detail::FutureState>();
  {
    std::lock_guard<std::mutex> lock(mu_);
    DCHAG_CHECK(!stop_, "issue on a stopped AsyncCommunicator");
    queue_.push_back(
        PendingOp{std::move(fn), state, runtime::Context::current(), bytes});
    ++in_flight_;
  }
  cv_ops_.notify_one();
  return CommFuture(std::move(state));
}

CommFuture AsyncCommunicator::do_iall_reduce(std::span<float> data,
                                             ReduceOp op) {
  return enqueue(CollectiveKind::kAllReduce, bytes_of(data.size()),
                 [=](Communicator& c) { c.all_reduce(data, op); });
}

CommFuture AsyncCommunicator::do_iall_gather(std::span<const float> send,
                                             std::span<float> recv) {
  return enqueue(CollectiveKind::kAllGather, bytes_of(recv.size()),
                 [=](Communicator& c) { c.all_gather(send, recv); });
}

CommFuture AsyncCommunicator::do_ireduce_scatter(std::span<const float> send,
                                                 std::span<float> recv,
                                                 ReduceOp op) {
  return enqueue(CollectiveKind::kReduceScatter, bytes_of(send.size()),
                 [=](Communicator& c) { c.reduce_scatter(send, recv, op); });
}

CommFuture AsyncCommunicator::do_ibroadcast(std::span<float> data, int root) {
  return enqueue(CollectiveKind::kBroadcast, bytes_of(data.size()),
                 [=](Communicator& c) { c.broadcast(data, root); });
}

void AsyncCommunicator::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [&] { return in_flight_ == 0; });
}

std::size_t AsyncCommunicator::in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_flight_;
}

}  // namespace dchag::comm
