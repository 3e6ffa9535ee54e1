// Non-blocking AllGather over the in-process SPMD runtime.
//
// ICollective is the issue-side interface of the D-CHAG forward's one
// collective: iall_gather returns a waitable CommFuture immediately. Two
// implementations share it:
//
//   SyncCollective    — the parity oracle. Runs the blocking all_gather
//                       inline on the caller's communicator and returns an
//                       already-completed future. Identical data path,
//                       zero overlap: any code written against ICollective
//                       can flip to it for bit-exact baseline runs.
//   AsyncCommunicator — real overlap. A per-rank progress thread drains a
//                       FIFO of issued gathers against a SHADOW
//                       communicator (split() twin of the parent group), so
//                       in-flight traffic rendezvouses
//                       progress-thread-to-progress-thread while the rank
//                       thread keeps computing.
//
// Usage contract (inherited from the blocking layer, per-implementation
// ordering added): every rank must issue the same gathers in the same
// order, and a buffer handed to iall_gather stays owned by the runtime
// until that op's future completes. wait() rethrows an op's failure on the
// waiting thread.
//
// Sync vs async (plus the forward pipeline depth) is the comm slice of
// the unified runtime::Context: CommMode/CommConfig are aliases of the
// runtime types, process defaults come from Context::from_env()
// (DCHAG_COMM / DCHAG_COMM_CHUNKS) so CI can run the whole suite under
// either mode without code changes, and runtime::Scope overrides per
// thread.
#pragma once

#include <deque>
#include <string>
#include <thread>

#include "comm/communicator.hpp"
#include "runtime/context.hpp"

namespace dchag::comm {

namespace detail {
struct FutureState {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::exception_ptr error;
};
}  // namespace detail

/// Waitable handle to one issued collective. Copyable (shared state);
/// default-constructed futures are vacuously ready.
class CommFuture {
 public:
  CommFuture() = default;
  explicit CommFuture(std::shared_ptr<detail::FutureState> state)
      : state_(std::move(state)) {}

  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  [[nodiscard]] bool ready() const {
    if (!state_) return true;
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->done;
  }

  /// Blocks until the op completes; rethrows the op's exception if it
  /// failed. Idempotent (and re-throwing on every call for failed ops).
  void wait() const {
    if (!state_) return;
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [&] { return state_->done; });
    if (state_->error) std::rethrow_exception(state_->error);
  }

 private:
  std::shared_ptr<detail::FutureState> state_;
};

/// Issue-side interface for the non-blocking AllGather. Buffer spans must
/// stay alive and untouched until the returned future completes.
class ICollective {
 public:
  virtual ~ICollective() = default;

  [[nodiscard]] virtual int rank() const = 0;
  [[nodiscard]] virtual int size() const = 0;

  /// Concatenates every rank's `send` into `recv` (rank order);
  /// recv.size() must be send.size() * size() on every rank.
  [[nodiscard]] virtual CommFuture iall_gather(std::span<const float> send,
                                               std::span<float> recv) = 0;
};

/// Blocking-execution oracle: each gather completes before it returns, on
/// the caller's own communicator (stats land there too). Constructing one
/// is rank-local and free.
class SyncCollective final : public ICollective {
 public:
  explicit SyncCollective(Communicator& comm) : comm_(&comm) {}

  [[nodiscard]] int rank() const override { return comm_->rank(); }
  [[nodiscard]] int size() const override { return comm_->size(); }

  [[nodiscard]] CommFuture iall_gather(std::span<const float> send,
                                       std::span<float> recv) override;

 private:
  Communicator* comm_;
};

/// Progress-thread implementation. CONSTRUCTION IS COLLECTIVE: it calls
/// parent.split() to carve the shadow group, so every rank of the parent
/// must construct its AsyncCommunicator together (same for destruction —
/// destroy only once all of this rank's issued ops are waited, which
/// symmetric SPMD code gets for free).
class AsyncCommunicator final : public ICollective {
 public:
  explicit AsyncCommunicator(Communicator& parent);
  ~AsyncCommunicator() override;
  AsyncCommunicator(const AsyncCommunicator&) = delete;
  AsyncCommunicator& operator=(const AsyncCommunicator&) = delete;

  [[nodiscard]] int rank() const override { return shadow_.rank(); }
  [[nodiscard]] int size() const override { return shadow_.size(); }

  [[nodiscard]] CommFuture iall_gather(std::span<const float> send,
                                       std::span<float> recv) override;

 private:
  struct PendingOp {
    std::span<const float> send;
    std::span<float> recv;
    std::shared_ptr<detail::FutureState> state;
    /// The issuing thread's effective context: the progress thread runs
    /// the op under it (runtime::Scope), so overrides — tracing sink
    /// included — cross the issue/progress boundary.
    runtime::Context ctx;
  };

  void progress_loop();

  Communicator shadow_;

  std::mutex mu_;
  std::condition_variable cv_ops_;  ///< progress thread waits for work
  std::deque<PendingOp> queue_;
  bool stop_ = false;
  std::thread progress_;  ///< last member: starts after state is ready
};

/// Sync-vs-async switch consumed by the D-CHAG front-end, serving, and
/// training — the comm slice of the unified runtime::Context.
/// pipeline_chunks is the forward's software-pipeline depth (micro-chunks
/// of the batch, double-buffered); 1 = one chunk, one gather.
using CommMode = runtime::CommMode;
using CommConfig = runtime::CommConfig;

using runtime::parse_comm_mode;
using runtime::to_string;

}  // namespace dchag::comm
