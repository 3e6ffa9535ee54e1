#include "tensor/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

#include "runtime/context.hpp"
#include "tensor/kernel_config.hpp"

namespace dchag::tensor {

namespace {

/// Set while this thread runs a chunk; nested parallel_for goes inline.
thread_local bool t_in_parallel_region = false;

}  // namespace

/// One parallel_for invocation. Chunks are handed out through the `next`
/// cursor; `completed` counts finished chunks. Lifetime: the caller only
/// destroys the job after (a) every chunk completed and (b) every worker
/// that claimed an announcement has exited (`exited == active`, with
/// `active` frozen by removing unclaimed announcements under the pool
/// mutex first). Workers notify under `done_mu` so the notification
/// itself finishes before the caller can wake and free the job.
struct ParallelJob {
  Index n = 0;
  Index chunk = 0;
  Index nchunks = 0;
  const std::function<void(Index, Index)>* fn = nullptr;
  /// The submitter's effective context; workers (not the caller, who
  /// already carries it) scope into this before running chunks.
  const runtime::Context* ctx = nullptr;

  std::atomic<Index> next{0};
  std::atomic<Index> completed{0};
  std::atomic<int> active{0};  // workers that claimed an announcement
  std::atomic<int> exited{0};  // workers done touching this job
  std::atomic<bool> failed{false};
  std::mutex err_mu;
  std::exception_ptr error;

  std::mutex done_mu;
  std::condition_variable done_cv;

  void run_chunks() {
    const bool outer = !t_in_parallel_region;
    t_in_parallel_region = true;
    for (;;) {
      const Index c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= nchunks) break;
      if (!failed.load(std::memory_order_relaxed)) {
        const Index begin = c * chunk;
        const Index end = std::min(n, begin + chunk);
        try {
          (*fn)(begin, end);
        } catch (...) {
          std::lock_guard<std::mutex> lock(err_mu);
          if (!error) error = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
        }
      }
      completed.fetch_add(1, std::memory_order_acq_rel);
    }
    if (outer) t_in_parallel_region = false;
  }

  void worker_done() {
    std::lock_guard<std::mutex> lock(done_mu);
    exited.fetch_add(1, std::memory_order_acq_rel);
    done_cv.notify_all();  // inside the lock: see lifetime note above
  }
};

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<ParallelJob*> jobs;  // pending fan-out announcements
  bool stop = false;

  void worker_loop() {
    for (;;) {
      ParallelJob* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return stop || !jobs.empty(); });
        if (stop && jobs.empty()) return;
        job = jobs.front();
        jobs.pop_front();
        job->active.fetch_add(1, std::memory_order_relaxed);
      }
      {
        // Chunks observe the submitting thread's effective context —
        // overrides cross the fan-out instead of stopping at the pool.
        runtime::Scope ctx_scope(*job->ctx);
        job->run_chunks();
      }
      job->worker_done();
    }
  }
};

ThreadPool::ThreadPool(int workers) : impl_(std::make_unique<Impl>()) {
  DCHAG_CHECK(workers >= 0, "ThreadPool workers must be >= 0");
  threads_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stop = true;
  }
  impl_->cv.notify_all();
  for (std::thread& t : threads_) t.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    // Sized from the ENVIRONMENT's thread budget (Context::from_env
    // reads DCHAG_THREADS), deliberately not from the mutable process
    // default: KernelConfig::threads on a Context is a per-parallel_for
    // lane cap and must never resize the process pool. 0 = one lane per
    // hardware thread; the caller of a parallel_for is a lane, so the
    // pool spawns lanes - 1 workers.
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    int lanes = runtime::Context::from_env().kernels().threads;
    if (lanes <= 0) lanes = std::max(1, hw);
    return std::max(0, lanes - 1);
  }());
  return pool;
}

bool ThreadPool::in_parallel_region() { return t_in_parallel_region; }

void ThreadPool::parallel_for(Index n, Index grain,
                              const std::function<void(Index, Index)>& fn,
                              int max_lanes) {
  if (n <= 0) return;
  grain = std::max<Index>(grain, 1);
  int fan = lanes();
  if (max_lanes > 0) fan = std::min(fan, max_lanes);
  const Index nchunks = std::min<Index>(fan, (n + grain - 1) / grain);
  if (nchunks <= 1 || workers() == 0 || t_in_parallel_region) {
    fn(0, n);
    return;
  }

  ParallelJob job;
  job.n = n;
  job.chunk = (n + nchunks - 1) / nchunks;
  // Recompute the chunk count from the rounded-up chunk size: with e.g.
  // n=9 over 8 lanes the naive count would leave trailing chunks whose
  // begin lies past n, handing fn an inverted range.
  job.nchunks = (n + job.chunk - 1) / job.chunk;
  job.fn = &fn;
  const runtime::Context submitter_ctx = runtime::Context::current();
  job.ctx = &submitter_ctx;

  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    // One announcement per helper we could use; a worker that arrives
    // after the cursor drained exits run_chunks immediately.
    for (Index i = 1; i < nchunks; ++i) impl_->jobs.push_back(&job);
  }
  impl_->cv.notify_all();

  job.run_chunks();  // the caller is a full lane, not just a waiter

  // The caller's run_chunks only returns once the cursor is drained, so
  // every chunk is claimed; unclaimed announcements are now pure surplus.
  // Removing them under the pool mutex freezes `active`.
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    auto& q = impl_->jobs;
    q.erase(std::remove(q.begin(), q.end(), &job), q.end());
  }
  {
    std::unique_lock<std::mutex> lock(job.done_mu);
    job.done_cv.wait(lock, [&] {
      return job.completed.load(std::memory_order_acquire) == job.nchunks &&
             job.exited.load(std::memory_order_acquire) ==
                 job.active.load(std::memory_order_acquire);
    });
  }
  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace dchag::tensor
