// Scopes must cross worker-thread boundaries: ThreadPool workers run
// chunks under the submitter's effective context, and AsyncCommunicator's
// progress thread runs each op under its issuer's effective context. Both
// are observed here through a recording TraceSink installed via a
// caller-side runtime::Scope — the sink sees events from the worker
// threads, and records what kernel config those threads observed.
#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "comm/async.hpp"
#include "runtime/context.hpp"
#include "tensor/kernel_config.hpp"
#include "tensor/thread_pool.hpp"

namespace dchag::runtime {
namespace {

/// Thread-safe sink recording (key, value, recording thread, and the
/// kernel backend that thread observed at record time).
class RecordingSink : public TraceSink {
 public:
  struct Entry {
    std::string key;
    double value;
    std::thread::id thread;
    KernelBackend observed_backend;
  };

  void record(const TraceEvent& event) override {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.push_back(Entry{std::string(event.key), event.value,
                             std::this_thread::get_id(),
                             active_kernel_config().backend});
  }

  [[nodiscard]] std::vector<Entry> entries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Entry> entries_;
};

TEST(ScopePropagation, ParallelForWorkersInheritSubmitterContext) {
  tensor::ThreadPool pool(2);
  auto sink = std::make_shared<RecordingSink>();

  ContextPatch patch;
  patch.kernels = tensor::KernelConfig{KernelBackend::kNaive, 0};
  patch.tracing = std::shared_ptr<TraceSink>(sink);
  Scope scope(patch);

  // 64 chunks x ~1ms: the two idle workers will claim some, and every
  // chunk records which thread ran it and what config it observed.
  constexpr tensor::Index kChunks = 64;
  pool.parallel_for(kChunks, 1, [&](tensor::Index b, tensor::Index e) {
    for (tensor::Index i = b; i < e; ++i) {
      trace_here("test.chunk", static_cast<double>(i));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  const auto entries = sink->entries();
  ASSERT_EQ(entries.size(), static_cast<std::size_t>(kChunks));
  std::set<std::thread::id> threads;
  for (const auto& entry : entries) {
    threads.insert(entry.thread);
    // Every chunk — wherever it ran — observed the submitter's override.
    EXPECT_EQ(entry.observed_backend, KernelBackend::kNaive);
  }
  EXPECT_GE(threads.size(), 2u)
      << "expected pool workers to claim some chunks";
  EXPECT_NE(threads.count(std::this_thread::get_id()), 0u)
      << "the caller participates in its own parallel_for";
}

TEST(ScopePropagation, ParallelForRestoresWorkerStateBetweenJobs) {
  tensor::ThreadPool pool(1);
  auto sink = std::make_shared<RecordingSink>();
  {
    ContextPatch patch;
    patch.kernels = tensor::KernelConfig{KernelBackend::kNaive, 0};
    patch.tracing = std::shared_ptr<TraceSink>(sink);
    Scope scope(patch);
    pool.parallel_for(8, 1, [](tensor::Index, tensor::Index) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
  }
  // Scope gone: a second job must observe the surrounding (default)
  // config on every lane — the worker's Scope was popped with the job.
  std::mutex mu;
  std::vector<KernelBackend> seen;
  pool.parallel_for(8, 1, [&](tensor::Index, tensor::Index) {
    std::lock_guard<std::mutex> lock(mu);
    seen.push_back(active_kernel_config().backend);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  const KernelBackend ambient = active_kernel_config().backend;
  for (KernelBackend b : seen) EXPECT_EQ(b, ambient);
}

TEST(ScopePropagation, AsyncProgressThreadInheritsIssuerContext) {
  comm::World world(2);
  world.run([](comm::Communicator& comm) {
    comm::AsyncCommunicator async(comm);
    auto sink = std::make_shared<RecordingSink>();
    const std::vector<float> data(64, 1.0f);
    std::vector<float> gathered(128);
    {
      ContextPatch patch;
      patch.kernels = tensor::KernelConfig{KernelBackend::kNaive, 0};
      patch.tracing = std::shared_ptr<TraceSink>(sink);
      Scope scope(patch);
      comm::CommFuture fut = async.iall_gather(data, gathered);
      fut.wait();
    }

    const auto entries = sink->entries();
    ASSERT_EQ(entries.size(), 1u)
        << "the issuer's sink must observe the async op";
    EXPECT_EQ(entries[0].key, "comm.async.op.bytes");
    EXPECT_EQ(entries[0].value, 128.0 * sizeof(float));
    // The op ran on the progress thread, not the issuing rank thread —
    // and that thread observed the issuer's kernel override.
    EXPECT_NE(entries[0].thread, std::this_thread::get_id());
    EXPECT_EQ(entries[0].observed_backend, KernelBackend::kNaive);
  });
}

TEST(ScopePropagation, SyncCollectiveLeavesIssuerScopeUntouched) {
  // The sync oracle runs inline: same thread, same scope, no surprises.
  comm::World world(2);
  world.run([](comm::Communicator& comm) {
    comm::SyncCollective sync(comm);
    const std::vector<float> data(8, static_cast<float>(comm.rank()));
    std::vector<float> gathered(16);
    Scope scope(ContextPatch::with_kernels({KernelBackend::kBlocked, 0}));
    comm::CommFuture fut = sync.iall_gather(data, gathered);
    fut.wait();
    EXPECT_EQ(active_kernel_config().backend, KernelBackend::kBlocked);
    EXPECT_EQ(gathered[0], 0.0f);  // rank 0's block, then rank 1's
    EXPECT_EQ(gathered[8], 1.0f);
  });
}

}  // namespace
}  // namespace dchag::runtime
