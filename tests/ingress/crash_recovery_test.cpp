// Worker-kill integration: deterministic mid-request crashes (the seeded
// CrashSpec plan), bit-exact answers via redispatch to survivors, the
// pool healing back to target size, and graceful drain afterwards.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "ingress/client.hpp"
#include "ingress/dispatcher.hpp"
#include "ingress_test_util.hpp"

namespace dchag::ingress {
namespace {

using testutil::TrainedModel;

TEST(CrashRecovery, MidRequestCrashesAreRedispatchedBitExactly) {
  TrainedModel trained;
  IngressConfig cfg = testutil::base_config(trained);
  cfg.min_workers = 2;
  cfg.max_workers = 2;
  cfg.ring.slots = 2;
  cfg.queue_capacity = 64;
  // Worker 0 dies serving its 2nd request, worker 1 dies serving its 3rd
  // — both mid-request (consumed, unanswered), the worst-case loss.
  cfg.crash_plan = {CrashSpec{0, 2}, CrashSpec{1, 3}};
  Ingress ingress(cfg);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Client client(ingress.port());
      for (int i = 0; i < kPerThread; ++i) {
        const std::uint64_t seed =
            500 + static_cast<std::uint64_t>(t * kPerThread + i);
        // Mix full-channel and subset requests across the crash window.
        const std::vector<Index> channels =
            i % 3 == 1 ? std::vector<Index>{0, 2} : std::vector<Index>{};
        const Index c = channels.empty()
                            ? testutil::kChannels
                            : static_cast<Index>(channels.size());
        const Tensor images = testutil::sample_image(seed, c);
        try {
          const Tensor pred = client.infer(images, channels);
          testutil::expect_bit_exact(
              pred, trained.reference(images, channels));
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0)
      << "every request must be answered despite both planned crashes";

  // The pool heals back to its target size.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (ingress.worker_count() < 2 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(ingress.worker_count(), 2u);

  const Counters::Snapshot c = ingress.counters();
  EXPECT_EQ(c.worker_restarts, 2u);
  EXPECT_GE(c.redispatches, 2u)
      << "each planned crash loses its in-flight request to redispatch";
  EXPECT_EQ(c.accepted, c.completed);
  EXPECT_EQ(c.accepted,
            static_cast<std::uint64_t>(kThreads * kPerThread));

  const serve::Metrics::Snapshot m = ingress.metrics();
  EXPECT_EQ(m.requests, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(m.recoveries, 2u);

  ingress.drain();
  EXPECT_EQ(ingress.counters().queue_depth, 0u);
}

TEST(CrashRecovery, CrashDuringDrainStillAnswersEverything) {
  TrainedModel trained;
  IngressConfig cfg = testutil::base_config(trained);
  cfg.min_workers = 1;
  cfg.max_workers = 1;
  cfg.ring.slots = 1;
  cfg.queue_capacity = 64;
  // The only worker dies mid-drain (on its 2nd request); the monitor must
  // respawn even while draining so admitted work still completes.
  cfg.crash_plan = {CrashSpec{0, 2}};
  Ingress ingress(cfg);

  constexpr int kClients = 8;
  std::atomic<int> ok{0}, rejected{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      const Tensor images =
          testutil::sample_image(700 + static_cast<std::uint64_t>(i));
      try {
        Client client(ingress.port());
        const Tensor pred = client.infer(images);
        testutil::expect_bit_exact(pred, trained.reference(images));
        ok.fetch_add(1);
      } catch (const IngressError& e) {
        EXPECT_EQ(e.code(), ErrorCode::kShuttingDown);
        rejected.fetch_add(1);
      } catch (const std::exception&) {
        // The drain beat this client to the listener; nothing of its was
        // admitted, so nothing was dropped.
        rejected.fetch_add(1);
      }
    });
  }
  while (ingress.queue_depth() < 2) std::this_thread::yield();
  ingress.drain();
  for (std::thread& t : threads) t.join();

  const Counters::Snapshot c = ingress.counters();
  EXPECT_EQ(c.accepted, c.completed)
      << "a crash during drain must not lose admitted work";
  EXPECT_EQ(c.accepted, static_cast<std::uint64_t>(ok.load()));
  EXPECT_EQ(ok.load() + rejected.load(), kClients);
  EXPECT_GE(c.worker_restarts, 1u);
}

TEST(CrashRecovery, WorkerWithWrongArgCountPrintsUsageAndExits2) {
  // The crash point now rides on the worker's command line; a spawn that
  // lost an argument must fail loudly, never serve with a default.
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{},
        std::vector<std::string>{"ring"},
        std::vector<std::string>{"ring", "tiny:4:2", ""},
        std::vector<std::string>{"ring", "tiny:4:2", "", "0", "extra"}}) {
    const testutil::WorkerRun run = testutil::run_worker_main(args);
    EXPECT_EQ(run.code, 2) << args.size() << " args";
    EXPECT_NE(run.err.find("usage: dchag_ingress_worker <shm-ring-name> "
                           "<model-spec> <checkpoint> <crash-after>"),
              std::string::npos)
        << run.err;
  }
}

}  // namespace
}  // namespace dchag::ingress
