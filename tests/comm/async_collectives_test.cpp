// Non-blocking AllGather: ICollective futures must deliver exactly the
// blocking results, tolerate many in-flight ops and out-of-order waits,
// and surface per-op failures at wait() — under quiet and faulty worlds.
#include <gtest/gtest.h>

#include <numeric>

#include "comm/async.hpp"
#include "comm/fault.hpp"

namespace dchag::comm {
namespace {

std::vector<float> iota_data(int rank, std::size_t n) {
  std::vector<float> d(n);
  std::iota(d.begin(), d.end(), static_cast<float>(rank) * 100.0f);
  return d;
}

TEST(AsyncCollectives, AllGatherMatchesBlockingResult) {
  World world(4);
  world.run([](Communicator& comm) {
    AsyncCommunicator async(comm);
    const auto P = static_cast<std::size_t>(comm.size());
    for (std::size_t n : {std::size_t{1}, std::size_t{12}, std::size_t{257}}) {
      // Blocking reference result on the parent communicator.
      const std::vector<float> send = iota_data(comm.rank(), n);
      std::vector<float> ref(n * P);
      comm.all_gather(send, ref);

      std::vector<float> got(n * P, -1.0f);
      CommFuture f = async.iall_gather(send, got);
      f.wait();
      ASSERT_EQ(got, ref) << "n=" << n;
    }
  });
}

TEST(AsyncCollectives, ManyInFlightWaitedOutOfOrder) {
  World world(3);
  world.run([](Communicator& comm) {
    AsyncCommunicator async(comm);
    constexpr int kOps = 8;
    std::vector<std::vector<float>> sends;
    std::vector<std::vector<float>> recvs;
    sends.reserve(kOps);
    recvs.reserve(kOps);
    std::vector<CommFuture> futs;
    for (int i = 0; i < kOps; ++i) {
      sends.push_back({static_cast<float>(comm.rank() + i), 1.0f});
      recvs.emplace_back(2 * static_cast<std::size_t>(comm.size()));
      futs.push_back(async.iall_gather(sends.back(), recvs.back()));
    }
    // Waiting newest-first must still observe every op's exact result:
    // completion is FIFO internally, wait order is the caller's business.
    for (int i = kOps - 1; i >= 0; --i) {
      futs[static_cast<std::size_t>(i)].wait();
      const auto& r = recvs[static_cast<std::size_t>(i)];
      for (int src = 0; src < comm.size(); ++src) {
        ASSERT_EQ(r[2 * static_cast<std::size_t>(src)],
                  static_cast<float>(src + i));
        ASSERT_EQ(r[2 * static_cast<std::size_t>(src) + 1], 1.0f);
      }
    }
  });
}

TEST(AsyncCollectives, SyncCollectiveIsEagerAndBitIdenticalToAsync) {
  World world(4);
  world.run([](Communicator& comm) {
    SyncCollective sync(comm);
    AsyncCommunicator async(comm);
    const std::vector<float> send = iota_data(comm.rank(), 33);
    std::vector<float> via_sync(send.size() * 4);
    std::vector<float> via_async(send.size() * 4);
    CommFuture fs = sync.iall_gather(send, via_sync);
    ASSERT_TRUE(fs.ready());  // the oracle completes at issue time
    fs.wait();
    CommFuture fa = async.iall_gather(send, via_async);
    fa.wait();
    for (std::size_t i = 0; i < via_sync.size(); ++i)
      ASSERT_EQ(via_sync[i], via_async[i]);
  });
}

TEST(AsyncCollectives, OpFailureSurfacesAtWaitAndLaneKeepsServing) {
  World world(2);
  world.run([](Communicator& comm) {
    AsyncCommunicator async(comm);
    std::vector<float> send(4);
    std::vector<float> recv(5);  // wrong: must be send * P = 8 on all ranks
    CommFuture bad = async.iall_gather(send, recv);
    EXPECT_THROW(bad.wait(), Error);
    // The failed op never reached a rendezvous (it threw validating its
    // arguments), so the shadow group is intact and later ops still work.
    const std::vector<float> mine{static_cast<float>(comm.rank())};
    std::vector<float> all(2);
    CommFuture good = async.iall_gather(mine, all);
    good.wait();
    ASSERT_EQ(all, (std::vector<float>{0.0f, 1.0f}));
  });
}

TEST(AsyncCollectives, ExactUnderFaultyWorldSchedules) {
  FaultSpec spec;
  spec.seed = 99;
  spec.min_edge_delay_us = 1;
  spec.max_edge_delay_us = 200;
  spec.drop_prob = 0.4;
  spec.retry_backoff_us = 20;
  spec.max_completion_jitter_us = 150;
  FaultyWorld world(4, spec);
  world.run([](Communicator& comm) {
    AsyncCommunicator async(comm);
    for (int round = 0; round < 4; ++round) {
      const std::vector<float> d{static_cast<float>(comm.rank() + round),
                                 7.0f};
      std::vector<float> all(8);
      CommFuture f = async.iall_gather(d, all);
      f.wait();
      for (int src = 0; src < 4; ++src) {
        ASSERT_EQ(all[2 * static_cast<std::size_t>(src)],
                  static_cast<float>(src + round));
        ASSERT_EQ(all[2 * static_cast<std::size_t>(src) + 1], 7.0f);
      }
    }
  });
  // The plan must actually have fired (delays and/or retries injected) —
  // otherwise this test exercises nothing.
  ASSERT_GT(world.plan().injections(), 0u);
  ASSERT_GT(world.plan().injected_delay_us(), 0u);
}

}  // namespace
}  // namespace dchag::comm
