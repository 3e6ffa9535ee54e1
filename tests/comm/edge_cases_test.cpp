// Edge cases and failure-injection for the SPMD runtime.
#include <gtest/gtest.h>

#include "comm/async.hpp"
#include "comm/communicator.hpp"

namespace dchag::comm {
namespace {

TEST(CommEdge, FewerElementsThanRanks) {
  // n < P: results must still be exact.
  World world(8);
  world.run([](Communicator& comm) {
    std::vector<float> d{static_cast<float>(comm.rank()), 1.0f};
    comm.all_reduce(d);
    ASSERT_EQ(d[0], 28.0f);  // 0+1+...+7
    ASSERT_EQ(d[1], 8.0f);
  });
}

TEST(CommEdge, SingleElementAllReduce) {
  World world(4);
  world.run([](Communicator& comm) {
    std::vector<float> d{1.0f};
    comm.all_reduce(d);
    ASSERT_EQ(d[0], 4.0f);
  });
}

TEST(CommEdge, MinAndAvgOnEightRanks) {
  World world(8);
  world.run([](Communicator& comm) {
    std::vector<float> mn{static_cast<float>(comm.rank())};
    comm.all_reduce(mn, ReduceOp::kMin);
    ASSERT_EQ(mn[0], 0.0f);
    std::vector<float> avg{static_cast<float>(comm.rank())};
    comm.all_reduce(avg, ReduceOp::kAvg);
    ASSERT_NEAR(avg[0], 3.5f, 1e-6f);
  });
}

TEST(CommEdge, WorldReusableAcrossRuns) {
  World world(4);
  for (int round = 0; round < 3; ++round) {
    world.run([round](Communicator& comm) {
      std::vector<float> d{static_cast<float>(comm.rank() + round)};
      comm.all_reduce(d);
      ASSERT_EQ(d[0], 6.0f + 4.0f * round);
    });
  }
}

TEST(CommEdge, ReduceScatterUnevenChunks) {
  // recv size 3 with 4 ranks: send is 12 elements, and every rank's chunk
  // must start and end at exactly its own boundaries.
  World world(4);
  world.run([](Communicator& comm) {
    std::vector<float> send(12);
    for (std::size_t i = 0; i < send.size(); ++i)
      send[i] = static_cast<float>(comm.rank() + 1) * static_cast<float>(i);
    std::vector<float> recv(3);
    comm.reduce_scatter(send, recv);
    for (std::size_t i = 0; i < 3; ++i) {
      const float idx =
          static_cast<float>(comm.rank()) * 3.0f + static_cast<float>(i);
      ASSERT_EQ(recv[i], 10.0f * idx);  // (1+2+3+4) * element index
    }
  });
}

TEST(CommEdge, BroadcastInvalidRootThrows) {
  World world(2);
  EXPECT_THROW(world.run([](Communicator& comm) {
    std::vector<float> d(3);
    comm.broadcast(d, 5);
  }),
               Error);
}

TEST(CommEdge, SendToSelfThrows) {
  World world(2);
  EXPECT_THROW(world.run([](Communicator& comm) {
    std::vector<float> d(1);
    if (comm.rank() == 0) comm.send(d, 0, 0);
    // rank 1 throws too so the run stays symmetric
    if (comm.rank() == 1) comm.recv(d, 1, 0);
  }),
               Error);
}

TEST(CommEdge, ZeroElementCollectivesSync) {
  // Empty payloads are legal rendezvous: no data moves, nothing derefs a
  // null span, and the group stays usable for real traffic afterwards.
  World world(4);
  world.run([](Communicator& comm) {
    std::vector<float> empty;
    comm.all_reduce(empty);
    comm.all_gather(empty, empty);
    comm.reduce_scatter(empty, empty);
    comm.broadcast(empty, 0);
    ASSERT_EQ(comm.stats().bytes_of(CollectiveKind::kAllReduce), 0u);
    // The group still works after the degenerate calls.
    std::vector<float> d{1.0f};
    comm.all_reduce(d);
    ASSERT_EQ(d[0], 4.0f);
  });
}

TEST(CommEdge, ZeroElementCollectivesAsync) {
  World world(4);
  world.run([](Communicator& comm) {
    AsyncCommunicator async(comm);
    std::vector<float> empty;
    CommFuture f1 = async.iall_gather(empty, empty);
    CommFuture f2 = async.iall_gather(empty, empty);
    f1.wait();
    f2.wait();
    const std::vector<float> d{static_cast<float>(comm.rank())};
    std::vector<float> all(4);
    CommFuture f3 = async.iall_gather(d, all);
    f3.wait();
    ASSERT_EQ(all, (std::vector<float>{0.0f, 1.0f, 2.0f, 3.0f}));
  });
}

TEST(CommEdge, SingleRankCollectivesSync) {
  // P = 1 worlds must behave as identities (gather/scatter degenerate to
  // copies, avg of one value is itself) for every collective.
  World world(1);
  world.run([](Communicator& comm) {
    std::vector<float> d{3.0f, 4.0f};
    comm.all_reduce(d, ReduceOp::kAvg);
    ASSERT_EQ(d[0], 3.0f);
    std::vector<float> send{5.0f, 6.0f};
    std::vector<float> recv(2, 0.0f);
    comm.all_gather(send, recv);
    ASSERT_EQ(recv, send);
    std::vector<float> rs(2, 0.0f);
    comm.reduce_scatter(send, rs, ReduceOp::kMax);
    ASSERT_EQ(rs, send);
    std::vector<float> bc{7.0f};
    comm.broadcast(bc, 0);
    ASSERT_EQ(bc[0], 7.0f);
    comm.barrier();
  });
}

TEST(CommEdge, SingleRankCollectivesAsync) {
  World world(1);
  world.run([](Communicator& comm) {
    AsyncCommunicator async(comm);
    ASSERT_EQ(async.size(), 1);
    const std::vector<float> send{5.0f, 6.0f};
    std::vector<float> recv(2, 0.0f);
    CommFuture f = async.iall_gather(send, recv);
    f.wait();
    ASSERT_EQ(recv, send);
  });
}

TEST(CommEdge, LargePayloadAllReduce) {
  World world(4);
  world.run([](Communicator& comm) {
    std::vector<float> d(1 << 18, 1.0f);  // 1 MiB per rank
    comm.all_reduce(d);
    ASSERT_EQ(d.front(), 4.0f);
    ASSERT_EQ(d.back(), 4.0f);
    ASSERT_EQ(d[12345], 4.0f);
  });
}

}  // namespace
}  // namespace dchag::comm
