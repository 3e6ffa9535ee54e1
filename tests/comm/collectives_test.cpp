#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <vector>

#include "comm/communicator.hpp"

namespace dchag::comm {
namespace {

/// Deterministic per-rank payload so every reduction has a closed form.
std::vector<float> rank_payload(int rank, std::size_t n) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<float>(rank + 1) * 0.5f + static_cast<float>(i) * 0.25f;
  return v;
}

struct Param {
  int world;
  std::size_t n;
};

class CollectiveSweep : public ::testing::TestWithParam<Param> {};

TEST_P(CollectiveSweep, AllReduceSum) {
  const auto [P, n] = GetParam();
  World world(P);
  world.run([&](Communicator& comm) {
    auto data = rank_payload(comm.rank(), n);
    comm.all_reduce(data, ReduceOp::kSum);
    for (std::size_t i = 0; i < n; ++i) {
      // sum over ranks of (r+1)*0.5 + i*0.25
      const float expected = 0.5f * P * (P + 1) / 2.0f +
                             static_cast<float>(P) * 0.25f *
                                 static_cast<float>(i);
      ASSERT_NEAR(data[i], expected, 1e-4f)
          << "rank " << comm.rank() << " element " << i;
    }
  });
}

TEST_P(CollectiveSweep, AllReduceAvgEqualsSumOverP) {
  const auto [P, n] = GetParam();
  World world(P);
  world.run([&](Communicator& comm) {
    auto data = rank_payload(comm.rank(), n);
    comm.all_reduce(data, ReduceOp::kAvg);
    for (std::size_t i = 0; i < n; ++i) {
      const float sum = 0.5f * P * (P + 1) / 2.0f +
                        static_cast<float>(P) * 0.25f * static_cast<float>(i);
      ASSERT_NEAR(data[i], sum / static_cast<float>(P), 1e-4f);
    }
  });
}

TEST_P(CollectiveSweep, AllReduceMax) {
  const auto [P, n] = GetParam();
  World world(P);
  world.run([&](Communicator& comm) {
    auto data = rank_payload(comm.rank(), n);
    comm.all_reduce(data, ReduceOp::kMax);
    for (std::size_t i = 0; i < n; ++i) {
      const float expected =
          static_cast<float>(P) * 0.5f + static_cast<float>(i) * 0.25f;
      ASSERT_NEAR(data[i], expected, 1e-5f);
    }
  });
}

TEST_P(CollectiveSweep, AllGatherOrderedByRank) {
  const auto [P, n] = GetParam();
  World world(P);
  world.run([&](Communicator& comm) {
    auto send = rank_payload(comm.rank(), n);
    std::vector<float> recv(n * static_cast<std::size_t>(P));
    comm.all_gather(send, recv);
    for (int r = 0; r < P; ++r) {
      auto expected = rank_payload(r, n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(recv[static_cast<std::size_t>(r) * n + i], expected[i])
            << "rank " << comm.rank() << " gathered chunk " << r;
      }
    }
  });
}

TEST_P(CollectiveSweep, ReduceScatterChunkPerRank) {
  const auto [P, n] = GetParam();
  World world(P);
  world.run([&](Communicator& comm) {
    // send vector has P chunks of n elements each
    std::vector<float> send(static_cast<std::size_t>(P) * n);
    for (int c = 0; c < P; ++c) {
      for (std::size_t i = 0; i < n; ++i) {
        send[static_cast<std::size_t>(c) * n + i] =
            static_cast<float>(comm.rank() + 1) + static_cast<float>(c) +
            static_cast<float>(i) * 0.1f;
      }
    }
    std::vector<float> recv(n);
    comm.reduce_scatter(send, recv, ReduceOp::kSum);
    for (std::size_t i = 0; i < n; ++i) {
      // sum over ranks of (r+1) + my_chunk + 0.1*i
      const float expected =
          static_cast<float>(P) * (P + 1) / 2.0f +
          static_cast<float>(P) *
              (static_cast<float>(comm.rank()) + 0.1f * static_cast<float>(i));
      ASSERT_NEAR(recv[i], expected, 1e-3f);
    }
  });
}

/// ReduceScatter followed by AllGather must equal AllReduce (the identity
/// a bandwidth-optimal ring AllReduce is built on).
TEST_P(CollectiveSweep, ReduceScatterThenAllGatherEqualsAllReduce) {
  const auto [P, n_raw] = GetParam();
  const std::size_t n = std::max<std::size_t>(n_raw, 1);
  World world(P);
  world.run([&](Communicator& comm) {
    const std::size_t total = n * static_cast<std::size_t>(P);
    std::vector<float> a(total);
    for (std::size_t i = 0; i < total; ++i)
      a[i] = static_cast<float>(comm.rank()) + static_cast<float>(i) * 0.01f;
    std::vector<float> b = a;

    comm.all_reduce(a, ReduceOp::kSum);

    std::vector<float> chunk(n);
    comm.reduce_scatter(b, chunk, ReduceOp::kSum);
    std::vector<float> gathered(total);
    comm.all_gather(chunk, gathered);

    for (std::size_t i = 0; i < total; ++i)
      ASSERT_NEAR(a[i], gathered[i], 1e-3f);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, CollectiveSweep,
    ::testing::Values(Param{1, 8}, Param{2, 5}, Param{3, 10}, Param{4, 16},
                      Param{8, 3}, Param{8, 7}, Param{8, 9}),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::string("P") + std::to_string(info.param.world) + "N" +
             std::to_string(info.param.n);
    });

TEST(Collectives, Broadcast) {
  World world(4);
  world.run([&](Communicator& comm) {
    std::vector<float> data(6, comm.rank() == 2 ? 7.0f : 0.0f);
    comm.broadcast(data, 2);
    for (float x : data) ASSERT_EQ(x, 7.0f);
  });
}

TEST(Collectives, BroadcastFromEveryRoot) {
  World world(3);
  world.run([&](Communicator& comm) {
    for (int root = 0; root < comm.size(); ++root) {
      std::vector<float> data(4, static_cast<float>(comm.rank()));
      comm.broadcast(data, root);
      for (float x : data) ASSERT_EQ(x, static_cast<float>(root));
    }
  });
}

TEST(Collectives, SendRecvPingPong) {
  World world(2);
  world.run([&](Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<float> msg{1, 2, 3};
      comm.send(msg, 1, /*tag=*/0);
      std::vector<float> reply(3);
      comm.recv(reply, 1, /*tag=*/1);
      ASSERT_EQ(reply[0], 2.0f);
      ASSERT_EQ(reply[2], 6.0f);
    } else {
      std::vector<float> buf(3);
      comm.recv(buf, 0, /*tag=*/0);
      for (float& x : buf) x *= 2.0f;
      comm.send(buf, 0, /*tag=*/1);
    }
  });
}

TEST(Collectives, SendRecvTagsDisambiguate) {
  World world(2);
  world.run([&](Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<float> a{1.0f};
      std::vector<float> b{2.0f};
      comm.send(a, 1, 10);
      comm.send(b, 1, 20);
    } else {
      std::vector<float> b(1);
      std::vector<float> a(1);
      // Receive in reverse tag order: rendezvous per tag still matches.
      comm.recv(a, 0, 10);
      comm.recv(b, 0, 20);
      ASSERT_EQ(a[0], 1.0f);
      ASSERT_EQ(b[0], 2.0f);
    }
  });
}

TEST(Collectives, StatsLedgerRecordsCallsAndBytes) {
  World world(2);
  world.run([&](Communicator& comm) {
    std::vector<float> d(10, 1.0f);
    comm.all_reduce(d);
    std::vector<float> recv(20);
    comm.all_gather(std::span<const float>(d.data(), 10), recv);
    const CommStats& s = comm.stats();
    ASSERT_EQ(s.calls_of(CollectiveKind::kAllReduce), 1u);
    ASSERT_EQ(s.bytes_of(CollectiveKind::kAllReduce), 40u);
    ASSERT_EQ(s.calls_of(CollectiveKind::kAllGather), 1u);
    ASSERT_EQ(s.bytes_of(CollectiveKind::kAllGather), 80u);
    ASSERT_EQ(s.calls_of(CollectiveKind::kReduceScatter), 0u);
  });
}

TEST(Collectives, StatsResetClears) {
  World world(2);
  world.run([&](Communicator& comm) {
    std::vector<float> d(4, 1.0f);
    comm.all_reduce(d);
    comm.reset_stats();
    ASSERT_EQ(comm.stats().total_calls(), 0u);
  });
}

TEST(Collectives, RepeatedCollectivesDoNotInterfere) {
  // Stress the barrier reuse: many back-to-back collectives of mixed type.
  World world(4);
  world.run([&](Communicator& comm) {
    for (int iter = 0; iter < 50; ++iter) {
      std::vector<float> d(7, static_cast<float>(comm.rank() + iter));
      comm.all_reduce(d);
      const float expected = 4.0f * iter + 6.0f;  // sum of ranks 0..3 + 4*iter
      ASSERT_NEAR(d[0], expected, 1e-4f) << "iter " << iter;
      comm.barrier();
    }
  });
}

TEST(Collectives, SizeMismatchThrows) {
  // Local shape errors and cross-rank count disagreements alike: every
  // rank must throw (a rank left waiting would hang the run), and no rank
  // may read past a shorter peer's buffer (the sanitizer builds check).
  const std::vector<std::function<void(Communicator&)>> cases = {
      [](Communicator& comm) {  // recv should be 8
        std::vector<float> send(4);
        std::vector<float> recv(4);
        comm.all_gather(send, recv);
      },
      [](Communicator& comm) {
        std::vector<float> d(comm.rank() == 0 ? 2 : 8);
        comm.all_reduce(d);
      },
      [](Communicator& comm) {
        const std::size_t n = comm.rank() == 0 ? 2 : 8;
        std::vector<float> send(n);
        std::vector<float> recv(2 * n);
        comm.all_gather(send, recv);
      },
      [](Communicator& comm) {
        const std::size_t n = comm.rank() == 0 ? 2 : 8;
        std::vector<float> send(2 * n, 1.0f);
        std::vector<float> recv(n);
        comm.reduce_scatter(send, recv);
      },
      [](Communicator& comm) {  // the root's buffer is the shorter one
        std::vector<float> d(comm.rank() == 0 ? 2 : 8, 1.0f);
        comm.broadcast(d, 0);
      },
      [](Communicator& comm) {  // zero elements against a real payload
        std::vector<float> d(comm.rank() == 0 ? 0 : 8);
        comm.all_reduce(d);
      },
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    World world(2);
    std::atomic<int> threw{0};
    EXPECT_THROW(world.run([&](Communicator& comm) {
      try {
        cases[i](comm);
      } catch (const Error&) {
        ++threw;
        throw;
      }
    }),
                 Error)
        << "case " << i;
    EXPECT_EQ(threw.load(), 2) << "case " << i;
  }
}

TEST(Collectives, WorldRethrowsRankException) {
  World world(1);
  EXPECT_THROW(
      world.run([](Communicator&) { DCHAG_FAIL("rank failure"); }), Error);
}

}  // namespace
}  // namespace dchag::comm
