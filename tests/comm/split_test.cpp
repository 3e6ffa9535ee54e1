#include <gtest/gtest.h>

#include <vector>

#include "comm/communicator.hpp"

namespace dchag::comm {
namespace {

TEST(Split, GroupsIsolateCollectives) {
  // 8 ranks -> 2 colors of 4; AllReduce must only sum within the color.
  World world(8);
  world.run([&](Communicator& comm) {
    const int color = comm.rank() / 4;
    Communicator sub = comm.split(color);
    ASSERT_EQ(sub.size(), 4);
    std::vector<float> d{static_cast<float>(comm.rank())};
    sub.all_reduce(d);
    const float expected = color == 0 ? 0 + 1 + 2 + 3 : 4 + 5 + 6 + 7;
    ASSERT_EQ(d[0], expected);
  });
}

TEST(Split, ChildRankFollowsParentOrder) {
  World world(6);
  world.run([&](Communicator& comm) {
    const int color = comm.rank() % 2;  // interleaved groups
    Communicator sub = comm.split(color);
    ASSERT_EQ(sub.size(), 3);
    ASSERT_EQ(sub.rank(), comm.rank() / 2);
  });
}

TEST(Split, KeyReversesOrder) {
  World world(4);
  world.run([&](Communicator& comm) {
    Communicator sub = comm.split(/*color=*/0, /*key=*/comm.size() - comm.rank());
    ASSERT_EQ(sub.size(), 4);
    ASSERT_EQ(sub.rank(), comm.size() - 1 - comm.rank());
  });
}

TEST(Split, SequentialSplitsReuseParent) {
  // The TP-then-DP factorisation used by hybrid parallelism (paper §3.4):
  // first split by TP group, then by DP group, on the same parent.
  World world(8);
  world.run([&](Communicator& comm) {
    Communicator tp = comm.split(comm.rank() / 2);  // 4 TP groups of 2
    Communicator dp = comm.split(comm.rank() % 2);  // 2 DP groups of 4
    ASSERT_EQ(tp.size(), 2);
    ASSERT_EQ(dp.size(), 4);

    std::vector<float> d{1.0f};
    tp.all_reduce(d);
    ASSERT_EQ(d[0], 2.0f);
    d[0] = 1.0f;
    dp.all_reduce(d);
    ASSERT_EQ(d[0], 4.0f);
  });
}

TEST(Split, NestedSplitOfChild) {
  World world(8);
  world.run([&](Communicator& comm) {
    Communicator half = comm.split(comm.rank() / 4);    // two halves
    Communicator pair = half.split(half.rank() / 2);    // pairs inside halves
    ASSERT_EQ(pair.size(), 2);
    std::vector<float> d{static_cast<float>(comm.rank())};
    pair.all_reduce(d);
    // pairs are (0,1),(2,3),(4,5),(6,7) in world ranks
    const float base = static_cast<float>(comm.rank() / 2 * 2);
    ASSERT_EQ(d[0], base + base + 1.0f);
  });
}

TEST(Split, SingletonGroups) {
  World world(4);
  world.run([&](Communicator& comm) {
    Communicator solo = comm.split(comm.rank());
    ASSERT_EQ(solo.size(), 1);
    ASSERT_EQ(solo.rank(), 0);
    std::vector<float> d{5.0f};
    solo.all_reduce(d);
    ASSERT_EQ(d[0], 5.0f);
  });
}

}  // namespace
}  // namespace dchag::comm
