// Structural fault events (rank death, link partition): the FaultyWorld
// surfaces them as typed RankFailure — with a seed + event-index repro
// payload — instead of a hang, and survivors can regroup and keep
// serving collectives through split_survivors().
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "comm/fault.hpp"

namespace dchag::comm {
namespace {

// Issues collectives until the schedule's event fires; returns how many
// completed before the failure.
int drive_until_failure(Communicator& comm, int max_ops = 64) {
  std::vector<float> v{1.0f};
  for (int i = 0; i < max_ops; ++i) {
    try {
      comm.all_reduce(v);
    } catch (const RankFailure&) {
      return i;
    }
  }
  ADD_FAILURE() << "no RankFailure after " << max_ops << " ops on rank "
                << comm.rank();
  return max_ops;
}

TEST(RankFailure, DeathSurfacesTypedFailureWithSeedAndSchedule) {
  FaultSpec s;
  s.seed = 77;
  RankDeathEvent death;
  death.rank = 2;
  death.at_op = 2;
  s.deaths.push_back(death);
  FaultyWorld world(4, s);
  std::atomic<int> typed{0};
  world.run([&](Communicator& comm) {
    std::vector<float> v{1.0f};
    bool failed = false;
    for (int i = 0; i < 64 && !failed; ++i) {
      try {
        comm.all_reduce(v);
      } catch (const RankFailure& rf) {
        failed = true;
        ++typed;
        // The typed payload and the message both carry the repro: seed,
        // event index, and the full one-line schedule.
        EXPECT_EQ(rf.failed_ranks(), std::vector<int>{2});
        EXPECT_EQ(rf.seed(), 77u);
        EXPECT_EQ(rf.event_index(), 0);
        const std::string what = rf.what();
        EXPECT_NE(what.find("seed=77"), std::string::npos) << what;
        EXPECT_NE(what.find("event=0"), std::string::npos) << what;
        EXPECT_NE(what.find("death[rank 2"), std::string::npos) << what;
      }
    }
    ASSERT_TRUE(failed) << "rank " << comm.rank() << " never saw the death";
    if (comm.world_rank() == 2) return;  // the casualty exits cleanly
    // Survivors regroup (no barriers involved: works on the poisoned
    // handle) and collectives flow again.
    const std::vector<int> alive = comm.alive_world_ranks();
    ASSERT_EQ(alive, (std::vector<int>{0, 1, 3}));
    Communicator sub = comm.split_survivors(alive, "degraded");
    EXPECT_EQ(sub.world_rank(), comm.world_rank());
    std::vector<float> x{static_cast<float>(comm.world_rank())};
    sub.all_reduce(x);
    EXPECT_EQ(x[0], 4.0f);  // 0 + 1 + 3
  });
  // Every rank — casualty included — saw the typed failure, not a hang.
  EXPECT_EQ(typed.load(), 4);
}

TEST(RankFailure, PartitionKillsTheMinoritySide) {
  FaultSpec s;
  s.seed = 5;
  PartitionEvent part;
  part.at_op = 1;
  part.duration_ops = 3;
  part.island = {3};
  s.partitions.push_back(part);
  FaultyWorld world(4, s);
  world.run([&](Communicator& comm) {
    std::vector<float> v{1.0f};
    bool failed = false;
    for (int i = 0; i < 64 && !failed; ++i) {
      try {
        comm.all_reduce(v);
      } catch (const RankFailure& rf) {
        failed = true;
        EXPECT_EQ(rf.failed_ranks(), std::vector<int>{3});
        EXPECT_NE(std::string(rf.what()).find("partition["),
                  std::string::npos);
      }
    }
    ASSERT_TRUE(failed);
    if (comm.world_rank() == 3) return;
    Communicator sub =
        comm.split_survivors(comm.alive_world_ranks(), "degraded");
    sub.barrier();  // the survivor group is live
  });
}

TEST(RankFailure, RespawnedRankRejoinsWithoutRefiringItsDeath) {
  FaultSpec s;
  s.seed = 9;
  RankDeathEvent death;
  death.rank = 1;
  death.at_op = 1;
  s.deaths.push_back(death);
  FaultyWorld world(4, s);
  std::thread respawned;
  float respawned_sum = 0.0f;
  world.run([&](Communicator& comm) {
    drive_until_failure(comm);
    if (comm.world_rank() == 1) return;  // the casualty
    const std::vector<int> full{0, 1, 2, 3};
    if (comm.world_rank() == 0) {
      // The surviving leader mints the respawned rank's full-width
      // handle; already-fired events must not poison it.
      Communicator minted = comm.split_survivors_for(1, full, "healed");
      respawned = std::thread([&respawned_sum, h = std::move(minted)]() mutable {
        std::vector<float> x{10.0f};
        h.all_reduce(x);
        respawned_sum = x[0];
      });
    }
    Communicator healed = comm.split_survivors(full, "healed");
    std::vector<float> x{static_cast<float>(comm.world_rank())};
    healed.all_reduce(x);
    EXPECT_EQ(x[0], 15.0f);  // 0 + 10 + 2 + 3
  });
  respawned.join();
  EXPECT_EQ(respawned_sum, 15.0f);
}

TEST(RankFailure, SurvivorGroupsReleaseTheLedgerAfterRun) {
  // Recovery groups own the ledger that rendezvoused them; the ledger
  // must not own them back, or both outlive the world.
  FaultSpec s;
  s.seed = 13;
  RankDeathEvent death;
  death.rank = 3;
  death.at_op = 1;
  s.deaths.push_back(death);
  FaultyWorld world(4, s);
  std::weak_ptr<const detail::FailureLedger> ledger;
  world.run([&](Communicator& comm) {
    if (comm.rank() == 0) {
      ledger = comm.failure_ledger();
      EXPECT_FALSE(ledger.expired());
    }
    drive_until_failure(comm);
    if (comm.world_rank() == 3) return;
    Communicator sub =
        comm.split_survivors(comm.alive_world_ranks(), "degraded");
    sub.barrier();
  });
  EXPECT_TRUE(ledger.expired())
      << "a survivor group and the ledger keep each other alive";
}

TEST(RankFailure, DescribeIsAOneLineReproOfTheSchedule) {
  FaultSpec s;
  s.seed = 404;
  s.max_edge_delay_us = 120;
  RankDeathEvent death;
  death.rank = 1;
  death.at_op = 5;
  s.deaths.push_back(death);
  PartitionEvent part;
  part.at_op = 3;
  part.duration_ops = 4;
  part.island = {0, 1};
  s.partitions.push_back(part);
  const auto plan = make_fault_plan(s, 4);
  const std::string d = plan->describe();
  EXPECT_NE(d.find("seed=404"), std::string::npos) << d;
  EXPECT_NE(d.find("size=4"), std::string::npos) << d;
  EXPECT_NE(d.find("death[rank 1 @op 5]"), std::string::npos) << d;
  EXPECT_NE(d.find("@op 3+4"), std::string::npos) << d;
  EXPECT_EQ(d.find('\n'), std::string::npos) << d;
}

}  // namespace
}  // namespace dchag::comm
