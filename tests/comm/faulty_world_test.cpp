// The fault-injecting comm test double: deterministic schedules, timing-
// only perturbation (results stay exact), and observability counters.
#include <gtest/gtest.h>

#include <numeric>

#include "comm/fault.hpp"

namespace dchag::comm {
namespace {

FaultSpec aggressive(std::uint64_t seed) {
  FaultSpec s;
  s.seed = seed;
  s.min_edge_delay_us = 1;
  s.max_edge_delay_us = 120;
  s.drop_prob = 0.5;
  s.max_retries = 3;
  s.retry_backoff_us = 15;
  s.max_completion_jitter_us = 90;
  return s;
}

TEST(FaultyWorld, SameSeedSameSchedule) {
  // A plan is a pure function of (seed, size): two plans built from the
  // same spec must draw identical injections for identical op sequences.
  const auto a = make_fault_plan(aggressive(1234), 4);
  const auto b = make_fault_plan(aggressive(1234), 4);
  for (int r = 0; r < 4; ++r) {
    for (std::uint64_t seq = 0; seq < 32; ++seq) {
      const auto ia = a->draw(r, CollectiveKind::kAllGather, seq);
      const auto ib = b->draw(r, CollectiveKind::kAllGather, seq);
      ASSERT_EQ(ia.pre_delay_us, ib.pre_delay_us);
      ASSERT_EQ(ia.drops, ib.drops);
      ASSERT_EQ(ia.post_jitter_us, ib.post_jitter_us);
    }
  }
  ASSERT_EQ(a->injected_delay_us(), b->injected_delay_us());
  ASSERT_EQ(a->injected_retries(), b->injected_retries());
}

TEST(FaultyWorld, DifferentSeedsDifferentEdgeDelays) {
  const auto a = make_fault_plan(aggressive(1), 8);
  const auto b = make_fault_plan(aggressive(2), 8);
  int diffs = 0;
  for (int s = 0; s < 8; ++s)
    for (int d = 0; d < 8; ++d)
      if (a->edge_delay_us(s, d) != b->edge_delay_us(s, d)) ++diffs;
  ASSERT_GT(diffs, 0);
}

TEST(FaultyWorld, AllCollectivesStayExactUnderFaults) {
  // Faults perturb timing only: every collective must produce exactly the
  // result a quiet world produces.
  FaultyWorld world(4, aggressive(777));
  world.run([](Communicator& comm) {
    const int P = comm.size();
    std::vector<float> d(9);
    std::iota(d.begin(), d.end(), static_cast<float>(comm.rank()) * 9.0f);
    comm.all_reduce(d);
    for (std::size_t i = 0; i < d.size(); ++i) {
      // sum over ranks r of (r*9 + i) = 4i + 9*(0+1+2+3)
      ASSERT_EQ(d[i], 4.0f * static_cast<float>(i) + 54.0f);
    }
    std::vector<float> send{static_cast<float>(comm.rank())};
    std::vector<float> recv(static_cast<std::size_t>(P));
    comm.all_gather(send, recv);
    for (int r = 0; r < P; ++r)
      ASSERT_EQ(recv[static_cast<std::size_t>(r)], static_cast<float>(r));
    std::vector<float> rs_send(static_cast<std::size_t>(P) * 2, 1.0f);
    std::vector<float> rs_recv(2);
    comm.reduce_scatter(rs_send, rs_recv);
    ASSERT_EQ(rs_recv[0], static_cast<float>(P));
    std::vector<float> bc{comm.rank() == 1 ? 42.0f : 0.0f};
    comm.broadcast(bc, 1);
    ASSERT_EQ(bc[0], 42.0f);
  });
  ASSERT_GT(world.plan().injections(), 0u);
}

TEST(FaultyWorld, DropsAreRetriedNotLost) {
  FaultSpec spec;
  spec.seed = 5150;
  spec.drop_prob = 1.0;  // every first attempt is dropped
  spec.max_retries = 2;
  spec.retry_backoff_us = 5;
  FaultyWorld world(2, spec);
  world.run([](Communicator& comm) {
    std::vector<float> d{static_cast<float>(comm.rank() + 1)};
    comm.all_reduce(d);
    ASSERT_EQ(d[0], 3.0f);  // retried, never dropped for good
  });
  ASSERT_GT(world.plan().injected_retries(), 0u);
}

TEST(FaultyWorld, PerRankStragglerIsInjected) {
  FaultSpec spec;
  spec.seed = 3;
  spec.per_rank_delay_us = {0, 500, 0, 0};  // rank 1 is the slow GCD
  const auto plan = make_fault_plan(spec, 4);
  const auto slow = plan->draw(1, CollectiveKind::kAllReduce, 0);
  const auto fast = plan->draw(0, CollectiveKind::kAllReduce, 0);
  ASSERT_GE(slow.pre_delay_us, 500u);
  ASSERT_EQ(fast.pre_delay_us, 0u);
}

TEST(FaultyWorld, PlanPropagatesThroughSplit) {
  // split() children (incl. AsyncCommunicator shadow groups) must inherit
  // the parent's plan, so faults reach overlapped traffic too.
  FaultSpec spec;
  spec.seed = 17;
  spec.min_edge_delay_us = 1;
  spec.max_edge_delay_us = 30;
  FaultyWorld world(4, spec);
  world.run([](Communicator& comm) {
    Communicator half = comm.split(comm.rank() % 2);
    std::vector<float> d{1.0f};
    half.all_reduce(d);
    ASSERT_EQ(d[0], 2.0f);
  });
  // 4 parent-facing draws would come from the world's own collectives;
  // the split-group reduces add more. Just assert injection happened at
  // all (the split groups are the only collectives issued above).
  ASSERT_GT(world.plan().injections(), 0u);
}

TEST(FaultyWorld, CounterResetIsObservable) {
  const auto plan = make_fault_plan(aggressive(9), 2);
  (void)plan->draw(0, CollectiveKind::kBarrier, 0);
  ASSERT_GT(plan->injections(), 0u);
  plan->reset_counters();
  ASSERT_EQ(plan->injections(), 0u);
  ASSERT_EQ(plan->injected_delay_us(), 0u);
  ASSERT_EQ(plan->injected_retries(), 0u);
}

}  // namespace
}  // namespace dchag::comm
