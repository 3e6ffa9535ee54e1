#include "parallel/collective_ops.hpp"

#include <gtest/gtest.h>

#include "comm/fault.hpp"

namespace dchag::parallel {
namespace {

namespace ops = tensor::ops;
using comm::World;
using tensor::Shape;
using tensor::Tensor;

TEST(ReduceFromParallel, ForwardSumsBackwardIdentity) {
  World world(4);
  world.run([](Communicator& comm) {
    Variable x = Variable::param(
        Tensor(Shape{3}, static_cast<float>(comm.rank() + 1)));
    Variable y = reduce_from_parallel(x, comm);
    for (float v : y.value().span()) ASSERT_EQ(v, 10.0f);  // 1+2+3+4
    autograd::sum_all(y).backward();
    for (float g : x.grad().span()) ASSERT_EQ(g, 1.0f);  // identity bwd
  });
}

TEST(CopyToParallel, ForwardIdentityBackwardSums) {
  World world(4);
  world.run([](Communicator& comm) {
    Variable x = Variable::param(Tensor(Shape{2}, 1.0f));
    Variable y = copy_to_parallel(x, comm);
    ASSERT_EQ(y.value().at({0}), 1.0f);
    // Scale per rank so backward contributions differ.
    Variable z = autograd::scale(y, static_cast<float>(comm.rank() + 1));
    autograd::sum_all(z).backward();
    for (float g : x.grad().span()) ASSERT_EQ(g, 10.0f);  // sum of scales
  });
}

TEST(AllGatherCat, ForwardConcatenatesInRankOrder) {
  World world(3);
  world.run([](Communicator& comm) {
    Tensor t(Shape{2, 1, 2}, static_cast<float>(comm.rank()));
    Variable x = Variable::input(t);
    Variable g = all_gather_cat(x, comm, 1, GatherBackward::kLocalSlice);
    ASSERT_EQ(g.shape(), (Shape{2, 3, 2}));
    for (int r = 0; r < 3; ++r) {
      ASSERT_EQ(g.value().at({0, r, 0}), static_cast<float>(r));
      ASSERT_EQ(g.value().at({1, r, 1}), static_cast<float>(r));
    }
  });
}

TEST(AllGatherCat, LocalSliceBackwardNeedsNoCommunication) {
  // Replicated downstream: gradient slices locally, and the backward pass
  // must issue ZERO collective calls (the D-CHAG §3.3 property).
  World world(4);
  world.run([](Communicator& comm) {
    Variable x = Variable::param(
        Tensor(Shape{1, 2}, static_cast<float>(comm.rank() + 1)));
    Variable g = all_gather_cat(x, comm, 0, GatherBackward::kLocalSlice);
    // Replicated downstream computation: square and sum.
    Variable loss = autograd::sum_all(autograd::mul(g, g));
    const auto calls_before = comm.stats().total_calls();
    loss.backward();
    ASSERT_EQ(comm.stats().total_calls(), calls_before)
        << "backward issued communication";
    // d/dx of sum(g^2) at my slice = 2 * x.
    for (float gr : x.grad().span())
      ASSERT_EQ(gr, 2.0f * static_cast<float>(comm.rank() + 1));
  });
}

TEST(AllGatherCat, ReduceScatterBackwardSumsRankContributions) {
  // Rank-dependent downstream: each rank scales the gathered tensor by
  // (rank+1). True grad of x = sum_r (r+1) * slice_r-indicator = x gets
  // sum over ranks of each rank's gradient at my slice.
  World world(2);
  world.run([](Communicator& comm) {
    Variable x = Variable::param(Tensor(Shape{1, 2}, 1.0f));
    Variable g = all_gather_cat(x, comm, 0, GatherBackward::kReduceScatter);
    Variable z = autograd::scale(g, static_cast<float>(comm.rank() + 1));
    autograd::sum_all(z).backward();
    // Rank 0 contributes 1, rank 1 contributes 2 at every slice -> 3.
    for (float gr : x.grad().span()) ASSERT_EQ(gr, 3.0f);
  });
}

TEST(PendingGatherCat, DroppedHandleWaitsOutItsGather) {
  // A handle destroyed before wait() — as when an exception unwinds the
  // D-CHAG chunk loop with a gather in flight — must keep its receive
  // buffer and pinned input alive until the progress thread is done with
  // them. Edge delays hold every gather back long enough that the drop
  // happens mid-flight; the second gather on the same lane must be exact.
  comm::FaultSpec spec;
  spec.seed = 5;
  spec.min_edge_delay_us = 20000;
  spec.max_edge_delay_us = 30000;
  comm::FaultyWorld world(2, spec);
  world.run([](Communicator& comm) {
    comm::AsyncCommunicator async(comm);
    const auto mine = static_cast<float>(comm.rank() + 1);
    {
      Variable x = Variable::input(Tensor(Shape{1, 64}, mine));
      PendingGatherCat dropped = all_gather_cat_start(x, async, /*dim=*/0);
    }
    Variable y = Variable::input(Tensor(Shape{1, 8}, 10.0f * mine));
    Variable g = all_gather_cat_start(y, async, /*dim=*/0).wait();
    ASSERT_EQ(g.shape(), (Shape{2, 8}));
    for (int r = 0; r < 2; ++r)
      for (tensor::Index i = 0; i < 8; ++i)
        ASSERT_EQ(g.value().at({r, i}), 10.0f * static_cast<float>(r + 1));
  });
  ASSERT_GT(world.plan().injected_delay_us(), 0u);
}

TEST(SyncParameters, BroadcastsFromRoot) {
  World world(3);
  world.run([](Communicator& comm) {
    Variable p = Variable::param(
        Tensor(Shape{4}, static_cast<float>(comm.rank())));
    std::vector<Variable> params{p};
    sync_parameters(params, comm, /*root=*/1);
    for (float v : p.value().span()) ASSERT_EQ(v, 1.0f);
    ASSERT_TRUE(is_replicated(p.value(), comm));
  });
}

TEST(IsReplicated, DetectsDivergence) {
  World world(2);
  world.run([](Communicator& comm) {
    Tensor same(Shape{3}, 5.0f);
    ASSERT_TRUE(is_replicated(same, comm));
    Tensor diff(Shape{3}, static_cast<float>(comm.rank()));
    ASSERT_FALSE(is_replicated(diff, comm));
  });
}

TEST(AllGatherCat, SingleRankIsIdentityPlus) {
  World world(1);
  world.run([](Communicator& comm) {
    Variable x = Variable::param(Tensor(Shape{2, 2}, 3.0f));
    Variable g = all_gather_cat(x, comm, 0, GatherBackward::kLocalSlice);
    ASSERT_EQ(g.shape(), (Shape{2, 2}));
    autograd::sum_all(g).backward();
    for (float gr : x.grad().span()) ASSERT_EQ(gr, 1.0f);
  });
}

}  // namespace
}  // namespace dchag::parallel
