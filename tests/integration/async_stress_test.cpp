// Seeded-schedule stress: the async pipelined D-CHAG forward must be
// BIT-identical to the sync oracle under adversarial comm timing. 64
// random FaultyWorld schedules spread across 2/4/8-rank groups; any
// nonzero diff means overlap reordered arithmetic or raced a buffer.
#include <gtest/gtest.h>

#include "comm/fault.hpp"
#include "core/dchag_frontend.hpp"
#include "testing/schedules.hpp"

namespace dchag::core {
namespace {

namespace ops = tensor::ops;
using autograd::Variable;
using comm::CommConfig;
using comm::CommMode;
using comm::FaultSpec;
using comm::FaultyWorld;
using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

// Shared with the chaos suite: a pure function of the seed (see
// tests/testing/schedules.hpp), so "schedule N" in a failure message
// reproduces the exact timing run.
FaultSpec schedule(std::uint64_t seed) {
  return dchag::testing::timing_schedule(seed);
}

TEST(AsyncStress, SixtyFourSchedulesBitIdenticalSyncVsAsync) {
  constexpr int kSchedules = 64;
  const int sizes[] = {2, 4, 8};
  ModelConfig cfg = ModelConfig::tiny();
  const tensor::Index C = 8;
  const tensor::Index B = 4;

  for (int sched = 0; sched < kSchedules; ++sched) {
    const int P = sizes[sched % 3];
    Tensor img = Rng(1000 + static_cast<std::uint64_t>(sched))
                     .normal_tensor(Shape{B, C, 16, 16});
    FaultyWorld world(P, schedule(static_cast<std::uint64_t>(sched)));
    world.run([&](parallel::Communicator& comm) {
      autograd::NoGradGuard no_grad;
      Rng master(4242);
      // One model, one weight set; only the comm schedule differs between
      // the two forwards (runtime::Scope flips the mode thread-locally). Same
      // pipeline depth on both sides so the chunked arithmetic matches.
      DchagFrontEnd fe(cfg, C, comm,
                       {1, model::AggLayerKind::kLinear}, master);
      Tensor local = fe.slice_local_channels(img);
      Tensor sync_out, async_out;
      {
        runtime::Scope scope(runtime::ContextPatch::with_comm(
            CommConfig{CommMode::kSync, /*pipeline_chunks=*/4}));
        sync_out = fe.forward(local).value();
      }
      {
        runtime::Scope scope(runtime::ContextPatch::with_comm(
            CommConfig{CommMode::kAsync, /*pipeline_chunks=*/4}));
        async_out = fe.forward(local).value();
      }
      ASSERT_EQ(ops::max_abs_diff(sync_out, async_out), 0.0f)
          << "schedule " << sched << " P=" << P << " rank " << comm.rank();
      // And the 4-chunk result must equal the one-chunk sync forward too
      // (same values, chunked along the batch only).
      Tensor one_chunk;
      {
        runtime::Scope scope(runtime::ContextPatch::with_comm(
            CommConfig{CommMode::kSync, /*pipeline_chunks=*/1}));
        one_chunk = fe.forward(local).value();
      }
      ASSERT_LT(ops::max_abs_diff(one_chunk, async_out), 1e-5f)
          << "schedule " << sched << " P=" << P;
    });
    ASSERT_GT(world.plan().injections(), 0u) << "schedule " << sched;
  }
}

}  // namespace
}  // namespace dchag::core
