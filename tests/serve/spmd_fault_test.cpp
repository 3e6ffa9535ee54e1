// SpmdEngine under injected rank slowness: a straggler rank (seeded
// FaultPlan) must degrade tail latency, not correctness or liveness —
// responses stay bit-identical to a quiet engine, latency percentiles
// still populate, and shutdown never deadlocks.
#include <gtest/gtest.h>

#include "core/dchag_frontend.hpp"
#include "serve/server.hpp"
#include "serve/spmd_engine.hpp"

namespace dchag::serve {
namespace {

namespace ops = tensor::ops;
using model::AggLayerKind;
using model::ForecastModel;
using model::ModelConfig;
using tensor::Rng;
using tensor::Shape;

constexpr Index kChannels = 8;
constexpr int kRanks = 4;

SpmdEngine::RankModelFactory make_factory(const ModelConfig& cfg,
                                          comm::CommConfig comm_cfg) {
  return [&cfg, comm_cfg](comm::Communicator& comm) {
    Rng master(42);  // every rank: same master seed (D-CHAG contract)
    core::DchagOptions opts{/*tree_units=*/1, AggLayerKind::kLinear};
    return core::make_dchag_forecast(
        cfg, kChannels, comm, opts, master,
        runtime::Context::current().to_builder().comm(comm_cfg).build());
  };
}

/// Engine context carrying the straggler fault plan (installed on the
/// engine's World through Context::fault_plan).
runtime::Context straggler_context() {
  comm::FaultSpec spec;
  spec.seed = 404;
  spec.max_edge_delay_us = 50;
  spec.per_rank_delay_us = {0, 0, 800, 0};  // rank 2 is the slow one
  spec.drop_prob = 0.2;
  spec.retry_backoff_us = 40;
  return runtime::ContextBuilder()
      .fault_plan(comm::make_fault_plan(spec, kRanks))
      .build();
}

Tensor sample_batch(std::uint64_t seed) {
  Rng rng(seed);
  return rng.normal_tensor(Shape{kChannels, 16, 16});
}

TEST(SpmdFault, StragglerRankStillServesExactResultsWithTailMetrics) {
  ModelConfig cfg = ModelConfig::tiny();
  // Async overlap mode end to end: the straggler's delays land on the
  // progress threads' shadow group as well as the main collectives.
  const comm::CommConfig async_cfg{comm::CommMode::kAsync,
                                   /*pipeline_chunks=*/2};
  SpmdEngineConfig ecfg;
  ecfg.metrics = std::make_shared<Metrics>();
  SpmdEngine slow(kRanks, make_factory(cfg, async_cfg), ecfg,
                  straggler_context());
  SpmdEngine quiet(kRanks, make_factory(cfg, async_cfg));

  ServerConfig scfg;
  scfg.batcher.max_batch = 4;
  scfg.batcher.max_wait = std::chrono::microseconds(500);
  Server server(slow.inference_fn(), scfg);
  server.start();
  constexpr int kRequests = 12;
  std::vector<ResponseFuture> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    Request r;
    r.images = sample_batch(600 + static_cast<std::uint64_t>(i));
    futures.push_back(server.submit(std::move(r)));
  }
  for (int i = 0; i < kRequests; ++i) {
    Tensor pred = futures[static_cast<std::size_t>(i)].get().pred;
    Tensor img = sample_batch(600 + static_cast<std::uint64_t>(i));
    Tensor batch1 = img.reshape(Shape{1, kChannels, 16, 16});
    Tensor expected = quiet.run(batch1, {}, 1.0f);
    // Straggling shifts time, never bits.
    ASSERT_EQ(ops::max_abs_diff(
                  pred, expected.reshape(Shape{expected.dim(1),
                                               expected.dim(2)})),
              0.0f)
        << "request " << i;
  }
  server.drain();

  const Metrics::Snapshot m = server.metrics().summary();
  EXPECT_EQ(m.requests, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(m.failed, 0u);
  // The p99 pipeline must survive a slow rank: percentiles populated and
  // ordered, and the injected ~0.8 ms straggler stall visible in the tail.
  EXPECT_GT(m.p99_ms, 0.0);
  EXPECT_GE(m.p99_ms, m.p50_ms);
  EXPECT_GT(m.p99_ms, 0.8);
  // Stragglers are slowness, not failure: no recovery machinery fired.
  const Metrics::Snapshot em = ecfg.metrics->summary();
  EXPECT_EQ(em.recoveries, 0u);
  EXPECT_EQ(em.mean_recovery_ms, 0.0);
  EXPECT_EQ(em.degraded_responses, 0u);
  // Engines destruct here: a deadlocked shutdown fails via ctest timeout.
}

TEST(SpmdFault, RankDeathServesDegradedThenHealsBitExact) {
  ModelConfig cfg = ModelConfig::tiny();
  comm::FaultSpec spec;
  spec.seed = 11;
  comm::RankDeathEvent death;
  death.rank = 2;
  death.at_op = 2;
  spec.deaths.push_back(death);
  const auto plan = comm::make_fault_plan(spec, kRanks);
  const runtime::Context ctx =
      runtime::ContextBuilder().fault_plan(plan).build();
  SpmdEngineConfig ecfg;
  ecfg.metrics = std::make_shared<Metrics>();
  ecfg.checkpoint_dir = ::testing::TempDir();  // exercise shard reload
  SpmdEngine engine(kRanks, make_factory(cfg, {}), ecfg, ctx);
  SpmdEngine oracle(kRanks, make_factory(cfg, {}));

  const Tensor batch =
      sample_batch(900).reshape(Shape{1, kChannels, 16, 16});
  const Tensor full = oracle.run(batch, {}, 1.0f);
  // Rank 2's channels are lost while degraded; the healthy oracle's
  // answer for the surviving subset is the degraded ground truth.
  const Index c_local = kChannels / kRanks;
  std::vector<Index> surviving;
  std::vector<Tensor> slabs;
  for (int slot : {0, 1, 3}) {
    for (Index c = 0; c < c_local; ++c)
      surviving.push_back(static_cast<Index>(slot) * c_local + c);
    slabs.push_back(ops::slice(batch, 1,
                               static_cast<Index>(slot) * c_local, c_local));
  }
  const Tensor degraded_batch = ops::concat(slabs, 1);
  const Tensor degraded = oracle.run(degraded_batch, surviving, 1.0f);

  // Drive jobs until the death fires; every answer is either the healthy
  // result (before the event / after the heal) or the degraded one.
  bool saw_degraded = false;
  for (int i = 0; i < 8; ++i) {
    const Tensor got = engine.run(batch, {}, 1.0f);
    const bool is_full = ops::max_abs_diff(got, full) == 0.0f;
    const bool is_degraded = ops::max_abs_diff(got, degraded) == 0.0f;
    ASSERT_TRUE(is_full || is_degraded)
        << "job " << i << " matches neither | repro: " << plan->describe();
    saw_degraded = saw_degraded || is_degraded;
  }
  ASSERT_TRUE(saw_degraded) << "death never fired | " << plan->describe();

  engine.wait_recovered();
  // The respawned rank rebuilt from the factory + checkpoint shard: the
  // healed world answers bit-exactly like a never-failed one.
  ASSERT_EQ(ops::max_abs_diff(engine.run(batch, {}, 1.0f), full), 0.0f)
      << plan->describe();
  const Metrics::Snapshot m = ecfg.metrics->summary();
  EXPECT_EQ(m.recoveries, 1u);
  EXPECT_GT(m.mean_recovery_ms, 0.0);
  EXPECT_GE(m.degraded_responses, 1u);
  for (int r = 0; r < kRanks; ++r)
    std::remove((ecfg.checkpoint_dir + "/rank_" + std::to_string(r) +
                 ".ckpt")
                    .c_str());
}

TEST(SpmdFault, DegradedSubsetRequestsServeTheSurvivingIntersection) {
  ModelConfig cfg = ModelConfig::tiny();
  comm::FaultSpec spec;
  spec.seed = 12;
  comm::RankDeathEvent death;
  death.rank = 1;
  death.at_op = 1;
  spec.deaths.push_back(death);
  const runtime::Context ctx =
      runtime::ContextBuilder()
          .fault_plan(comm::make_fault_plan(spec, kRanks))
          .build();
  SpmdEngineConfig ecfg;
  ecfg.metrics = std::make_shared<Metrics>();
  ecfg.checkpoint_dir = ::testing::TempDir();
  SpmdEngine engine(kRanks, make_factory(cfg, {}), ecfg, ctx);
  SpmdEngine oracle(kRanks, make_factory(cfg, {}));
  // Sabotage the heal: with rank 1's shard gone the respawn cannot
  // reload, so the world stays degraded deterministically (the racy
  // alternative — asserting mid-heal — would flake) and the heal error
  // surfaces on wait_recovered() instead of killing the engine.
  for (int r = 0; r < kRanks; ++r)
    std::remove((ecfg.checkpoint_dir + "/rank_" + std::to_string(r) +
                 ".ckpt")
                    .c_str());

  const Tensor batch =
      sample_batch(901).reshape(Shape{1, kChannels, 16, 16});
  // Kill rank 1 (channels {2,3}) by running full jobs until degraded.
  const Index c_local = kChannels / kRanks;
  std::vector<Index> surviving;
  std::vector<Tensor> slabs;
  for (int slot : {0, 2, 3}) {
    for (Index c = 0; c < c_local; ++c)
      surviving.push_back(static_cast<Index>(slot) * c_local + c);
    slabs.push_back(ops::slice(batch, 1,
                               static_cast<Index>(slot) * c_local, c_local));
  }
  const Tensor full = oracle.run(batch, {}, 1.0f);
  const Tensor degraded =
      oracle.run(ops::concat(slabs, 1), surviving, 1.0f);
  for (int i = 0; i < 8; ++i) {
    const Tensor got = engine.run(batch, {}, 1.0f);
    if (ops::max_abs_diff(got, degraded) == 0.0f) break;
    ASSERT_EQ(ops::max_abs_diff(got, full), 0.0f) << "job " << i;
  }
  ASSERT_GE(ecfg.metrics->summary().degraded_responses, 1u);
  EXPECT_THROW(engine.wait_recovered(), Error);  // the sabotaged heal

  // A subset request straddling dead channels {2,3}: the engine serves
  // the surviving intersection {1, 4}, matching the healthy oracle's
  // answer for exactly that narrower subset.
  const std::vector<Index> request{1, 2, 4};
  std::vector<Tensor> req_slabs;
  for (Index c : request) req_slabs.push_back(ops::slice(batch, 1, c, 1));
  const Tensor req_img = ops::concat(req_slabs, 1);
  const std::vector<Index> inter{1, 4};
  std::vector<Tensor> inter_slabs;
  for (Index c : inter) inter_slabs.push_back(ops::slice(batch, 1, c, 1));
  const Tensor expect_inter =
      oracle.run(ops::concat(inter_slabs, 1), inter, 1.0f);
  ASSERT_EQ(
      ops::max_abs_diff(engine.run(req_img, request, 1.0f), expect_inter),
      0.0f);
  // A request owned entirely by the dead rank cannot be served degraded.
  const std::vector<Index> dead_only{2, 3};
  std::vector<Tensor> dead_slabs;
  for (Index c : dead_only) dead_slabs.push_back(ops::slice(batch, 1, c, 1));
  const Tensor dead_img = ops::concat(dead_slabs, 1);
  EXPECT_THROW((void)engine.run(dead_img, dead_only, 1.0f), Error);
}

TEST(SpmdFault, EngineShutdownWithFaultsAndNoTrafficDoesNotDeadlock) {
  ModelConfig cfg = ModelConfig::tiny();
  SpmdEngine engine(kRanks,
                    make_factory(cfg, comm::CommConfig{comm::CommMode::kAsync,
                                                       /*pipeline_chunks=*/2}),
                    {}, straggler_context());
  // Construct-then-destruct, zero jobs: the world must come down clean.
}

}  // namespace
}  // namespace dchag::serve
