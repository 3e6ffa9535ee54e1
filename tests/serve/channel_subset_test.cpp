// Channel-subset request correctness (paper §2.1): subset tokenization is
// bit-identical to the matching rows of a full tokenization, the
// aggregation tree's partial-channel routing degenerates to the plain
// forward on the full set, slot validation fails loudly, and the D-CHAG
// SPMD front-end serves subsets replicated across ranks — including ranks
// owning none of the requested channels — with the full set computing the
// plain forward's bits through the same graph and the same one AllGather.
#include <gtest/gtest.h>

#include <numeric>

#include "comm/communicator.hpp"
#include "core/dchag_frontend.hpp"
#include "model/foundation.hpp"

namespace dchag::model {
namespace {

namespace ops = tensor::ops;
using autograd::Variable;
using tensor::Index;
using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

Tensor gather_channels(const Tensor& images, const std::vector<Index>& ids) {
  std::vector<Tensor> slabs;
  slabs.reserve(ids.size());
  for (Index c : ids) slabs.push_back(ops::slice(images, 1, c, 1));
  return slabs.size() == 1 ? slabs.front() : ops::concat(slabs, 1);
}

TEST(ChannelSubsetServe, SubsetTokensMatchFullTokenizationBitForBit) {
  ModelConfig cfg = ModelConfig::tiny();
  Rng rng(1);
  PatchTokenizer tok(cfg, 6, rng);
  Tensor images = Rng(2).normal_tensor(Shape{2, 6, 16, 16});
  Tensor full = tok.forward(images).value();  // [B, 6, S, D]

  const std::vector<Index> subset{1, 3, 4};
  Tensor sub_tokens =
      tok.forward_subset(gather_channels(images, subset), subset).value();
  for (std::size_t i = 0; i < subset.size(); ++i) {
    Tensor expected = ops::slice(full, 1, subset[i], 1);
    Tensor got = ops::slice(sub_tokens, 1, static_cast<Index>(i), 1);
    EXPECT_EQ(ops::max_abs_diff(expected, got), 0.0f) << "channel "
                                                      << subset[i];
  }
}

TEST(ChannelSubsetServe, TreeFullSetSubsetEqualsForward) {
  ModelConfig cfg = ModelConfig::tiny();
  for (AggLayerKind kind :
       {AggLayerKind::kCrossAttention, AggLayerKind::kLinear}) {
    Rng rng(3);
    auto tree = AggregationTree::with_units(cfg, kind, 8, 4, rng);
    Tensor tokens = Rng(4).normal_tensor(Shape{1, 4, 8, cfg.embed_dim});
    std::vector<Index> all{0, 1, 2, 3, 4, 5, 6, 7};
    Tensor direct = tree->forward(Variable::input(tokens)).value();
    Tensor routed =
        tree->forward_subset(Variable::input(tokens), all).value();
    EXPECT_EQ(ops::max_abs_diff(direct, routed), 0.0f)
        << "kind " << to_string(kind);
  }
}

TEST(ChannelSubsetServe, TreePartialRoutingIsDeterministicAndSensitive) {
  ModelConfig cfg = ModelConfig::tiny();
  for (AggLayerKind kind :
       {AggLayerKind::kCrossAttention, AggLayerKind::kLinear}) {
    Rng rng(5);
    // 8 channels, first-level width 3 -> uneven groups + a second level:
    // the subset below spans group boundaries and skips whole groups.
    AggregationTree tree(cfg, kind, 8, 3, rng);
    Tensor full = Rng(6).normal_tensor(Shape{2, 4, 8, cfg.embed_dim});
    const std::vector<Index> subset{0, 4, 7};
    std::vector<Tensor> slabs;
    for (Index c : subset) slabs.push_back(ops::slice(full, 2, c, 1));
    Tensor sub_tokens = ops::concat(slabs, 2);

    Variable out =
        tree.forward_subset(Variable::input(sub_tokens), subset);
    EXPECT_EQ(out.shape(), (Shape{2, 4, cfg.embed_dim}));
    for (float v : out.value().span()) ASSERT_TRUE(std::isfinite(v));
    // Deterministic across calls...
    Tensor again =
        tree.forward_subset(Variable::input(sub_tokens.clone()), subset)
            .value();
    EXPECT_EQ(ops::max_abs_diff(out.value(), again), 0.0f);
    // ...and genuinely different from aggregating all 8 channels.
    Tensor full_out = tree.forward(Variable::input(full)).value();
    EXPECT_GT(ops::max_abs_diff(out.value(), full_out), 1e-5f);
  }
}

TEST(ChannelSubsetServe, SlotValidationFailsLoudly) {
  ModelConfig cfg = ModelConfig::tiny();
  Rng rng(7);
  AggregationTree tree(cfg, AggLayerKind::kCrossAttention, 6, 3, rng);
  Tensor tokens = Rng(8).normal_tensor(Shape{1, 4, 2, cfg.embed_dim});
  EXPECT_THROW(
      tree.forward_subset(Variable::input(tokens), std::vector<Index>{3, 1}),
      Error);  // unsorted
  EXPECT_THROW(
      tree.forward_subset(Variable::input(tokens), std::vector<Index>{1, 9}),
      Error);  // out of range
  EXPECT_THROW(tree.forward_subset(Variable::input(tokens),
                                   std::vector<Index>{0, 1, 2}),
               Error);  // token/slot count mismatch

  Rng rng2(9);
  PatchTokenizer tok(cfg, 4, rng2);
  Tensor img = Rng(10).normal_tensor(Shape{1, 2, 16, 16});
  EXPECT_THROW(
      (void)tok.forward_subset(img, std::vector<Index>{2, 7}),
      Error);  // channel 7 not tokenized here
}

TEST(ChannelSubsetServe, ForecastPredictSubsetEndToEnd) {
  ModelConfig cfg = ModelConfig::tiny();
  constexpr Index kChannels = 6;
  Rng rng(11);
  auto agg = AggregationTree::with_units(cfg, AggLayerKind::kCrossAttention,
                                         kChannels, 2, rng);
  auto fe = std::make_unique<LocalFrontEnd>(cfg, kChannels, std::move(agg),
                                            rng);
  ForecastModel model(cfg, std::move(fe), kChannels, rng);
  Tensor images = Rng(12).normal_tensor(Shape{2, kChannels, 16, 16});
  const std::vector<Index> subset{0, 2, 5};
  autograd::NoGradGuard no_grad;
  Tensor pred = model.predict_subset(gather_channels(images, subset), subset)
                    .value();
  EXPECT_EQ(pred.shape(),
            (Shape{2, cfg.seq_len(),
                   kChannels * cfg.patch_size * cfg.patch_size}));
  for (float v : pred.span()) ASSERT_TRUE(std::isfinite(v));
}

TEST(ChannelSubsetServe, DchagSubsetReplicatedAcrossRanksAndFullSetExact) {
  ModelConfig cfg = ModelConfig::tiny();
  constexpr Index kChannels = 8;
  Tensor images = Rng(13).normal_tensor(Shape{2, kChannels, 16, 16});
  std::vector<Index> all(kChannels);
  std::iota(all.begin(), all.end(), Index{0});
  for (int P : {1, 2, 4}) {
    comm::World world(P);
    world.run([&](comm::Communicator& comm) {
      Rng master(21);
      core::DchagFrontEnd fe(cfg, kChannels, comm,
                             {/*tree_units=*/1, AggLayerKind::kLinear},
                             master);
      // One chunk, the subset forward's depth, so both paths build the
      // same graph. Gradients stay on: the tape is part of the contract.
      runtime::Scope one_chunk(runtime::ContextPatch::with_comm(
          comm::CommConfig{comm::CommMode::kSync, 1}));
      const std::uint64_t gathers = P > 1 ? 1 : 0;
      const auto run = [&](const auto& forward) {
        comm.reset_stats();
        const std::uint64_t nodes = autograd::tape_nodes_created();
        Tensor out = forward().value();
        EXPECT_EQ(comm.stats().calls_of(comm::CollectiveKind::kAllGather),
                  gathers)
            << "P=" << P;
        return std::pair{out, autograd::tape_nodes_created() - nodes};
      };

      // Full set via the subset path == plain distributed forward, bit for
      // bit and tape node for tape node.
      const auto [direct, direct_nodes] =
          run([&] { return fe.forward(fe.slice_local_channels(images)); });
      const auto [routed, routed_nodes] =
          run([&] { return fe.forward_subset(images, all); });
      EXPECT_EQ(ops::max_abs_diff(direct, routed), 0.0f) << "P=" << P;
      EXPECT_EQ(direct_nodes, routed_nodes) << "P=" << P;

      // At P = 4 this subset leaves ranks 1 and 2 empty (channels 0,1 on
      // rank 0 and 7 on rank 3); it still aggregates, replicated across
      // all ranks.
      const std::vector<Index> subset{0, 1, 7};
      const Tensor out = run([&] {
                           return fe.forward_subset(
                               gather_channels(images, subset), subset);
                         }).first;
      EXPECT_EQ(out.shape(), (Shape{2, cfg.seq_len(), cfg.embed_dim}));
      for (float v : out.span()) ASSERT_TRUE(std::isfinite(v));
      EXPECT_TRUE(parallel::is_replicated(out, comm));

      // An empty channel list throws on every rank before any collective.
      comm.reset_stats();
      EXPECT_THROW((void)fe.forward_subset(Tensor(Shape{2, 0, 16, 16}), {}),
                   Error);
      EXPECT_EQ(comm.stats().calls_of(comm::CollectiveKind::kAllGather), 0u);
    });
  }
}

}  // namespace
}  // namespace dchag::model
