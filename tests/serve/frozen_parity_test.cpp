// The copy-free serving front-end's oracle: every frozen, tape-free layer
// forward that skips a copy gives the same bits as the unfrozen chain it
// replaces, on every kernel backend at 1 and 3 lanes.
//  * PatchTokenizer writes [B, N, S, D] or the aggregators' [B, S, N, D]
//    straight from per-channel products on the pre-packed panels, with no
//    per-channel Linear/add/concat chain and no permute;
//  * MultiHeadSelfAttention and CrossAttentionAggregator attend per head
//    in place (ops::attention_heads), with no split/merge copies;
//  * Engine::run on the 64-band Tree4 serving model, planned vs unplanned,
//    on the full set and channel subsets at several batch sizes.
// Mutating one tokenizer channel's weight after the freeze must still
// fail loudly with StaleWeightPackError.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "model/aggregation.hpp"
#include "model/foundation.hpp"
#include "serve/engine.hpp"
#include "tensor/kernel_config.hpp"

namespace dchag::serve {
namespace {

namespace ops = dchag::tensor::ops;
using dchag::autograd::NoGradGuard;
using dchag::autograd::StaleWeightPackError;
using dchag::autograd::Variable;
using dchag::model::ModelConfig;
using dchag::model::QueryMode;
using dchag::tensor::KernelBackend;
using dchag::tensor::Rng;
using dchag::tensor::Shape;

// Pin the pool to 4 lanes before its first use so the 3-lane runs really
// fan out, whatever the host's core count.
const bool kForceLanes = [] {
  setenv("DCHAG_THREADS", "4", /*overwrite=*/1);
  return true;
}();

struct Config {
  KernelBackend backend;
  int threads;
};

std::vector<Config> all_configs() {
  std::vector<Config> out;
  for (KernelBackend b : {KernelBackend::kNaive, KernelBackend::kBlocked,
                          KernelBackend::kParallel})
    for (int t : {1, 3}) out.push_back({b, t});
  return out;
}

std::string describe(const Config& c) {
  return std::string(to_string(c.backend)) + "/" + std::to_string(c.threads);
}

/// Bitwise equality (also tells -0 from +0 and compares NaN payloads).
::testing::AssertionResult bits_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape())
    return ::testing::AssertionFailure()
           << a.shape().to_string() << " vs " << b.shape().to_string();
  if (std::memcmp(a.data(), b.data(),
                  static_cast<std::size_t>(a.numel()) * sizeof(float)) != 0)
    return ::testing::AssertionFailure()
           << "bits differ, max |diff| " << ops::max_abs_diff(a, b);
  return ::testing::AssertionSuccess();
}

/// Adds seeded noise to every parameter, so biases, LayerNorm affines and
/// embeddings are not their initial zeros and ones: an epilogue that adds
/// a zero bias in the wrong place would otherwise keep its bits.
void perturb(const autograd::Module& module, std::uint64_t seed) {
  Rng rng(seed);
  for (Variable& p : module.parameters()) {
    Tensor noise = rng.normal_tensor(p.shape(), 0.0f, 0.05f);
    float* v = p.mutable_value().data();
    for (Index i = 0; i < noise.numel(); ++i) v[i] += noise.data()[i];
  }
}

/// Perturbs `module`'s parameters, runs `fwd` on every config with it
/// unfrozen (grad on: the tape chain), then frozen under NoGradGuard (the copy-free path), and checks
/// the two agree bit for bit per config.
void expect_frozen_parity(autograd::Module& module,
                          const std::function<Tensor()>& fwd,
                          const std::string& what) {
  module.train();
  perturb(module, 99);
  std::vector<Tensor> want;
  for (const Config& c : all_configs()) {
    runtime::Scope scope(
        runtime::ContextPatch::with_kernels({c.backend, c.threads}));
    want.push_back(fwd());
  }
  module.freeze_for_serving();
  NoGradGuard no_grad;
  std::size_t i = 0;
  for (const Config& c : all_configs()) {
    runtime::Scope scope(
        runtime::ContextPatch::with_kernels({c.backend, c.threads}));
    EXPECT_TRUE(bits_equal(fwd(), want[i++])) << what << ", " << describe(c);
  }
}

TEST(FrozenParity, CrossAttentionAggregatorEveryWidthModeAndHeadCount) {
  for (QueryMode mode : {QueryMode::kChannelTokens, QueryMode::kLearnedQuery}) {
    for (Index heads : {1, 2, 4}) {
      Rng rng(100 + static_cast<std::uint64_t>(heads));
      model::CrossAttentionAggregator agg(16, heads, 17, mode, rng);
      for (Index width = 1; width <= 17; ++width) {
        Variable tokens = Variable::input(
            Rng(static_cast<std::uint64_t>(width))
                .normal_tensor(Shape{2, 3, width, 16}));
        expect_frozen_parity(
            agg, [&] { return agg.forward(tokens).value(); },
            std::string(mode == QueryMode::kChannelTokens ? "channel-tokens"
                                                          : "learned-query") +
                " heads " + std::to_string(heads) + " width " +
                std::to_string(width));
      }
    }
  }
}

TEST(FrozenParity, CrossAttentionAggregatorLargeEnoughToFanOut) {
  // The serving model's unit shape at batch 8: 512 (row, head) units,
  // several ~1 MFLOP chunks on the parallel backend.
  Rng rng(7);
  model::CrossAttentionAggregator agg(32, 4, 16, QueryMode::kChannelTokens,
                                      rng);
  Variable tokens =
      Variable::input(Rng(8).normal_tensor(Shape{8, 16, 16, 32}));
  expect_frozen_parity(
      agg, [&] { return agg.forward(tokens).value(); }, "unit at batch 8");
}

TEST(FrozenParity, MultiHeadSelfAttentionForwardAndResidual) {
  for (Index heads : {1, 2, 4}) {
    Rng rng(200 + static_cast<std::uint64_t>(heads));
    model::MultiHeadSelfAttention attn(16, heads, rng);
    Variable x = Variable::input(Rng(9).normal_tensor(Shape{3, 10, 16}));
    Variable res = Variable::input(Rng(10).normal_tensor(Shape{3, 10, 16}));
    const std::string tag = "heads " + std::to_string(heads);
    expect_frozen_parity(
        attn, [&] { return attn.forward(x).value(); }, "forward " + tag);
    expect_frozen_parity(
        attn, [&] { return attn.forward_residual(x, res).value(); },
        "forward_residual " + tag);
  }
}

TEST(FrozenParity, TokenizerFullSubsetsAndRankLocalPositions) {
  const ModelConfig cfg = ModelConfig::tiny();
  Rng rng(11);
  model::PatchTokenizer full(cfg, 6, rng);
  Tensor images = Rng(12).normal_tensor(Shape{3, 6, 16, 16});
  expect_frozen_parity(
      full, [&] { return full.forward(images).value(); }, "full forward");
  expect_frozen_parity(
      full,
      [&] {
        return full.forward_for_aggregator(images, model::detail::all_slots(6))
            .value();
      },
      "full set, aggregator layout");
  for (const std::vector<Index>& subset :
       {std::vector<Index>{0}, std::vector<Index>{1, 3, 4},
        std::vector<Index>{5}, std::vector<Index>{0, 2, 5}}) {
    std::vector<Tensor> slabs;
    for (Index c : subset) slabs.push_back(ops::slice(images, 1, c, 1));
    Tensor sub = ops::concat(slabs, 1);
    const std::string tag = "subset of " + std::to_string(subset.size());
    expect_frozen_parity(
        full, [&] { return full.forward_subset(sub, subset).value(); }, tag);
    expect_frozen_parity(
        full,
        [&] {
          return full.forward_for_aggregator(sub, full.local_positions(subset))
              .value();
        },
        tag + ", aggregator layout");
  }
  // A rank's slice: global ids 4..7, served at local positions {1, 3}.
  Rng rank_rng(11);
  model::PatchTokenizer local(cfg, std::vector<Index>{4, 5, 6, 7}, rank_rng);
  Tensor pair = Rng(13).normal_tensor(Shape{2, 2, 16, 16});
  const std::vector<Index> positions =
      local.local_positions(std::vector<Index>{5, 7});
  ASSERT_EQ(positions, (std::vector<Index>{1, 3}));
  expect_frozen_parity(
      local,
      [&] { return local.forward_at_positions(pair, positions).value(); },
      "rank-local positions");
  expect_frozen_parity(
      local,
      [&] { return local.forward_for_aggregator(pair, positions).value(); },
      "rank-local positions, aggregator layout");
}

TEST(FrozenParity, TokenizerAggregatorLayoutIsThePermutedForward) {
  const ModelConfig cfg = ModelConfig::tiny();
  Rng rng(14);
  model::PatchTokenizer tok(cfg, 5, rng);
  tok.freeze_for_serving();
  NoGradGuard no_grad;
  Tensor images = Rng(15).normal_tensor(Shape{2, 5, 16, 16});
  const std::vector<Index> all = model::detail::all_slots(5);
  EXPECT_TRUE(bits_equal(tok.forward_for_aggregator(images, all).value(),
                         ops::permute(tok.forward(images).value(),
                                      {0, 2, 1, 3})));
}

std::unique_ptr<model::ForecastModel> make_serving_model() {
  const ModelConfig cfg = ModelConfig::tiny();
  Rng rng(31);
  auto agg = model::AggregationTree::with_units(
      cfg, model::AggLayerKind::kCrossAttention, 64, 4, rng);
  auto fe =
      std::make_unique<model::LocalFrontEnd>(cfg, 64, std::move(agg), rng);
  return std::make_unique<model::ForecastModel>(cfg, std::move(fe), 64, rng);
}

std::vector<Index> band_range(Index first, Index count, Index step) {
  std::vector<Index> out;
  for (Index c = first; static_cast<Index>(out.size()) < count; c += step)
    out.push_back(c);
  return out;
}

TEST(FrozenParity, EngineRunOnTheServingModelFullSetAndSubsets) {
  auto planned_model = make_serving_model();
  auto unplanned_model = make_serving_model();
  perturb(*planned_model, 32);
  perturb(*unplanned_model, 32);
  Engine planned(*planned_model);
  EngineOptions off;
  off.plan = false;
  Engine unplanned(*unplanned_model, std::nullopt, off);
  // Empty = all bands; then the full set named explicitly, the 32 even
  // bands, the first 16 and the last 48.
  const std::vector<std::vector<Index>> subsets{
      {}, band_range(0, 64, 1), band_range(0, 32, 2), band_range(0, 16, 1),
      band_range(16, 48, 1)};
  for (Index batch : {1, 3, 8}) {
    Tensor images = Rng(40 + static_cast<std::uint64_t>(batch))
                        .normal_tensor(Shape{batch, 64, 16, 16});
    for (const std::vector<Index>& subset : subsets) {
      Tensor x = images;
      if (!subset.empty()) {
        std::vector<Tensor> slabs;
        for (Index c : subset) slabs.push_back(ops::slice(images, 1, c, 1));
        x = ops::concat(slabs, 1);
      }
      for (const Config& c : all_configs()) {
        runtime::Scope scope(
            runtime::ContextPatch::with_kernels({c.backend, c.threads}));
        EXPECT_TRUE(bits_equal(planned.run(x, subset, 1.0f),
                               unplanned.run(x, subset, 1.0f)))
            << "batch " << batch << ", " << subset.size() << " bands, "
            << describe(c);
      }
    }
  }
}

TEST(FrozenParity, MutatedTokenizerChannelWeightAfterFreezeFailsLoudly) {
  auto model = make_serving_model();
  Engine engine(*model);
  // Channel 5's embedding weight, element 0 (always in the fingerprint).
  bool mutated = false;
  for (Variable& p : model->parameters()) {
    if (p.name() == "tokenizer.embed5.weight") {
      p.mutable_value().data()[0] += 1.0f;
      mutated = true;
    }
  }
  ASSERT_TRUE(mutated);
  Tensor images = Rng(50).normal_tensor(Shape{2, 64, 16, 16});
  EXPECT_THROW((void)engine.run(images, {}, 1.0f), StaleWeightPackError);
  const std::vector<Index> with5{4, 5};
  EXPECT_THROW((void)engine.run(ops::slice(images, 1, 4, 2), with5, 1.0f),
               StaleWeightPackError);
  const auto& fe =
      dynamic_cast<const model::LocalFrontEnd&>(model->frontend());
  NoGradGuard no_grad;
  EXPECT_THROW((void)fe.tokenizer().forward(images), StaleWeightPackError);
  // The check is per channel: a subset without channel 5 still serves.
  const std::vector<Index> without5{6, 7};
  EXPECT_NO_THROW(
      (void)engine.run(ops::slice(images, 1, 6, 2), without5, 1.0f));
}

}  // namespace
}  // namespace dchag::serve
