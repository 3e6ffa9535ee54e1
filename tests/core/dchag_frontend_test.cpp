#include "core/dchag_frontend.hpp"

#include <gtest/gtest.h>

namespace dchag::core {
namespace {

namespace ops = tensor::ops;
using autograd::Variable;
using comm::CollectiveKind;
using comm::World;
using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

ModelConfig tiny() { return ModelConfig::tiny(); }

/// Single-device reference implementing the same math as a P-rank D-CHAG
/// front-end: full tokenizer, P identically-seeded partial trees applied
/// to the P channel groups, final cross-attention over the P outputs.
struct SingleDeviceReference {
  SingleDeviceReference(const ModelConfig& cfg, tensor::Index channels,
                        int P, const DchagOptions& opts, Rng& master_rng)
      : cfg_(cfg), P_(P) {
    Rng tok_rng = master_rng.fork(0xD0C);
    tokenizer_ =
        std::make_unique<model::PatchTokenizer>(cfg, channels, tok_rng);
    const tensor::Index c_local = channels / P;
    for (int r = 0; r < P; ++r) {
      Rng tree_rng = master_rng.fork(0x73EE);
      trees_.push_back(model::AggregationTree::with_units(
          cfg, opts.partial_kind, c_local,
          std::min<tensor::Index>(std::max<tensor::Index>(opts.tree_units, 1),
                                  c_local),
          tree_rng, "dchag.tree"));
    }
    Rng final_rng = master_rng.fork(0xF17A);
    final_ = std::make_unique<model::CrossAttentionAggregator>(
        cfg.embed_dim, cfg.num_heads, P, cfg.query_mode, final_rng,
        "dchag.final");
  }

  Variable forward(const Tensor& images) const {
    const tensor::Index B = images.dim(0);
    const tensor::Index S = cfg_.seq_len();
    const tensor::Index D = cfg_.embed_dim;
    const tensor::Index c_local = images.dim(1) / P_;
    Variable tokens = tokenizer_->forward(images);
    Variable bscd = autograd::permute(tokens, {0, 2, 1, 3});
    std::vector<Variable> parts;
    for (int r = 0; r < P_; ++r) {
      Variable group = autograd::slice(bscd, 2, r * c_local, c_local);
      parts.push_back(autograd::reshape(trees_[static_cast<std::size_t>(r)]->forward(group),
                                        Shape{B, S, 1, D}));
    }
    Variable gathered =
        parts.size() == 1 ? parts.front() : autograd::concat(parts, 2);
    return final_->forward(gathered);
  }

  ModelConfig cfg_;
  int P_;
  std::unique_ptr<model::PatchTokenizer> tokenizer_;
  std::vector<std::unique_ptr<model::AggregationTree>> trees_;
  std::unique_ptr<model::CrossAttentionAggregator> final_;
};

struct Param {
  int world;
  tensor::Index units;
  model::AggLayerKind kind;
};

class DchagSweep : public ::testing::TestWithParam<Param> {};

TEST_P(DchagSweep, ForwardMatchesSingleDeviceReference) {
  const auto [P, units, kind] = GetParam();
  ModelConfig cfg = tiny();
  const tensor::Index C = 8;
  Rng data_rng(3);
  Tensor img = data_rng.normal_tensor(Shape{2, C, 16, 16});

  Rng ref_rng(555);
  SingleDeviceReference ref(cfg, C, P, {units, kind}, ref_rng);
  Tensor expected = ref.forward(img).value();

  World world(P);
  world.run([&](parallel::Communicator& comm) {
    Rng rng(555);
    DchagFrontEnd fe(cfg, C, comm, {units, kind}, rng);
    Tensor local = fe.slice_local_channels(img);
    Variable out = fe.forward(local);
    ASSERT_EQ(out.shape(), (Shape{2, cfg.seq_len(), cfg.embed_dim}));
    ASSERT_LT(ops::max_abs_diff(out.value(), expected), 1e-4f)
        << "rank " << comm.rank();
  });
}

TEST_P(DchagSweep, OutputReplicatedAcrossRanks) {
  const auto [P, units, kind] = GetParam();
  ModelConfig cfg = tiny();
  Rng data_rng(4);
  Tensor img = data_rng.normal_tensor(Shape{1, 8, 16, 16});
  World world(P);
  world.run([&](parallel::Communicator& comm) {
    Rng rng(777);
    DchagFrontEnd fe(cfg, 8, comm, {units, kind}, rng);
    Variable out = fe.forward(fe.slice_local_channels(img));
    ASSERT_TRUE(parallel::is_replicated(out.value(), comm, 1e-5f));
  });
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DchagSweep,
    ::testing::Values(Param{1, 1, model::AggLayerKind::kLinear},
                      Param{2, 1, model::AggLayerKind::kLinear},
                      Param{2, 1, model::AggLayerKind::kCrossAttention},
                      Param{2, 2, model::AggLayerKind::kLinear},
                      Param{4, 1, model::AggLayerKind::kCrossAttention},
                      Param{4, 2, model::AggLayerKind::kCrossAttention},
                      Param{4, 2, model::AggLayerKind::kLinear}),
    [](const ::testing::TestParamInfo<Param>& info) {
      return "P" + std::to_string(info.param.world) + "Tree" +
             std::to_string(info.param.units) +
             model::to_string(info.param.kind);
    });

TEST(DchagFrontEnd, BackwardIssuesNoCommunication) {
  // Paper §3.3: "during the backward pass, we gather only the relevant
  // gradients for each GPU, avoiding any additional communication."
  ModelConfig cfg = tiny();
  Rng data_rng(5);
  Tensor img = data_rng.normal_tensor(Shape{1, 8, 16, 16});
  World world(4);
  world.run([&](parallel::Communicator& comm) {
    Rng rng(888);
    DchagFrontEnd fe(cfg, 8, comm, {1, model::AggLayerKind::kLinear}, rng);
    Variable out = fe.forward(fe.slice_local_channels(img));
    Variable loss = autograd::mean_all(autograd::mul(out, out));
    const auto fwd_calls = comm.stats().total_calls();
    const auto fwd_gathers = comm.stats().calls_of(CollectiveKind::kAllGather);
    loss.backward();
    ASSERT_EQ(comm.stats().total_calls(), fwd_calls);
    ASSERT_EQ(comm.stats().calls_of(CollectiveKind::kAllGather), fwd_gathers);
  });
}

TEST(DchagFrontEnd, ForwardUsesExactlyOneAllGather) {
  ModelConfig cfg = tiny();
  Rng data_rng(6);
  Tensor img = data_rng.normal_tensor(Shape{1, 8, 16, 16});
  World world(2);
  world.run([&](parallel::Communicator& comm) {
    Rng rng(999);
    DchagFrontEnd fe(cfg, 8, comm, {1, model::AggLayerKind::kLinear}, rng);
    comm.reset_stats();
    (void)fe.forward(fe.slice_local_channels(img));
    ASSERT_EQ(comm.stats().calls_of(CollectiveKind::kAllGather), 1u);
    // The gathered payload is one channel representation per rank:
    // B * S * P * D floats.
    const auto expected_bytes = static_cast<std::uint64_t>(
        1 * cfg.seq_len() * 2 * cfg.embed_dim * sizeof(float));
    ASSERT_EQ(comm.stats().bytes_of(CollectiveKind::kAllGather),
              expected_bytes);
  });
}

TEST(DchagFrontEnd, ChunkCountSweepMatchesOneChunkSyncForward) {
  // Every pipeline depth in both comm modes is bitwise the same forward as
  // one chunk on the sync lane: chunking splits the batch only, and every
  // kernel computes a batch row the same way whatever its neighbours.
  // K = 2 and 3 do not divide B, K = B + 3 must clamp to B. The sync lane
  // issues one AllGather per chunk (none on one rank).
  ModelConfig cfg = tiny();
  const tensor::Index C = 8;
  const tensor::Index B = 5;
  Tensor img = Rng(12).normal_tensor(Shape{B, C, 16, 16});
  for (int P : {1, 2, 4}) {
    World world(P);
    world.run([&](parallel::Communicator& comm) {
      autograd::NoGradGuard no_grad;
      Rng rng(1313);
      DchagFrontEnd fe(cfg, C, comm, {1, model::AggLayerKind::kLinear}, rng);
      Tensor local = fe.slice_local_channels(img);
      auto run = [&](comm::CommMode mode, int chunks) {
        runtime::Scope scope(runtime::ContextPatch::with_comm(
            comm::CommConfig{mode, chunks}));
        comm.reset_stats();
        Tensor out = fe.forward(local).value();
        EXPECT_EQ(out.shape(), (Shape{B, cfg.seq_len(), cfg.embed_dim}));
        return out;
      };
      const Tensor ref = run(comm::CommMode::kSync, 1);
      for (int K : {1, 2, 3, static_cast<int>(B), static_cast<int>(B) + 3}) {
        const auto clamped = static_cast<std::uint64_t>(std::min<int>(K, B));
        const Tensor sync_out = run(comm::CommMode::kSync, K);
        ASSERT_EQ(comm.stats().calls_of(CollectiveKind::kAllGather),
                  P > 1 ? clamped : 0u)
            << "K=" << K << " P=" << P;
        const Tensor async_out = run(comm::CommMode::kAsync, K);
        ASSERT_EQ(ops::max_abs_diff(sync_out, async_out), 0.0f)
            << "K=" << K << " P=" << P << " rank " << comm.rank();
        ASSERT_EQ(ops::max_abs_diff(sync_out, ref), 0.0f)
            << "K=" << K << " P=" << P << " rank " << comm.rank();
      }
    });
  }
}

TEST(DchagFrontEnd, GradientsMatchSingleDeviceReference) {
  ModelConfig cfg = tiny();
  const tensor::Index C = 4;
  const int P = 2;
  Rng data_rng(7);
  Tensor img = data_rng.normal_tensor(Shape{1, C, 16, 16});

  Rng ref_rng(1212);
  SingleDeviceReference ref(cfg, C, P, {1, model::AggLayerKind::kLinear},
                            ref_rng);
  {
    Variable out = ref.forward(img);
    autograd::mean_all(autograd::mul(out, out)).backward();
  }

  World world(P);
  world.run([&](parallel::Communicator& comm) {
    Rng rng(1212);
    DchagFrontEnd fe(cfg, C, comm, {1, model::AggLayerKind::kLinear}, rng);
    Variable out = fe.forward(fe.slice_local_channels(img));
    autograd::mean_all(autograd::mul(out, out)).backward();

    // Final aggregator grads must match the reference's final aggregator
    // (replicated computation -> identical gradients).
    auto fe_final = fe.final_aggregator().parameters();
    auto ref_final = ref.final_->parameters();
    ASSERT_EQ(fe_final.size(), ref_final.size());
    for (std::size_t i = 0; i < fe_final.size(); ++i) {
      ASSERT_TRUE(fe_final[i].has_grad()) << fe_final[i].name();
      ASSERT_LT(ops::max_abs_diff(fe_final[i].grad(), ref_final[i].grad()),
                1e-4f)
          << fe_final[i].name();
    }
    // Rank-local tree grads match the reference tree for this rank's group.
    auto fe_tree = fe.partial_tree().parameters();
    auto ref_tree =
        ref.trees_[static_cast<std::size_t>(comm.rank())]->parameters();
    ASSERT_EQ(fe_tree.size(), ref_tree.size());
    for (std::size_t i = 0; i < fe_tree.size(); ++i) {
      ASSERT_LT(ops::max_abs_diff(fe_tree[i].grad(), ref_tree[i].grad()),
                1e-4f)
          << fe_tree[i].name() << " rank " << comm.rank();
    }
  });
}

TEST(DchagFrontEnd, FinalAggregatorWeightsReplicatedByConstruction) {
  ModelConfig cfg = tiny();
  World world(4);
  world.run([&](parallel::Communicator& comm) {
    Rng rng(4242);
    DchagFrontEnd fe(cfg, 8, comm, {2, model::AggLayerKind::kCrossAttention},
                     rng);
    for (const Variable& p : fe.final_aggregator().parameters()) {
      ASSERT_TRUE(parallel::is_replicated(p.value(), comm)) << p.name();
    }
  });
}

TEST(DchagFrontEnd, RejectsWrongInputShape) {
  ModelConfig cfg = tiny();
  World world(2);
  EXPECT_THROW(world.run([&](parallel::Communicator& comm) {
    Rng rng(1);
    DchagFrontEnd fe(cfg, 8, comm, {1, model::AggLayerKind::kLinear}, rng);
    (void)fe.forward(Tensor(Shape{1, 8, 16, 16}));  // full C, not local
  }),
               Error);
}

TEST(DchagFactories, MaeAndForecastRunSpmd) {
  ModelConfig cfg = tiny();
  Rng data_rng(9);
  Tensor img = data_rng.normal_tensor(Shape{1, 4, 16, 16});
  Tensor future = data_rng.normal_tensor(Shape{1, 4, 16, 16});
  World world(2);
  world.run([&](parallel::Communicator& comm) {
    Rng rng(31337);
    auto mae = make_dchag_mae(cfg, 4, comm, {1, model::AggLayerKind::kLinear},
                              rng);
    Rng mask_rng(55);
    Tensor mask = model::MaeModel::make_mask(1, cfg.seq_len(), 0.5f, mask_rng);
    auto out = mae->forward(mae->frontend().select_input(img), img, mask);
    ASSERT_TRUE(std::isfinite(out.loss.value().item()));
    // Loss must be identical on every rank (replicated downstream).
    Tensor loss_t = out.loss.value().clone();
    ASSERT_TRUE(parallel::is_replicated(loss_t, comm, 1e-6f));

    Rng rng2(31337);
    auto fm = make_dchag_forecast(cfg, 4, comm,
                                  {1, model::AggLayerKind::kLinear}, rng2);
    auto fout = fm->forward(fm->frontend().select_input(img), future);
    ASSERT_TRUE(std::isfinite(fout.loss.value().item()));
  });
}

}  // namespace
}  // namespace dchag::core
