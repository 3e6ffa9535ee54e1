#include "parallel/sequence_parallel.hpp"

#include "model/attention.hpp"

namespace dchag::parallel {

namespace ops = tensor::ops;
using model::detail::attend;

Variable scatter_sequence(const Variable& x, Communicator& comm) {
  const Index S = x.shape().dim(1);
  const int P = comm.size();
  DCHAG_CHECK(S % P == 0,
              "sequence " << S << " not divisible by SP group " << P);
  const Index shard = S / P;
  // x is replicated; each rank's slice grads recombine additively into
  // the replicated tensor's grad via the slice backward.
  return autograd::slice(x, 1, comm.rank() * shard, shard);
}

Variable gather_sequence(const Variable& x_local, Communicator& comm) {
  if (comm.size() == 1) return x_local;
  return all_gather_cat(x_local, comm, /*dim=*/1,
                        GatherBackward::kLocalSlice);
}

SequenceParallelViTBlock::SequenceParallelViTBlock(const ModelConfig& cfg,
                                                   Communicator& comm,
                                                   tensor::Rng& rng,
                                                   const std::string& name)
    : heads_(cfg.num_heads), comm_(&comm) {
  // Same draw order as model::ViTBlock so weights replicate the serial
  // encoder exactly: attention fork (wq, wk, wv, wo), then the MLP from
  // the block stream.
  tensor::Rng r = rng.fork(std::hash<std::string>{}(name));
  const Index d = cfg.embed_dim;
  ln1_ = std::make_unique<autograd::LayerNorm>(d, name + ".ln1");
  tensor::Rng attn_rng = r.fork(std::hash<std::string>{}(name + ".attn"));
  wq_ = std::make_unique<autograd::Linear>(d, d, attn_rng, name + ".wq");
  wk_ = std::make_unique<autograd::Linear>(d, d, attn_rng, name + ".wk");
  wv_ = std::make_unique<autograd::Linear>(d, d, attn_rng, name + ".wv");
  wo_ = std::make_unique<autograd::Linear>(d, d, attn_rng, name + ".wo");
  ln2_ = std::make_unique<autograd::LayerNorm>(d, name + ".ln2");
  mlp_up_ = std::make_unique<autograd::Linear>(d, cfg.mlp_ratio * d, r,
                                               name + ".mlp_up");
  mlp_down_ = std::make_unique<autograd::Linear>(cfg.mlp_ratio * d, d, r,
                                                 name + ".mlp_down");
  register_child(*ln1_);
  register_child(*wq_);
  register_child(*wk_);
  register_child(*wv_);
  register_child(*wo_);
  register_child(*ln2_);
  register_child(*mlp_up_);
  register_child(*mlp_down_);
}

Variable SequenceParallelViTBlock::forward(const Variable& x_local) const {
  Variable normed = ln1_->forward(x_local);
  // Queries from the local slice only; keys/values gathered over the full
  // sequence (each rank's kv contribution feeds every rank's attention ->
  // general reduce-scatter backward).
  Variable q = wq_->forward(normed);
  Variable kv_full =
      comm_->size() == 1
          ? normed
          : all_gather_cat(normed, *comm_, /*dim=*/1,
                           GatherBackward::kReduceScatter);
  Variable attn = wo_->forward(attend(q, wk_->forward(kv_full),
                                      wv_->forward(kv_full), heads_,
                                      is_frozen()));
  Variable h = autograd::add(x_local, attn);
  Variable mlp = mlp_down_->forward(
      autograd::gelu(mlp_up_->forward(ln2_->forward(h))));
  return autograd::add(h, mlp);
}

SequenceParallelViTEncoder::SequenceParallelViTEncoder(
    const ModelConfig& cfg, Communicator& comm, tensor::Rng& rng,
    const std::string& name) {
  blocks_.reserve(static_cast<std::size_t>(cfg.num_layers));
  for (Index i = 0; i < cfg.num_layers; ++i) {
    blocks_.push_back(std::make_unique<SequenceParallelViTBlock>(
        cfg, comm, rng, name + ".block" + std::to_string(i)));
    register_child(*blocks_.back());
  }
  final_ln_ =
      std::make_unique<autograd::LayerNorm>(cfg.embed_dim, name + ".final_ln");
  register_child(*final_ln_);
}

Variable SequenceParallelViTEncoder::forward(const Variable& x_local) const {
  Variable h = x_local;
  for (const auto& block : blocks_) h = block->forward(h);
  return final_ln_->forward(h);
}

void SequenceParallelViTEncoder::sync_gradients(Communicator& comm) const {
  for (const Variable& p : parameters()) {
    if (!p.has_grad()) continue;
    tensor::Tensor g = p.node()->grad;  // aliases grad storage
    comm.all_reduce(g.span(), comm::ReduceOp::kSum);
  }
}

}  // namespace dchag::parallel
