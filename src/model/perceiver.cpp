#include "model/perceiver.hpp"

namespace dchag::model {

namespace {
constexpr Index kMlpRatio = 2;  // Perceiver uses a slim MLP
}

PerceiverAggregator::PerceiverAggregator(Index dim, Index heads,
                                         Index channels, Index latents,
                                         Index iterations, Rng& rng,
                                         const std::string& name)
    : dim_(dim), heads_(heads), channels_(channels), latents_(latents) {
  DCHAG_CHECK(dim % heads == 0, "dim % heads");
  DCHAG_CHECK(latents >= 1 && iterations >= 1, "perceiver needs >=1 latent "
                                               "and iteration");
  Rng r = rng.fork(std::hash<std::string>{}(name));
  latent_tokens_ = register_param(
      name + ".latents", r.normal_tensor(tensor::Shape{latents, dim}, 0.0f,
                                         0.02f));
  blocks_.resize(static_cast<std::size_t>(iterations));
  for (Index i = 0; i < iterations; ++i) {
    auto& b = blocks_[static_cast<std::size_t>(i)];
    const std::string bn = name + ".block" + std::to_string(i);
    b.ln_q = std::make_unique<LayerNorm>(dim, bn + ".ln_q");
    b.ln_kv = std::make_unique<LayerNorm>(dim, bn + ".ln_kv");
    b.ln_mlp = std::make_unique<LayerNorm>(dim, bn + ".ln_mlp");
    b.wq = std::make_unique<Linear>(dim, dim, r, bn + ".wq");
    b.wk = std::make_unique<Linear>(dim, dim, r, bn + ".wk");
    b.wv = std::make_unique<Linear>(dim, dim, r, bn + ".wv");
    b.wo = std::make_unique<Linear>(dim, dim, r, bn + ".wo");
    b.mlp_up = std::make_unique<Linear>(dim, kMlpRatio * dim, r,
                                        bn + ".mlp_up");
    b.mlp_down = std::make_unique<Linear>(kMlpRatio * dim, dim, r,
                                          bn + ".mlp_down");
    register_child(*b.ln_q);
    register_child(*b.ln_kv);
    register_child(*b.ln_mlp);
    register_child(*b.wq);
    register_child(*b.wk);
    register_child(*b.wv);
    register_child(*b.wo);
    register_child(*b.mlp_up);
    register_child(*b.mlp_down);
  }
}

Variable PerceiverAggregator::forward(const Variable& tokens) const {
  const auto& s = tokens.shape();
  DCHAG_CHECK(s.rank() == 4 && s.dim(2) == channels_ && s.dim(3) == dim_,
              "perceiver expects [B, S, " << channels_ << ", " << dim_
                                          << "], got " << s.to_string());
  const Index B = s.dim(0);
  const Index S = s.dim(1);

  // Broadcast the learned latents over batch and space: [B, S, K, D].
  Variable lat = autograd::expand_dim(latent_tokens_, 0, S);
  lat = autograd::expand_dim(lat, 0, B);

  for (const Block& b : blocks_) {
    // Cross-attention: latents query the channel tokens.
    Variable q = b.wq->forward(b.ln_q->forward(lat));
    Variable kv_in = b.ln_kv->forward(tokens);
    Variable attended = b.wo->forward(
        detail::attend(q, b.wk->forward(kv_in), b.wv->forward(kv_in), heads_,
                       is_frozen()));
    lat = autograd::add(lat, attended);
    // Latent MLP.
    Variable h = b.mlp_down->forward(
        autograd::gelu(b.mlp_up->forward(b.ln_mlp->forward(lat))));
    lat = autograd::add(lat, h);
  }
  return autograd::mean_dim(lat, 2);  // pool latents -> [B, S, D]
}

Index perceiver_params(Index dim, Index latents, Index iterations,
                       Index mlp_ratio) {
  const Index per_block = 3 * 2 * dim                       // three LNs
                          + 4 * (dim * dim + dim)           // q, k, v, out
                          + dim * (mlp_ratio * dim) + mlp_ratio * dim
                          + mlp_ratio * dim * dim + dim;    // mlp
  return latents * dim + iterations * per_block;
}

}  // namespace dchag::model
