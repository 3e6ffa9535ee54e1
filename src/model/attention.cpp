#include "model/attention.hpp"

#include <cmath>
#include <numeric>

namespace dchag::model {

namespace {

/// [*, N, D] -> [*, h, N, dh]: split heads and move them ahead of the
/// token dimension so attention is a batched matmul over [N, dh].
Variable split_heads(const Variable& x, Index heads) {
  const auto& s = x.shape();
  const Index rank = s.rank();
  auto dims = s.dims();
  dims.back() = s.dim(rank - 1) / heads;
  dims.insert(dims.end() - 1, heads);
  // [*, N, h, dh] -> permute the last three dims to [*, h, N, dh].
  Variable y = autograd::reshape(
      x, tensor::Shape{std::vector<Index>(dims)});
  std::vector<Index> perm(static_cast<std::size_t>(rank + 1));
  for (Index i = 0; i < rank + 1; ++i) perm[static_cast<std::size_t>(i)] = i;
  std::swap(perm[static_cast<std::size_t>(rank - 1)],
            perm[static_cast<std::size_t>(rank - 2)]);
  return autograd::permute(y, perm);
}

/// Inverse of split_heads: [*, h, N, dh] -> [*, N, h*dh].
Variable merge_heads(const Variable& x) {
  const auto& s = x.shape();
  const Index rank = s.rank();
  std::vector<Index> perm(static_cast<std::size_t>(rank));
  for (Index i = 0; i < rank; ++i) perm[static_cast<std::size_t>(i)] = i;
  std::swap(perm[static_cast<std::size_t>(rank - 2)],
            perm[static_cast<std::size_t>(rank - 3)]);
  Variable y = autograd::permute(x, perm);  // [*, N, h, dh]
  auto dims = y.shape().dims();
  const Index dh = dims.back();
  dims.pop_back();
  dims.back() *= dh;
  return autograd::reshape(y, tensor::Shape{std::vector<Index>(dims)});
}

}  // namespace

namespace detail {

Variable attend(const Variable& q, const Variable& k, const Variable& v,
                Index heads, bool frozen) {
  const Index dh = q.shape().dim(-1) / heads;
  const float s = 1.0f / std::sqrt(static_cast<float>(dh));
  if (frozen && !autograd::is_grad_enabled()) {
    // Tape-free: every head attends in place, no split/merge copies.
    return Variable::input(tensor::ops::attention_heads(
        q.value(), k.value(), v.value(), heads, s));
  }
  Variable qh = split_heads(q, heads);
  Variable kh = split_heads(k, heads);
  Variable vh = split_heads(v, heads);
  Variable scores =
      autograd::scale(autograd::matmul(qh, autograd::transpose_last2(kh)), s);
  return merge_heads(autograd::matmul(autograd::softmax_lastdim(scores), vh));
}

void check_subset_slots(std::span<const Index> slots, Index width,
                        Index ntokens) {
  DCHAG_CHECK(static_cast<Index>(slots.size()) == ntokens,
              "subset has " << ntokens << " tokens but " << slots.size()
                            << " slots");
  Index prev = -1;
  for (Index s : slots) {
    DCHAG_CHECK(s > prev && s < width,
                "subset slots must be strictly increasing in [0, " << width
                                                                   << ")");
    prev = s;
  }
}

std::vector<Index> all_slots(Index width) {
  std::vector<Index> slots(static_cast<std::size_t>(width));
  std::iota(slots.begin(), slots.end(), Index{0});
  return slots;
}

}  // namespace detail

using detail::attend;
using detail::check_subset_slots;

Variable ChannelAggregator::forward_subset(
    const Variable& tokens, std::span<const Index> slots) const {
  check_subset_slots(slots, width(), tokens.shape().dim(2));
  DCHAG_CHECK(static_cast<Index>(slots.size()) == width(),
              "this aggregator has per-slot structure and only accepts the "
              "full channel set of width "
                  << width());
  return forward(tokens);
}

MultiHeadSelfAttention::MultiHeadSelfAttention(Index dim, Index heads,
                                               Rng& rng,
                                               const std::string& name)
    : dim_(dim), heads_(heads) {
  DCHAG_CHECK(dim % heads == 0, "dim " << dim << " % heads " << heads);
  Rng r = rng.fork(std::hash<std::string>{}(name));
  wq_ = std::make_unique<Linear>(dim, dim, r, name + ".wq");
  wk_ = std::make_unique<Linear>(dim, dim, r, name + ".wk");
  wv_ = std::make_unique<Linear>(dim, dim, r, name + ".wv");
  wo_ = std::make_unique<Linear>(dim, dim, r, name + ".wo");
  register_child(*wq_);
  register_child(*wk_);
  register_child(*wv_);
  register_child(*wo_);
}

Variable MultiHeadSelfAttention::forward(const Variable& x) const {
  DCHAG_CHECK(x.shape().dim(-1) == dim_,
              "attention dim mismatch: " << x.shape().to_string());
  return wo_->forward(attend(wq_->forward(x), wk_->forward(x),
                             wv_->forward(x), heads_, is_frozen()));
}

Variable MultiHeadSelfAttention::forward_residual(
    const Variable& x, const Variable& residual) const {
  DCHAG_CHECK(x.shape().dim(-1) == dim_,
              "attention dim mismatch: " << x.shape().to_string());
  return wo_->forward_residual(
      attend(wq_->forward(x), wk_->forward(x), wv_->forward(x), heads_,
             is_frozen()),
      residual);
}

CrossAttentionAggregator::CrossAttentionAggregator(
    Index dim, Index heads, Index channels, QueryMode mode, Rng& rng,
    const std::string& name)
    : dim_(dim), heads_(heads), channels_(channels), mode_(mode) {
  DCHAG_CHECK(dim % heads == 0, "dim " << dim << " % heads " << heads);
  DCHAG_CHECK(channels > 0, "aggregator needs channels > 0");
  Rng r = rng.fork(std::hash<std::string>{}(name));
  ln_ = std::make_unique<LayerNorm>(dim, name + ".ln");
  wq_ = std::make_unique<Linear>(dim, dim, r, name + ".wq");
  wk_ = std::make_unique<Linear>(dim, dim, r, name + ".wk");
  wv_ = std::make_unique<Linear>(dim, dim, r, name + ".wv");
  wo_ = std::make_unique<Linear>(dim, dim, r, name + ".wo");
  register_child(*ln_);
  register_child(*wq_);
  register_child(*wk_);
  register_child(*wv_);
  register_child(*wo_);
  if (mode_ == QueryMode::kLearnedQuery) {
    query_ = register_param(name + ".query",
                            r.normal_tensor(tensor::Shape{dim}, 0.0f, 0.02f));
  }
}

Variable CrossAttentionAggregator::forward(const Variable& tokens) const {
  const auto& s = tokens.shape();
  // Width-agnostic: any subset of the nominal channels is accepted
  // (paper §2.1 — inference/fine-tuning on channel subsets).
  DCHAG_CHECK(s.rank() == 4 && s.dim(2) >= 1 && s.dim(2) <= channels_ &&
                  s.dim(3) == dim_,
              "aggregator expects [B, S, 1.." << channels_ << ", " << dim_
                                              << "], got " << s.to_string());
  const Index B = s.dim(0);
  const Index S = s.dim(1);
  Variable x = ln_->forward(tokens);

  Variable q_src;
  if (mode_ == QueryMode::kChannelTokens) {
    q_src = x;  // C queries -> C x C scores (quadratic in C)
  } else {
    // One learned query broadcast over batch and space (linear in C).
    Variable q = autograd::expand_dim(query_, 0, 1);  // [1, D]
    q = autograd::expand_dim(q, 0, S);                // [S, 1, D]
    q_src = autograd::expand_dim(q, 0, B);            // [B, S, 1, D]
  }

  Variable out = wo_->forward(attend(wq_->forward(q_src), wk_->forward(x),
                                     wv_->forward(x), heads_, is_frozen()));

  if (mode_ == QueryMode::kChannelTokens) {
    return autograd::mean_dim(out, 2);  // pool C attended tokens -> one
  }
  return autograd::reshape(out, tensor::Shape{B, S, dim_});
}

Variable CrossAttentionAggregator::forward_subset(
    const Variable& tokens, std::span<const Index> slots) const {
  check_subset_slots(slots, channels_, tokens.shape().dim(2));
  return forward(tokens);
}

LinearAggregator::LinearAggregator(Index dim, Index channels, Rng& rng,
                                   const std::string& name)
    : dim_(dim), channels_(channels) {
  DCHAG_CHECK(channels > 0, "aggregator needs channels > 0");
  Rng r = rng.fork(std::hash<std::string>{}(name));
  ln_ = std::make_unique<LayerNorm>(dim, name + ".ln");
  register_child(*ln_);
  combine_ = register_param(
      name + ".combine",
      tensor::Tensor(tensor::Shape{channels},
                     1.0f / static_cast<float>(channels)));
  proj_ = std::make_unique<Linear>(dim, dim, r, name + ".proj");
  register_child(*proj_);
}

Variable LinearAggregator::forward(const Variable& tokens) const {
  return forward_subset(tokens, detail::all_slots(channels_));
}

Variable LinearAggregator::forward_subset(
    const Variable& tokens, std::span<const Index> slots) const {
  const auto& s = tokens.shape();
  DCHAG_CHECK(s.rank() == 4 && s.dim(3) == dim_,
              "aggregator expects [B, S, W, " << dim_ << "], got "
                                              << s.to_string());
  check_subset_slots(slots, channels_, s.dim(2));
  const Index w_sub = static_cast<Index>(slots.size());
  Variable x = ln_->forward(tokens);
  // The present slots' combine weights (slot order == token order); the
  // full set mixes with the whole vector.
  Variable w = combine_;
  if (w_sub < channels_) {
    std::vector<Variable> parts;
    parts.reserve(slots.size());
    for (Index slot : slots)
      parts.push_back(autograd::slice(combine_, 0, slot, 1));
    w = parts.size() == 1 ? parts.front() : autograd::concat(parts, 0);
  }
  // Weighted channel combination: [W] -> [W, 1] broadcasts over D.
  w = autograd::reshape(w, tensor::Shape{w_sub, 1});
  Variable mixed = autograd::sum_dim(autograd::mul(x, w), 2);  // [B, S, D]
  return proj_->forward(mixed);
}

std::unique_ptr<ChannelAggregator> make_aggregator(
    AggLayerKind kind, Index dim, Index heads, Index channels,
    QueryMode mode, Rng& rng, const std::string& name) {
  if (kind == AggLayerKind::kCrossAttention) {
    return std::make_unique<CrossAttentionAggregator>(dim, heads, channels,
                                                      mode, rng, name);
  }
  return std::make_unique<LinearAggregator>(dim, channels, rng, name);
}

}  // namespace dchag::model
