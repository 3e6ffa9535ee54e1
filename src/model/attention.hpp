// Attention modules: multi-head self-attention (ViT blocks) and the two
// channel-aggregation unit types the paper studies — cross-attention (-C)
// and lightweight linear (-L).
//
// Every attention core goes through detail::attend on projected [*, N, D]
// operands. Frozen for serving with gradients off, heads are attended in
// place (ops::attention_heads: no split/merge copies, no materialised
// kᵀ); otherwise the tape records split heads -> softmax(q kᵀ / sqrt(dh))
// v -> merge heads. Both give the same bits.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "model/config.hpp"
#include "tensor/module.hpp"

namespace dchag::model {

using autograd::LayerNorm;
using autograd::Linear;
using autograd::Module;
using autograd::Variable;
using tensor::Rng;

namespace detail {
/// Multi-head scaled dot-product attention on projected operands:
/// q [*, Nq, D], k/v [*, Nk, D] -> merged [*, Nq, D], heads interleaved
/// along D (head h owns columns [h*dh, (h+1)*dh)). On a frozen owner with
/// gradients off it is one tape-free ops::attention_heads call that reads
/// and writes each head in place; otherwise it records split heads ->
/// softmax(q kᵀ / sqrt(dh)) v -> merge heads on the tape. Both branches
/// give the same bits.
[[nodiscard]] Variable attend(const Variable& q, const Variable& k,
                              const Variable& v, Index heads, bool frozen);
/// Validates a partial-channel slot list: strictly increasing indices in
/// [0, width), one per token (ntokens == slots.size()).
void check_subset_slots(std::span<const Index> slots, Index width,
                        Index ntokens);
/// {0, 1, ..., width - 1}: the full channel set written as a subset, the
/// slot list every full-width forward runs its subset path with.
[[nodiscard]] std::vector<Index> all_slots(Index width);
}  // namespace detail

/// Standard multi-head self-attention over the last-but-one dimension:
/// input [*, S, D] -> output [*, S, D].
class MultiHeadSelfAttention : public Module {
 public:
  MultiHeadSelfAttention(Index dim, Index heads, Rng& rng,
                         const std::string& name = "attn");

  [[nodiscard]] Variable forward(const Variable& x) const;
  /// residual + forward(x), with the residual add fused into the output
  /// projection's GEMM tail when frozen for serving (bit-identical).
  [[nodiscard]] Variable forward_residual(const Variable& x,
                                          const Variable& residual) const;

 private:
  Index dim_;
  Index heads_;
  std::unique_ptr<Linear> wq_, wk_, wv_, wo_;
};

/// Interface for anything that reduces channel tokens [B, S, C, D] to a
/// single representation [B, S, D]. Implementations: cross-attention unit,
/// linear unit, the hierarchical tree (aggregation.hpp), and D-CHAG's
/// distributed aggregator (core/).
class ChannelAggregator : public Module {
 public:
  [[nodiscard]] virtual Variable forward(const Variable& tokens) const = 0;
  /// Number of channel tokens this aggregator consumes.
  [[nodiscard]] virtual Index width() const = 0;
  /// Partial-channel inference (paper §2.1): `tokens` is [B, S, W, D] with
  /// W == slots.size(), and `slots` are the strictly increasing positions
  /// (in [0, width())) those tokens occupy in the full-width layout. The
  /// full set computes exactly forward(). The base implementation only
  /// accepts the full set; width-agnostic or slot-sliceable aggregators
  /// override.
  [[nodiscard]] virtual Variable forward_subset(
      const Variable& tokens, std::span<const Index> slots) const;
};

/// Cross-attention channel aggregation (paper §2.1). With
/// QueryMode::kChannelTokens the C channel tokens attend over themselves
/// (C x C score matrix — quadratic in C, matching the paper's memory
/// analysis) and the result is mean-pooled; with kLearnedQuery a single
/// learned query attends over the C tokens (linear in C).
///
/// Cross-attention is width-agnostic: forward() accepts ANY channel count
/// 1..width(). This is the property the paper highlights in §2.1 — the
/// model can "generalize or fine-tune on subsets of the original channel
/// dimensions while still leveraging the full model capacity".
class CrossAttentionAggregator : public ChannelAggregator {
 public:
  CrossAttentionAggregator(Index dim, Index heads, Index channels,
                           QueryMode mode, Rng& rng,
                           const std::string& name = "xattn");

  /// tokens: [B, S, W, D] with 1 <= W <= width() -> [B, S, D].
  [[nodiscard]] Variable forward(const Variable& tokens) const override;
  /// Cross-attention has no per-slot weights, so any subset reduces to a
  /// plain forward over the present tokens.
  [[nodiscard]] Variable forward_subset(
      const Variable& tokens, std::span<const Index> slots) const override;
  [[nodiscard]] Index width() const override { return channels_; }
  [[nodiscard]] QueryMode mode() const { return mode_; }

 private:
  Index dim_;
  Index heads_;
  Index channels_;
  QueryMode mode_;
  std::unique_ptr<LayerNorm> ln_;
  std::unique_ptr<Linear> wq_, wk_, wv_, wo_;
  Variable query_;  // defined only for kLearnedQuery
};

/// Lightweight linear aggregation unit (paper §3.2/-L variants): a learned
/// convex-ish combination over the channel dimension followed by an output
/// projection. Parameter cost is width + D^2 + D (vs 4 D^2 for
/// cross-attention), which is why -L wins at scale (paper Fig. 9/13).
/// forward() is forward_subset() over every slot: one body mixes with the
/// whole combine vector for the full set and with the present slots'
/// combine weights for a subset.
class LinearAggregator : public ChannelAggregator {
 public:
  LinearAggregator(Index dim, Index channels, Rng& rng,
                   const std::string& name = "linagg");

  /// tokens: [B, S, C, D] -> [B, S, D].
  [[nodiscard]] Variable forward(const Variable& tokens) const override;
  /// tokens: [B, S, W, D] -> [B, S, D], mixed with the combine weights of
  /// the present slots only.
  [[nodiscard]] Variable forward_subset(
      const Variable& tokens, std::span<const Index> slots) const override;
  [[nodiscard]] Index width() const override { return channels_; }

 private:
  Index dim_;
  Index channels_;
  std::unique_ptr<LayerNorm> ln_;
  Variable combine_;  // [C] channel mixing weights
  std::unique_ptr<Linear> proj_;
};

/// Factory used by the aggregation tree and D-CHAG partial modules.
[[nodiscard]] std::unique_ptr<ChannelAggregator> make_aggregator(
    AggLayerKind kind, Index dim, Index heads, Index channels,
    QueryMode mode, Rng& rng, const std::string& name);

}  // namespace dchag::model
