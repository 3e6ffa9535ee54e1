// Per-channel patch tokenization (paper Fig. 1, left).
//
// Every channel of the input image is patchified and embedded with its own
// projection weights (as in ClimaX/ORBIT, where each physical variable has
// its own patch embedding), then tagged with a channel-ID embedding and a
// shared positional embedding. This per-channel independence is exactly
// what lets D-CHAG split tokenization across ranks without changing the
// math: a tokenizer over a channel subset produces bit-identical tokens to
// the corresponding slice of a full tokenizer with the same weights.
//
// Two output layouts: [B, N, S, D] (forward, forward_subset,
// forward_at_positions) and the channel aggregators' [B, S, N, D]
// (forward_for_aggregator, the front-ends' entry). Frozen for serving with
// gradients off, the tokenizer skips the per-channel op chain: one product
// per (image, channel) on that channel Linear's pre-packed panels writes
// straight into the chosen layout, bias and embeddings added in the
// chain's order, so the bits match the tape path.
#pragma once

#include <span>
#include <vector>

#include "model/config.hpp"
#include "tensor/module.hpp"

namespace dchag::model {

using autograd::Linear;
using autograd::Module;
using autograd::Variable;
using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

/// Rearranges images [B, C, H, W] into patches [B, C, S, p*p]
/// (S = (H/p)*(W/p), patches in row-major spatial order).
[[nodiscard]] Tensor patchify(const Tensor& images, Index patch);

/// Inverse of patchify: [B, C, S, p*p] -> [B, C, H, W].
[[nodiscard]] Tensor unpatchify(const Tensor& patches, Index patch, Index h,
                                Index w);

class PatchTokenizer : public Module {
 public:
  /// Tokenizes the channel subset `channel_ids` (global channel indices;
  /// used to seed per-channel weights identically regardless of how the
  /// channels are partitioned across ranks). A full tokenizer passes
  /// {0..C-1}.
  PatchTokenizer(const ModelConfig& cfg, std::vector<Index> channel_ids,
                 Rng& rng);

  /// Convenience: tokenizer over all `channels` channels.
  PatchTokenizer(const ModelConfig& cfg, Index channels, Rng& rng);

  /// images: [B, C_local, H, W] with channels ordered as channel_ids.
  /// Returns tokens [B, C_local, S, D].
  [[nodiscard]] Variable forward(const Tensor& images) const;

  /// Tokenizes only the listed global channels (a strictly increasing
  /// subsequence of channel_ids()). `images` is [B, N, H, W] holding those
  /// N channels in the same order; each is embedded with the weights of its
  /// global id, so the result is bit-identical to the corresponding rows
  /// of a full forward(). Serving's channel-subset path (paper §2.1).
  [[nodiscard]] Variable forward_subset(
      const Tensor& images, std::span<const Index> channels) const;

  /// Local positions (indices into channel_ids()) of the given global
  /// channel ids; fails loudly on channels this tokenizer does not own.
  [[nodiscard]] std::vector<Index> local_positions(
      std::span<const Index> channels) const;

  /// Tokenizes `images` [B, N, H, W] whose N slabs correspond, in order,
  /// to channel_ids()[positions[i]] -> [B, N, S, D]. The shared core of
  /// forward() and forward_subset(), public so subset callers can reuse an
  /// already computed local_positions() result instead of mapping twice.
  [[nodiscard]] Variable forward_at_positions(
      const Tensor& images, const std::vector<Index>& positions) const;

  /// forward_at_positions() in the channel aggregators' layout
  /// [B, S, N, D], the front-ends' entry. Frozen with gradients off it
  /// writes that layout directly; otherwise the tape records the same
  /// chain plus one permute.
  [[nodiscard]] Variable forward_for_aggregator(
      const Tensor& images, const std::vector<Index>& positions) const;

  [[nodiscard]] Index num_channels() const {
    return static_cast<Index>(channel_ids_.size());
  }
  [[nodiscard]] const std::vector<Index>& channel_ids() const {
    return channel_ids_;
  }

 private:
  /// The body of both entries: [B, S, N, D] when `spatial_major`, else
  /// [B, N, S, D].
  [[nodiscard]] Variable embed(const Tensor& images,
                               const std::vector<Index>& positions,
                               bool spatial_major) const;
  /// The frozen tape-free embed of `patches` [B, N, S, p2]: one product
  /// per (image, channel) on that channel's pre-packed panels, written
  /// straight into the chosen layout with the bias and embeddings added
  /// in the unfrozen chain's order, so the bits match it.
  [[nodiscard]] Tensor embed_frozen(const Tensor& patches,
                                    const std::vector<Index>& positions,
                                    bool spatial_major) const;

  ModelConfig cfg_;
  std::vector<Index> channel_ids_;
  std::vector<std::unique_ptr<Linear>> embeds_;  // one per local channel
  Variable channel_emb_;  // [C_local, D]
  Variable pos_emb_;      // [S, D]
};

}  // namespace dchag::model
