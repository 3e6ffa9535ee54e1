// Per-channel patch tokenization (paper Fig. 1, left).
//
// Every channel of the input image is patchified and embedded with its own
// projection weights (as in ClimaX/ORBIT, where each physical variable has
// its own patch embedding), then tagged with a channel-ID embedding and a
// shared positional embedding. This per-channel independence is exactly
// what lets D-CHAG split tokenization across ranks without changing the
// math: a tokenizer over a channel subset produces bit-identical tokens to
// the corresponding slice of a full tokenizer with the same weights.
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
  /// to channel_ids()[positions[i]]. The shared core of forward() and
  /// forward_subset(), public so subset callers can reuse an already
  /// computed local_positions() result instead of mapping twice.
  [[nodiscard]] Variable forward_at_positions(
      const Tensor& images, const std::vector<Index>& positions) const;

  [[nodiscard]] Index num_channels() const {
    return static_cast<Index>(channel_ids_.size());
  }
  [[nodiscard]] const std::vector<Index>& channel_ids() const {
    return channel_ids_;
  }

 private:
  ModelConfig cfg_;
  std::vector<Index> channel_ids_;
  std::vector<std::unique_ptr<Linear>> embeds_;  // one per local channel
  Variable channel_emb_;  // [C_local, D]
  Variable pos_emb_;      // [S, D]
};

}  // namespace dchag::model
