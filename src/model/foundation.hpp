// The full foundation-model architecture (paper Fig. 1): a channel
// front-end (tokenize + aggregate -> one spatial token stream), the ViT
// encoder, and a task head. The front-end is injected so the same model
// runs with the single-device baseline aggregator, the hierarchical tree,
// or D-CHAG's distributed front-end (core/dchag_frontend.hpp).
#pragma once

#include <memory>

#include "model/aggregation.hpp"
#include "model/tokenizer.hpp"
#include "model/vit.hpp"

namespace dchag::model {

/// Anything that maps raw images to one aggregated token per patch.
class FrontEnd : public Module {
 public:
  /// images: [B, C_local, H, W] -> [B, S, D].
  [[nodiscard]] virtual Variable forward(const Tensor& images) const = 0;
  /// Channel-subset inference (paper §2.1): `images` is [B, N, H, W]
  /// holding only the N listed global channels (strictly increasing,
  /// N == channels.size()); returns [B, S, D] aggregated from those
  /// channels alone. Every front-end runs forward() as the every-channel
  /// case of this path.
  [[nodiscard]] virtual Variable forward_subset(
      const Tensor& images, std::span<const Index> channels) const = 0;
  /// Channels this front-end consumes from the local input tensor.
  [[nodiscard]] virtual Index local_channels() const = 0;
  /// Extracts this front-end's input from the full [B, C, H, W] batch
  /// (identity for single-device front-ends; D-CHAG slices its rank's
  /// channels). Lets training loops stay strategy-agnostic.
  [[nodiscard]] virtual Tensor select_input(const Tensor& full_images) const {
    return full_images;
  }
};

/// Single-device front-end: full tokenizer + one aggregator (the paper's
/// baseline when the aggregator is a single cross-attention layer, or the
/// §3.2 hierarchical variant when it is an AggregationTree). forward() is
/// forward_subset() over channels 0..C-1: tokenize at the requested
/// positions, then aggregate those slots.
class LocalFrontEnd : public FrontEnd {
 public:
  LocalFrontEnd(const ModelConfig& cfg, Index channels,
                std::unique_ptr<ChannelAggregator> agg, Rng& rng);

  [[nodiscard]] Variable forward(const Tensor& images) const override;
  [[nodiscard]] Variable forward_subset(
      const Tensor& images, std::span<const Index> channels) const override;
  [[nodiscard]] Index local_channels() const override {
    return tokenizer_->num_channels();
  }
  [[nodiscard]] const PatchTokenizer& tokenizer() const {
    return *tokenizer_;
  }
  [[nodiscard]] const ChannelAggregator& aggregator() const { return *agg_; }

 private:
  std::unique_ptr<PatchTokenizer> tokenizer_;
  std::unique_ptr<ChannelAggregator> agg_;
};

/// Baseline front-end factory: single cross-attention aggregation layer.
[[nodiscard]] std::unique_ptr<LocalFrontEnd> make_baseline_frontend(
    const ModelConfig& cfg, Index channels, Rng& rng);

/// Rearranges patchified images [B, C, S, p2] to the head's prediction
/// layout [B, S, C*p2] (and back), so losses compare like with like.
[[nodiscard]] Tensor to_prediction_layout(const Tensor& patches);
[[nodiscard]] Tensor from_prediction_layout(const Tensor& pred,
                                            Index channels, Index patch);

/// Masked-autoencoder task model (paper §5.1): masked aggregated tokens
/// are replaced by a learned mask token; the head reconstructs the pixels
/// of every input channel; the loss is MSE over masked patches only.
class MaeModel : public Module {
 public:
  MaeModel(const ModelConfig& cfg, std::unique_ptr<FrontEnd> frontend,
           Index target_channels, Rng& rng);

  struct Output {
    Variable pred;  ///< [B, S, C_target * p^2]
    Variable loss;  ///< scalar, masked MSE
  };

  /// `local_images` feeds the front-end (a channel subset under D-CHAG);
  /// `full_images` provides the reconstruction target (all channels);
  /// `mask` is [B, S] with 1 = masked. The mask must be identical across
  /// ranks — generate it with make_mask() from a shared-seed Rng.
  [[nodiscard]] Output forward(const Tensor& local_images,
                               const Tensor& full_images,
                               const Tensor& mask) const;

  [[nodiscard]] static Tensor make_mask(Index batch, Index seq,
                                        float mask_ratio, Rng& rng);

  [[nodiscard]] const FrontEnd& frontend() const { return *frontend_; }
  /// Mutable access for structural maintenance (e.g. rebinding a
  /// distributed front-end to a regrouped communicator after a rank
  /// failure). Weights are NOT meant to be touched through this.
  [[nodiscard]] FrontEnd& frontend_mut() { return *frontend_; }
  [[nodiscard]] const ModelConfig& config() const { return cfg_; }

 private:
  ModelConfig cfg_;
  Index target_channels_;
  std::unique_ptr<FrontEnd> frontend_;
  std::unique_ptr<ViTEncoder> encoder_;
  std::unique_ptr<Linear> head_;
  Variable mask_token_;  // [D]
};

/// Image-to-image forecasting task model (paper §5.2, ClimaX-style):
/// predict the full field at a future timestep from the current one.
///
/// With `lead_conditioned = true` the model carries the paper's metadata
/// token (Fig. 1: "a metadata token — typically representing contextual
/// information like time"): sinusoidal features of the lead time are
/// embedded and added to every aggregated token, so one model serves
/// multiple forecast horizons.
class ForecastModel : public Module {
 public:
  ForecastModel(const ModelConfig& cfg, std::unique_ptr<FrontEnd> frontend,
                Index target_channels, Rng& rng,
                bool lead_conditioned = false);

  struct Output {
    Variable pred;  ///< [B, S, C_target * p^2]
    Variable loss;  ///< scalar MSE over all pixels
  };

  [[nodiscard]] Output forward(const Tensor& local_images,
                               const Tensor& target_images,
                               float lead_time = 1.0f) const;

  /// Inference-only forward (serving): no target, no loss. Combine with
  /// autograd::NoGradGuard for a tape-free forward.
  [[nodiscard]] Variable predict(const Tensor& local_images,
                                 float lead_time = 1.0f) const;

  /// Inference on a channel subset: `images` [B, N, H, W] carries only
  /// the N listed global channels (routed through the front-end's
  /// partial-channel path). Returns pred [B, S, C_target * p^2].
  [[nodiscard]] Variable predict_subset(const Tensor& images,
                                        std::span<const Index> channels,
                                        float lead_time = 1.0f) const;

  [[nodiscard]] bool lead_conditioned() const { return lead_conditioned_; }

  /// Per-channel RMSE between a prediction (head layout) and target
  /// images — the paper's Z500/T850/U10 metrics are channels of this.
  [[nodiscard]] static std::vector<float> per_channel_rmse(
      const Tensor& pred, const Tensor& target_images, Index patch);

  [[nodiscard]] const FrontEnd& frontend() const { return *frontend_; }
  /// Mutable access for structural maintenance (e.g. rebinding a
  /// distributed front-end to a regrouped communicator after a rank
  /// failure). Weights are NOT meant to be touched through this.
  [[nodiscard]] FrontEnd& frontend_mut() { return *frontend_; }
  [[nodiscard]] const ModelConfig& config() const { return cfg_; }

 private:
  static constexpr Index kLeadFeatures = 16;  // 8 sin/cos frequency pairs

  /// Lead conditioning + encoder + head over aggregated tokens [B, S, D];
  /// the shared tail of forward() and the predict paths.
  [[nodiscard]] Variable encode_and_project(Variable tokens,
                                            float lead_time) const;

  ModelConfig cfg_;
  Index target_channels_;
  bool lead_conditioned_;
  std::unique_ptr<FrontEnd> frontend_;
  std::unique_ptr<ViTEncoder> encoder_;
  std::unique_ptr<Linear> head_;
  std::unique_ptr<Linear> lead_embed_;  // only when lead_conditioned
};

}  // namespace dchag::model
