// Strategy-agnostic training loops for the two paper applications. The
// same loop runs the single-GPU baseline and the SPMD D-CHAG model: the
// front-end's select_input() picks the rank's channel slice, masks/batches
// are derived from shared seeds so every rank sees identical data, and
// rank-local parameters train on purely local gradients (D-CHAG's design).
//
// Each loop allocates its tensors from a plan::Arena it owns for its
// duration (see tensor/plan.hpp): every step builds the same graph, so
// after the first step the loop reuses that step's buffers instead of
// going back to the heap. Tensors that outlive the loop, such as the
// parameters' gradients, keep only their own buffers.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "comm/async.hpp"
#include "model/foundation.hpp"
#include "runtime/context.hpp"
#include "tensor/kernel_config.hpp"
#include "train/optim.hpp"

namespace dchag::train {

struct LoopConfig {
  tensor::Index steps = 50;
  tensor::Index batch = 4;
  float mask_ratio = 0.75f;  // MAE only
  AdamConfig adam{};
  std::uint64_t data_seed = 1234;
};

struct TrainCurve {
  std::vector<float> losses;

  [[nodiscard]] float final_loss() const { return losses.back(); }
  /// Mean of the last `k` losses (smooths step noise for comparisons).
  [[nodiscard]] float tail_mean(std::size_t k) const {
    k = std::min(k, losses.size());
    double s = 0;
    for (std::size_t i = losses.size() - k; i < losses.size(); ++i)
      s += losses[i];
    return static_cast<float>(s / static_cast<double>(k));
  }
};

/// Runs MAE pretraining. `next_batch(step)` must return the FULL-channel
/// image batch [B, C, H, W] and be deterministic in `step` so all ranks
/// agree. Masks derive from (data_seed, step).
///
/// `ctx` pins the loop's execution context (whole loop runs under a
/// runtime::Scope of it); nullopt = inherit the calling thread's
/// effective context. Every rank of an SPMD group must pass an
/// equivalent comm configuration.
[[nodiscard]] TrainCurve train_mae(
    model::MaeModel& mae, const LoopConfig& cfg,
    const std::function<tensor::Tensor(tensor::Index)>& next_batch,
    std::optional<runtime::Context> ctx = std::nullopt);

/// Runs forecast training; `next_pair(step)` returns (input, target) full
/// batches. `ctx` as in train_mae.
[[nodiscard]] TrainCurve train_forecast(
    model::ForecastModel& fm, const LoopConfig& cfg,
    const std::function<std::pair<tensor::Tensor, tensor::Tensor>(
        tensor::Index)>& next_pair,
    std::optional<runtime::Context> ctx = std::nullopt);

/// Per-channel test RMSE of a forecast model over `batches` evaluation
/// pairs (paper Fig. 12's Z500/T850/U10 metrics pick channels of this).
[[nodiscard]] std::vector<float> evaluate_forecast_rmse(
    const model::ForecastModel& fm, tensor::Index patch,
    const std::function<std::pair<tensor::Tensor, tensor::Tensor>(
        tensor::Index)>& next_pair,
    tensor::Index batches);

}  // namespace dchag::train
