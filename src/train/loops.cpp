#include "train/loops.hpp"

#include "tensor/plan.hpp"

namespace dchag::train {

using model::MaeModel;
using tensor::Index;
using tensor::Rng;
using tensor::Tensor;

TrainCurve train_mae(
    model::MaeModel& mae, const LoopConfig& cfg,
    const std::function<Tensor(Index)>& next_batch,
    std::optional<runtime::Context> ctx) {
  runtime::Scope scope(runtime::Context::effective_or_current(ctx));
  Adam opt(mae.parameters(), cfg.adam);
  tensor::plan::Arena arena;
  tensor::plan::ArenaScope on_arena(arena);
  TrainCurve curve;
  curve.losses.reserve(static_cast<std::size_t>(cfg.steps));
  const Index seq = mae.config().seq_len();
  for (Index step = 0; step < cfg.steps; ++step) {
    Tensor full = next_batch(step);
    Tensor local = mae.frontend().select_input(full);
    // Mask depends only on (seed, step): identical on every rank.
    Rng mask_rng(cfg.data_seed ^
                 (0xA5A5ull + static_cast<std::uint64_t>(step)));
    Tensor mask =
        MaeModel::make_mask(full.dim(0), seq, cfg.mask_ratio, mask_rng);
    opt.zero_grad();
    auto out = mae.forward(local, full, mask);
    out.loss.backward();
    opt.step();
    curve.losses.push_back(out.loss.value().item());
    runtime::trace_here("train.mae.step_loss",
                        static_cast<double>(curve.losses.back()));
  }
  return curve;
}

TrainCurve train_forecast(
    model::ForecastModel& fm, const LoopConfig& cfg,
    const std::function<std::pair<Tensor, Tensor>(Index)>& next_pair,
    std::optional<runtime::Context> ctx) {
  runtime::Scope scope(runtime::Context::effective_or_current(ctx));
  Adam opt(fm.parameters(), cfg.adam);
  tensor::plan::Arena arena;
  tensor::plan::ArenaScope on_arena(arena);
  TrainCurve curve;
  curve.losses.reserve(static_cast<std::size_t>(cfg.steps));
  for (Index step = 0; step < cfg.steps; ++step) {
    auto [now, future] = next_pair(step);
    Tensor local = fm.frontend().select_input(now);
    opt.zero_grad();
    auto out = fm.forward(local, future);
    out.loss.backward();
    opt.step();
    curve.losses.push_back(out.loss.value().item());
  }
  return curve;
}

std::vector<float> evaluate_forecast_rmse(
    const model::ForecastModel& fm, Index patch,
    const std::function<std::pair<Tensor, Tensor>(Index)>& next_pair,
    Index batches) {
  tensor::plan::Arena arena;
  tensor::plan::ArenaScope on_arena(arena);
  std::vector<double> se;
  Index count = 0;
  for (Index i = 0; i < batches; ++i) {
    auto [now, future] = next_pair(i);
    Tensor local = fm.frontend().select_input(now);
    auto out = fm.forward(local, future);
    auto rmse = model::ForecastModel::per_channel_rmse(out.pred.value(),
                                                       future, patch);
    if (se.empty()) se.resize(rmse.size(), 0.0);
    for (std::size_t c = 0; c < rmse.size(); ++c)
      se[c] += static_cast<double>(rmse[c]) * rmse[c];
    ++count;
  }
  std::vector<float> out(se.size());
  for (std::size_t c = 0; c < se.size(); ++c)
    out[c] = static_cast<float>(
        std::sqrt(se[c] / static_cast<double>(count)));
  return out;
}

}  // namespace dchag::train
