// Layer probes of the traced run: each layer's public forward timed
// directly on warmed objects, joined with hw::FlopModel's analytic FLOPs.
#include "hw/flop_model.hpp"
#include "perfbench.hpp"
#include "serve/engine.hpp"
#include "tensor/autograd.hpp"

namespace dchag::perfbench {
namespace {

using tensor::Index;
using tensor::Tensor;

constexpr int kRounds = 10;

double gflops(double flops, double ms) { return ms > 0 ? flops / ms / 1e6 : 0; }

}  // namespace

void probe_local_model(const serve::Engine& engine, Report& report) {
  const model::ForecastModel& fm = engine.model();
  const auto* fe = dynamic_cast<const model::LocalFrontEnd*>(&fm.frontend());
  DCHAG_CHECK(fe != nullptr, "model probes expect a LocalFrontEnd");
  const auto* tree =
      dynamic_cast<const model::AggregationTree*>(&fe->aggregator());
  DCHAG_CHECK(tree != nullptr, "model probes expect an AggregationTree");
  const model::ModelConfig& cfg = fm.config();
  const Index channels = fe->local_channels();

  // The probes allocate from an arena of their own, as Engine::run does,
  // so front-end and whole-forward times are comparable.
  tensor::plan::Arena arena;
  tensor::plan::ArenaScope arena_scope(arena);
  autograd::NoGradGuard no_grad;
  double run_ms[2] = {0, 0}, tok_ms = 0, agg_ms = 0, enc_ms = 0;
  const Index batches[2] = {1, 8};
  for (int i = 0; i < 2; ++i) {
    const Index b = batches[i];
    const std::string tag = ".b" + std::to_string(b);
    const Tensor x = tensor::Rng(5).uniform_tensor(
        tensor::Shape{b, channels, cfg.image_h, cfg.image_w});
    const autograd::Variable bscd =
        autograd::permute(fe->tokenizer().forward(x), {0, 2, 1, 3});
    const std::vector<double> ms = time_probes(
        kRounds, {[&] { (void)fe->tokenizer().forward(x); },
                  [&] { (void)fe->aggregator().forward(bscd); },
                  [&] { (void)fe->forward(x); },
                  [&] { (void)engine.run(x, {}, 1.0f); }});
    tok_ms = ms[0];
    agg_ms = ms[1];
    run_ms[i] = ms[3];
    enc_ms = ms[3] - ms[2];
    report.metric("model.tokenize_ms" + tag, ms[0], "ms");
    report.metric("model.aggregate_ms" + tag, ms[1], "ms");
    report.metric("model.frontend_ms" + tag, ms[2], "ms");
    report.metric("model.forward_ms" + tag, ms[3], "ms");
    report.metric("model.encode_head_ms" + tag, enc_ms, "ms");

    if (b == 8) {
      // Exact tensor bytes one warmed batch-8 forward creates (the
      // process-wide ledger counts every Tensor, pooled or not).
      const std::uint64_t before = tensor::bytes_allocated();
      (void)engine.run(x, {}, 1.0f);
      report.metric("tensor.bytes_per_sample",
                    static_cast<double>(tensor::bytes_allocated() - before) /
                        static_cast<double>(b),
                    "bytes");
    }
  }
  report.metric("model.batch_gain", 8.0 * run_ms[0] / run_ms[1], "ratio");

  // FLOPs at batch 8 over the batch-8 probe times.
  const double b8 = 8.0;
  const auto tree_flops = hw::FlopModel::tree_flops(
      cfg, b8, tree->plan(), model::AggLayerKind::kCrossAttention);
  report.metric("model.tokenize_gflops",
                gflops(hw::FlopModel::tokenizer_flops(
                           cfg, b8, static_cast<double>(channels)),
                       tok_ms),
                "GF/s");
  report.metric("model.aggregate_gflops",
                gflops(tree_flops.scores + tree_flops.proj, agg_ms), "GF/s");
  report.metric(
      "model.encode_head_gflops",
      gflops(hw::FlopModel::transformer_flops(cfg, b8) +
                 hw::FlopModel::head_flops(cfg, b8,
                                           static_cast<double>(channels)),
             enc_ms),
      "GF/s");
}

void probe_frontend_fraction(Report& report) {
  const model::ModelConfig cfg = model::ModelConfig::tiny();
  constexpr Index kUnits = 4;
  constexpr double kBatch = 8.0;
  const Index bands[] = {16, 64, 128};
  // One lane, whatever the workload runs on: the split is a property of
  // the model, and a single-threaded forward measures it most steadily.
  runtime::Scope one_lane(runtime::ContextPatch::with_kernels(
      {runtime::KernelBackend::kBlocked, 0}));
  std::vector<double> measured, modeled;
  for (Index c : bands) {
    tensor::Rng rng(23);
    auto fm = std::make_unique<model::ForecastModel>(
        cfg,
        std::make_unique<model::LocalFrontEnd>(
            cfg, c,
            model::AggregationTree::with_units(
                cfg, model::AggLayerKind::kCrossAttention, c, kUnits, rng),
            rng),
        c, rng);
    serve::Engine engine(*fm);
    const Tensor x = tensor::Rng(6).uniform_tensor(
        tensor::Shape{static_cast<Index>(kBatch), c, cfg.image_h,
                      cfg.image_w});
    tensor::plan::Arena arena;
    const std::vector<double> ms = time_probes(
        10, {[&] {
               tensor::plan::ArenaScope arena_scope(arena);
               autograd::NoGradGuard no_grad;
               (void)fm->frontend().forward(x);
             },
             [&] { (void)engine.run(x, {}, 1.0f); }});
    measured.push_back(ms[0] / ms[1]);

    const auto plan =
        model::plan_tree(c, model::tree_units_to_width(c, kUnits));
    const auto agg = hw::FlopModel::tree_flops(
        cfg, kBatch, plan, model::AggLayerKind::kCrossAttention);
    const double fe_flops =
        hw::FlopModel::tokenizer_flops(cfg, kBatch, static_cast<double>(c)) +
        agg.scores + agg.proj;
    const double tail_flops =
        hw::FlopModel::transformer_flops(cfg, kBatch) +
        hw::FlopModel::head_flops(cfg, kBatch, static_cast<double>(c));
    modeled.push_back(fe_flops / (fe_flops + tail_flops));

    const std::string tag = ".c" + std::to_string(c);
    report.metric("hw.frontend_frac.measured" + tag, measured.back(), "ratio");
    report.metric("hw.frontend_frac.modeled" + tag, modeled.back(), "ratio");
  }
  // Share of band-count pairs the measured and modeled fractions order
  // the same way (1 = the model ranks every configuration correctly).
  int agree = 0, pairs = 0;
  for (std::size_t i = 0; i < measured.size(); ++i)
    for (std::size_t j = i + 1; j < measured.size(); ++j, ++pairs)
      agree += (measured[i] < measured[j]) == (modeled[i] < modeled[j]);
  report.metric("hw.frac_rank_agree",
                static_cast<double>(agree) / static_cast<double>(pairs),
                "ratio");
}

}  // namespace dchag::perfbench
