// train_dchag: D-CHAG-L masked-autoencoder pretraining on two in-process
// ranks, the paper's mechanism end to end: per-rank tokenization, partial
// aggregation, the AllGather, and the communication-free backward.
//
// The untraced run calls train::train_mae closed-loop; step times come
// from the loop's own per-step trace point. The traced run repeats the
// calls train_mae makes, timing each, then probes the layers directly.
#include <cmath>
#include <cstring>
#include <mutex>

#include "comm/communicator.hpp"
#include "core/dchag_frontend.hpp"
#include "data/hyperspectral.hpp"
#include "hw/flop_model.hpp"
#include "perfbench.hpp"
#include "tensor/autograd.hpp"
#include "train/loops.hpp"

namespace dchag::perfbench {
namespace {

using tensor::Index;
using tensor::Tensor;

constexpr int kRanks = 2;
constexpr Index kBands = 128;
constexpr Index kImage = 32;
constexpr Index kBatch = 8;
/// Two pre-generated batches (8 MB); masks still differ every step.
constexpr Index kPoolBatches = 2;
constexpr Index kWarmupSteps = 3;
constexpr Index kMinSteps = 20;
constexpr int kSetups = 5;
constexpr std::uint64_t kModelSeed = 7;
constexpr int kProbeRounds = 4;

model::ModelConfig train_config() {
  model::ModelConfig c = model::ModelConfig::tiny();
  c.image_h = kImage;
  c.image_w = kImage;
  c.validate();
  return c;
}

/// Timestamps train_mae's per-step "train.mae.step_loss" trace point.
class StepClock : public runtime::TraceSink {
 public:
  void record(const runtime::TraceEvent& e) override {
    if (e.key != "train.mae.step_loss") return;
    std::lock_guard<std::mutex> lock(mu_);
    stamps_.push_back(Clock::now());
  }
  [[nodiscard]] std::vector<Clock::time_point> stamps() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stamps_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Clock::time_point> stamps_;
};

struct RankResult {
  std::vector<float> losses;
  std::vector<double> step_ms;
  double wall_ms = 0.0;
  Index steps = 0;
};

/// Per-step times of the traced loop (rank 0).
struct StepTimes {
  std::vector<double> data, forward, backward, optim, step;
  std::vector<double> step_on, step_off;
};

std::unique_ptr<model::MaeModel> make_mae(comm::Communicator& comm,
                                          const runtime::Context& ctx) {
  tensor::Rng rng(kModelSeed);
  return core::make_dchag_mae(
      train_config(), kBands, comm,
      core::DchagOptions(1, model::AggLayerKind::kLinear), rng, ctx);
}

}  // namespace

void run_train_dchag(const Options& opt, Report& report) {
  const model::ModelConfig cfg = train_config();
  data::HyperspectralConfig hc;
  hc.channels = kBands;
  hc.height = kImage;
  hc.width = kImage;
  data::HyperspectralGenerator gen(hc, opt.seed);
  std::vector<Tensor> batches;
  for (Index i = 0; i < kPoolBatches; ++i)
    batches.push_back(gen.sample_batch(kBatch));
  const auto next_batch = [&](Index step) {
    return batches[static_cast<std::size_t>(step % kPoolBatches)];
  };
  const runtime::Context ctx =
      runtime::Context::current()
          .to_builder()
          .kernel_backend(runtime::KernelBackend::kBlocked)
          .comm_mode(runtime::CommMode::kSync)
          .pipeline_chunks(1)
          .build();
  train::LoopConfig loop;
  loop.batch = kBatch;
  loop.data_seed = opt.seed;

  // Set-up as a user pays it: the World, per-rank models, Adam and the
  // first step.
  std::vector<double> setup_ms;
  for (int k = 0; k < kSetups; ++k) {
    const auto t0 = Clock::now();
    comm::World world(kRanks);
    world.run([&](comm::Communicator& comm) {
      auto mae = make_mae(comm, ctx);
      train::LoopConfig one = loop;
      one.steps = 1;
      (void)train::train_mae(*mae, one, next_batch, ctx);
    });
    setup_ms.push_back(ms_between(t0, Clock::now()));
  }

  RankResult ranks[kRanks];
  StepTimes traced;
  double allgather_calls = 0, allgather_bytes = 0, allreduce_calls = 0;
  double allgather_ms = 0, local_partial_ms = 0, frontend_ms = 0;
  double step_bytes = 0;
  double fwd_ms[2] = {0, 0}, front_ms[2] = {0, 0}, tok_ms[2] = {0, 0},
         agg_ms[2] = {0, 0};

  comm::World world(kRanks);
  world.run([&](comm::Communicator& comm) {
    const int rank = comm.rank();
    auto mae = make_mae(comm, ctx);
    train::LoopConfig warm = loop;
    warm.steps = kWarmupSteps;
    const auto w0 = Clock::now();
    (void)train::train_mae(*mae, warm, next_batch, ctx);
    // Every rank must run the same number of steps: rank 0's estimate.
    const double step_est =
        ms_between(w0, Clock::now()) / static_cast<double>(kWarmupSteps);
    std::vector<float> steps_f{static_cast<float>(std::max<double>(
        kMinSteps, std::floor(opt.seconds * 1e3 / step_est)))};
    comm.broadcast(steps_f, 0);
    const Index steps = static_cast<Index>(steps_f[0]);
    RankResult& mine = ranks[rank];
    mine.steps = steps;
    train::LoopConfig timed = loop;
    timed.steps = steps;
    comm.barrier();

    if (g_tracer == nullptr) {
      auto clock = std::make_shared<StepClock>();
      const runtime::Context clocked = ctx.to_builder().tracing(clock).build();
      const auto s0 = Clock::now();
      mine.losses = train::train_mae(*mae, timed, next_batch, clocked).losses;
      const auto s1 = Clock::now();
      mine.wall_ms = ms_between(s0, s1);
      auto prev = s0;
      for (const auto& t : clock->stamps()) {
        mine.step_ms.push_back(ms_between(prev, t));
        prev = t;
      }
      return;
    }

    // Traced: the calls train_mae makes, timed one by one. Even steps
    // record spans and odd steps do not, for the tracing overhead.
    runtime::Scope scope(ctx);
    train::Adam adam(mae->parameters(), timed.adam);
    const comm::CommStats before = comm.stats();
    const Index seq = cfg.seq_len();
    const auto s0 = Clock::now();
    for (Index step = 0; step < steps; ++step) {
      const auto ta = Clock::now();
      const Tensor full = next_batch(step);
      const Tensor local = mae->frontend().select_input(full);
      const auto tb = Clock::now();
      tensor::Rng mask_rng(timed.data_seed ^
                           (0xA5A5ull + static_cast<std::uint64_t>(step)));
      const Tensor mask = model::MaeModel::make_mask(
          full.dim(0), seq, timed.mask_ratio, mask_rng);
      adam.zero_grad();
      auto out = mae->forward(local, full, mask);
      const auto tc = Clock::now();
      out.loss.backward();
      const auto td = Clock::now();
      adam.step();
      const auto te = Clock::now();
      mine.losses.push_back(out.loss.value().item());
      const bool on = step % 2 == 0;
      if (on) {
        const auto id = static_cast<std::uint64_t>(step + 1);
        const std::uint64_t root =
            g_tracer->record("train.step", ta, te, 0, id);
        g_tracer->record("forward", tb, tc, root, id);
        g_tracer->record("backward", tc, td, root, id);
        g_tracer->record("optim", td, te, root, id);
      }
      if (rank == 0) {
        traced.data.push_back(ms_between(ta, tb));
        traced.forward.push_back(ms_between(tb, tc));
        traced.backward.push_back(ms_between(tc, td));
        traced.optim.push_back(ms_between(td, te));
        traced.step.push_back(ms_between(ta, te));
        (on ? traced.step_on : traced.step_off).push_back(ms_between(ta, te));
      }
    }
    mine.wall_ms = ms_between(s0, Clock::now());
    mine.step_ms = rank == 0 ? traced.step : std::vector<double>{};
    const comm::CommStats after = comm.stats();
    if (rank == 0) {
      const auto per_step = [&](comm::CollectiveKind k, bool bytes) {
        const auto d = bytes ? after.bytes_of(k) - before.bytes_of(k)
                             : after.calls_of(k) - before.calls_of(k);
        return static_cast<double>(d) / static_cast<double>(steps);
      };
      allgather_calls = per_step(comm::CollectiveKind::kAllGather, false);
      allgather_bytes = per_step(comm::CollectiveKind::kAllGather, true);
      allreduce_calls = per_step(comm::CollectiveKind::kAllReduce, false);
    }

    // ---- layer probes, symmetric on both ranks.
    const auto& fe = dynamic_cast<const core::DchagFrontEnd&>(mae->frontend());
    const Index s = cfg.seq_len();
    const Index d = cfg.embed_dim;
    {
      // One step's gather payload (each rank's [B, S, D] representation),
      // timed between barriers so a late peer does not count.
      std::vector<float> send(static_cast<std::size_t>(kBatch * s * d), 1.0f);
      std::vector<float> recv(send.size() * kRanks);
      std::vector<double> ms;
      for (int i = 0; i < 50; ++i) {
        comm.barrier();
        const auto t0 = Clock::now();
        comm.all_gather(send, recv);
        ms.push_back(ms_between(t0, Clock::now()));
      }
      comm.barrier();
      if (rank == 0) allgather_ms = median(ms);
    }
    const Index batch_sizes[2] = {1, 8};
    for (int i = 0; i < 2; ++i) {
      const Index b = batch_sizes[i];
      const Tensor full = next_batch(0).slice0(0, b);
      const Tensor local = fe.select_input(full);
      tensor::Rng mask_rng(99);
      const Tensor mask = model::MaeModel::make_mask(b, s, 0.75f, mask_rng);
      // The aggregators see inputs of the shapes the forward feeds them.
      const auto tokens = autograd::Variable::input(
          tensor::Rng(3).uniform_tensor(
              tensor::Shape{b, s, fe.local_channels(), d}));
      const auto reps = autograd::Variable::input(
          tensor::Rng(4).uniform_tensor(tensor::Shape{b, s, kRanks, d}));
      // Both ranks run the same probe sequence: the front-end and the
      // forward are collective.
      const std::vector<double> ms = time_probes(
          kProbeRounds,
          {[&] { (void)fe.forward_local_partial(local); },
           [&] { (void)fe.partial_tree().forward(tokens); },
           [&] { (void)fe.final_aggregator().forward(reps); },
           [&] { (void)fe.forward(local); },
           [&] { (void)mae->forward(local, full, mask); }});
      if (rank == 0) {
        tok_ms[i] = ms[0] - ms[1];
        agg_ms[i] = ms[1] + ms[2];
        front_ms[i] = ms[3];
        fwd_ms[i] = ms[4];
        if (b == kBatch) {
          local_partial_ms = ms[0];
          frontend_ms = ms[3];
        }
      }
    }
    // Exact tensor bytes one training step creates, both ranks at once.
    comm.barrier();
    const std::uint64_t bytes0 = tensor::bytes_allocated();
    comm.barrier();
    {
      const Tensor full = next_batch(0);
      tensor::Rng mask_rng(98);
      const Tensor mask =
          model::MaeModel::make_mask(kBatch, s, 0.75f, mask_rng);
      adam.zero_grad();
      auto out = mae->forward(fe.select_input(full), full, mask);
      out.loss.backward();
      adam.step();
    }
    comm.barrier();
    if (rank == 0)
      step_bytes = static_cast<double>(tensor::bytes_allocated() - bytes0) /
                   static_cast<double>(kRanks * kBatch);
  });

  // ---- output checks
  const RankResult& r0 = ranks[0];
  bool finite = true;
  for (const RankResult& r : ranks)
    for (float l : r.losses) finite = finite && std::isfinite(l);
  const bool identical =
      r0.losses.size() == ranks[1].losses.size() &&
      std::memcmp(r0.losses.data(), ranks[1].losses.data(),
                  r0.losses.size() * sizeof(float)) == 0;
  const auto mean_of = [](const std::vector<float>& v, std::size_t from,
                          std::size_t count) {
    double s = 0;
    for (std::size_t i = from; i < from + count; ++i) s += v[i];
    return s / static_cast<double>(count);
  };
  const std::size_t n = r0.losses.size();
  const double first10 = n >= 10 ? mean_of(r0.losses, 0, 10) : 0.0;
  const double last10 = n >= 10 ? mean_of(r0.losses, n - 10, 10) : 0.0;
  report.check(n >= static_cast<std::size_t>(kMinSteps) && finite,
               std::to_string(n) + " training losses, all finite");
  report.check(n >= 10 && last10 < first10,
               "mean of the last 10 losses (" + std::to_string(last10) +
                   ") below the mean of the first 10 (" +
                   std::to_string(first10) + ")");
  report.check(identical, "rank 0 and rank 1 losses bit-identical");
  const auto attempted =
      static_cast<std::uint64_t>(kSetups + kWarmupSteps + r0.steps);
  report.attempted = attempted;
  report.failed = finite ? 0 : attempted;

  // ---- end-to-end
  // Closed loop: the trainer is always saturated, so throughput is the
  // batch over the median step (a median, like the serving windows, so a
  // short stall of the shared machine does not move it).
  const double step_p50 = median(r0.step_ms);
  report.metric("p50_ms", step_p50, "ms");
  report.metric("sat_throughput", static_cast<double>(kBatch) * 1e3 / step_p50,
                "1/s");
  report.metric("train.samples_per_s_wall",
                static_cast<double>(r0.steps * kBatch) / (r0.wall_ms / 1e3),
                "1/s");
  report.metric("setup_s", median(setup_ms) / 1e3, "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");

  report.metric("client.sent", static_cast<double>(attempted), "count");
  report.metric("client.ok", static_cast<double>(attempted - report.failed),
                "count");
  report.metric("client.failed", static_cast<double>(report.failed), "count");
  report.metric("client.p99_ms", percentile(r0.step_ms, 0.99), "ms");
  report.metric("train.step_ms.p50", median(r0.step_ms), "ms");
  report.metric("train.step_ms.p90", percentile(r0.step_ms, 0.90), "ms");
  report.metric("train.loss_first", n > 0 ? r0.losses.front() : 0.0, "loss");
  report.metric("train.loss_last", n > 0 ? r0.losses.back() : 0.0, "loss");

  report.context("ranks", kRanks);
  report.context("batch", static_cast<double>(kBatch));
  report.context("bands", static_cast<double>(kBands));
  report.context("image", static_cast<double>(kImage));
  report.context("steps", static_cast<double>(r0.steps));
  report.context("kernel_backend", "blocked");
  report.context("comm_mode", "sync");
  report.context("model", "tiny MAE, D-CHAG-L Tree0 (one linear unit/rank)");

  if (g_tracer == nullptr) return;

  report.metric("train.data_wait_ms.p50", median(traced.data), "ms");
  report.metric("train.forward_ms.p50", median(traced.forward), "ms");
  report.metric("train.backward_ms.p50", median(traced.backward), "ms");
  report.metric("train.optim_ms.p50", median(traced.optim), "ms");
  std::vector<double> compute;
  for (std::size_t i = 0; i < traced.forward.size(); ++i)
    compute.push_back(traced.forward[i] + traced.backward[i]);
  report.metric("op.wait_ms", median(traced.data), "ms");
  report.metric("op.compute_ms", median(compute), "ms");
  report.metric("op.other_ms", median(traced.optim), "ms");
  report.metric("op.batch_size.mean", static_cast<double>(kBatch), "count");
  report.metric("op.max_queue_depth", 0.0, "count");
  report.metric("trace.overhead_frac",
                median(traced.step_on) / median(traced.step_off) - 1.0,
                "ratio");

  report.metric("comm.allgather_calls_per_step", allgather_calls, "count");
  report.metric("comm.allgather_bytes_per_step", allgather_bytes, "bytes");
  report.metric("comm.allreduce_calls_per_step", allreduce_calls, "count");
  report.metric("comm.allgather_ms", allgather_ms, "ms");
  report.metric("core.local_partial_ms", local_partial_ms, "ms");
  report.metric("core.frontend_ms", frontend_ms, "ms");
  report.metric("core.gather_fuse_ms", frontend_ms - local_partial_ms, "ms");

  for (int i = 0; i < 2; ++i) {
    const std::string tag = i == 0 ? ".b1" : ".b8";
    report.metric("model.tokenize_ms" + tag, tok_ms[i], "ms");
    report.metric("model.aggregate_ms" + tag, agg_ms[i], "ms");
    report.metric("model.frontend_ms" + tag, front_ms[i], "ms");
    report.metric("model.forward_ms" + tag, fwd_ms[i], "ms");
    report.metric("model.encode_head_ms" + tag, fwd_ms[i] - front_ms[i], "ms");
  }
  report.metric("model.batch_gain", 8.0 * fwd_ms[0] / fwd_ms[1], "ratio");
  const double b8 = static_cast<double>(kBatch);
  const Index local_bands = kBands / kRanks;
  const auto tree = hw::FlopModel::tree_flops(
      cfg, b8,
      model::plan_tree(local_bands,
                       model::tree_units_to_width(local_bands, 1)),
      model::AggLayerKind::kLinear);
  const auto fused = hw::FlopModel::aggregation_flops(
      cfg, b8, kRanks, model::AggLayerKind::kCrossAttention);
  const auto gflops = [](double flops, double ms) {
    return ms > 0 ? flops / ms / 1e6 : 0.0;
  };
  report.metric("model.tokenize_gflops",
                gflops(hw::FlopModel::tokenizer_flops(
                           cfg, b8, static_cast<double>(local_bands)),
                       tok_ms[1]),
                "GF/s");
  report.metric("model.aggregate_gflops",
                gflops(tree.scores + tree.proj + fused.scores + fused.proj,
                       agg_ms[1]),
                "GF/s");
  report.metric("model.encode_head_gflops",
                gflops(hw::FlopModel::transformer_flops(cfg, b8) +
                           hw::FlopModel::head_flops(
                               cfg, b8, static_cast<double>(kBands)),
                       fwd_ms[1] - front_ms[1]),
                "GF/s");
  report.metric("tensor.bytes_per_sample", step_bytes, "bytes");
  probe_frontend_fraction(report);

  // Layers this workload bypasses (README's bypass matrix).
  for (const char* name :
       {"tensor.arena_fresh", "ingress.rejected", "ingress.redispatches"})
    report.metric(name, 0.0, "count");
}

}  // namespace dchag::perfbench
