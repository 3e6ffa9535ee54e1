// serve_poisson and serve_subset_burst: open-loop load against an
// in-process serve::Server, driven only through Server::submit.
//
// One sender thread plays the seeded arrival schedule; one collector
// thread per channel-subset lane blocks on that lane's futures in
// submission order. A request's latency runs from its SCHEDULED send to
// its completion, which is the actual submit time plus
// Response::total_ms, so a late sender or a slow collector never hides
// queueing.
#include <atomic>
#include <barrier>
#include <cstring>
#include <optional>
#include <thread>

#include "data/hyperspectral.hpp"
#include "perfbench.hpp"
#include "serve/server.hpp"
#include "tensor/ops.hpp"

namespace dchag::perfbench {
namespace {

using tensor::Index;
using tensor::Tensor;

constexpr Index kBands = 64;
constexpr Index kImage = 16;
constexpr Index kTreeUnits = 4;
constexpr std::uint64_t kModelSeed = 17;
/// Input pool: 48 samples with every subset precomputed stays under 8 MB.
constexpr std::size_t kPool = 48;
constexpr std::size_t kCheckEvery = 97;
constexpr int kSetups = 25;
constexpr Index kMaxBatch = 8;

constexpr auto kMaxWait = std::chrono::microseconds(2000);

/// A channel subset a request may carry; empty = all bands.
using Subset = std::vector<Index>;

struct ServeSpec {
  Pattern pattern;
  int workers;
  runtime::KernelBackend backend;
  std::vector<Subset> subsets;
};

std::vector<Index> band_range(Index first, Index count, Index step) {
  std::vector<Index> out;
  for (Index c = first; static_cast<Index>(out.size()) < count; c += step)
    out.push_back(c);
  return out;
}

std::unique_ptr<model::ForecastModel> make_model() {
  const model::ModelConfig cfg = model::ModelConfig::tiny();
  tensor::Rng rng(kModelSeed);
  auto agg = model::AggregationTree::with_units(
      cfg, model::AggLayerKind::kCrossAttention, kBands, kTreeUnits, rng);
  auto fe = std::make_unique<model::LocalFrontEnd>(cfg, kBands,
                                                   std::move(agg), rng);
  return std::make_unique<model::ForecastModel>(cfg, std::move(fe), kBands,
                                                rng);
}

/// pool[j][k]: sample j restricted to subset k, [C_k, H, W].
std::vector<std::vector<Tensor>> make_pool(const std::vector<Subset>& subsets,
                                           std::uint64_t seed) {
  data::HyperspectralConfig hc;
  hc.channels = kBands;
  hc.height = kImage;
  hc.width = kImage;
  data::HyperspectralGenerator gen(hc, seed);
  const Tensor all = gen.sample_batch(static_cast<Index>(kPool));
  const Index plane = kImage * kImage;
  std::vector<std::vector<Tensor>> pool(kPool);
  for (std::size_t j = 0; j < kPool; ++j) {
    const Tensor sample = all.slice0(static_cast<Index>(j), 1).reshape(
        tensor::Shape{kBands, kImage, kImage});
    for (const Subset& s : subsets) {
      if (s.empty()) {
        pool[j].push_back(sample);
        continue;
      }
      Tensor t(tensor::Shape{static_cast<Index>(s.size()), kImage, kImage});
      for (std::size_t i = 0; i < s.size(); ++i)
        std::memcpy(t.data() + static_cast<Index>(i) * plane,
                    sample.data() + s[i] * plane,
                    static_cast<std::size_t>(plane) * sizeof(float));
      pool[j].push_back(std::move(t));
    }
  }
  return pool;
}

Tensor as_batch(const Tensor& sample, Index b) {
  const auto& s = sample.shape();
  const Tensor one = sample.reshape(tensor::Shape{1, s.dim(0), s.dim(1),
                                                  s.dim(2)});
  if (b == 1) return one;
  const std::vector<Tensor> slabs(static_cast<std::size_t>(b), one);
  return tensor::ops::concat(slabs, 0);
}

/// One serving deployment. Members are destroyed server first, so worker
/// threads stop before the engine and model they use go away.
struct Deployment {
  std::unique_ptr<model::ForecastModel> model;
  std::unique_ptr<serve::Engine> engine;
  std::unique_ptr<serve::Server> server;
};

/// Set-up as a user pays it: build the model, freeze it into an Engine,
/// start the Server, and wait for the first answer.
void deploy(Deployment& d, const ServeSpec& spec, const runtime::Context& ctx,
            const Tensor& first) {
  d.model = make_model();
  d.engine = std::make_unique<serve::Engine>(*d.model);
  serve::InferenceFn fn = d.engine->inference_fn();
  if (g_tracer != nullptr) {
    fn = [inner = std::move(fn)](const Tensor& images,
                                 const std::vector<Index>& channels,
                                 float lead_time) {
      const auto t0 = Clock::now();
      Tensor out = inner(images, channels, lead_time);
      if (tracing())
        g_tracer->record("model.forward", t0, Clock::now(), 0, 0,
                         static_cast<std::uint32_t>(images.dim(0)));
      return out;
    };
  }
  serve::ServerConfig cfg;
  cfg.num_workers = spec.workers;
  cfg.batcher.max_batch = kMaxBatch;
  cfg.batcher.max_wait = kMaxWait;
  d.server = std::make_unique<serve::Server>(std::move(fn), cfg, ctx);
  d.server->start();
  serve::Request r;
  r.images = first;
  (void)d.server->submit(std::move(r)).get();
}

struct Slot {
  serve::ResponseFuture future;
  Clock::time_point submit;
  Clock::time_point sent;  ///< submit() returned
};

struct Record {
  bool ok = false;
  double lat_ms = 0.0;  ///< scheduled send -> completion
  double lag_ms = 0.0;  ///< scheduled send -> actual submit
  double queue_ms = 0.0;
  double deliver_ms = 0.0;  ///< total - queue - forward
  double submit_ms = 0.0;  ///< actual submit, since the schedule start
  double done_ms = 0.0;    ///< completion, since the schedule start
  Index batch = 0;
};

/// Batch-weighted mean batch size from per-request sizes: N / #batches,
/// where a batch of b contributes b requests of weight 1/b each.
double mean_batch(const std::vector<Index>& sizes) {
  double batches = 0.0;
  for (Index b : sizes) batches += 1.0 / static_cast<double>(b);
  return batches > 0.0 ? static_cast<double>(sizes.size()) / batches : 0.0;
}

void run_serve(const ServeSpec& spec, const Options& opt, Report& report) {
  const runtime::Context ctx = runtime::Context::current()
                                   .to_builder()
                                   .kernel_backend(spec.backend)
                                   .build();
  const auto pool = make_pool(spec.subsets, opt.seed);

  std::vector<double> setup_ms;
  std::optional<Deployment> d;
  for (int k = 0; k < kSetups; ++k) {
    d.reset();
    d.emplace();
    const auto t0 = Clock::now();
    deploy(*d, spec, ctx, pool[0][0]);
    setup_ms.push_back(ms_between(t0, Clock::now()));
  }
  serve::Engine& engine = *d->engine;

  // Fill the engine's arena as a long-running server would have, before
  // anything is timed: every batch size of every subset lane, run by as
  // many threads at once as the server has workers. The pool a shared
  // arena needs depends on how concurrent forwards interleave, so each
  // shape runs in aligned rounds until the pool has reached its largest
  // size; the memory measured then no longer depends on the run's timing.
  {
    const int rounds = spec.workers > 1 ? 10 : 1;
    std::barrier<> aligned(spec.workers);
    std::vector<std::thread> warmers;
    for (int w = 0; w < spec.workers; ++w) {
      warmers.emplace_back([&] {
        runtime::Scope scope(ctx);
        for (std::size_t k = 0; k < spec.subsets.size(); ++k)
          for (Index b = 1; b <= kMaxBatch; ++b)
            for (int round = 0; round < rounds; ++round) {
              aligned.arrive_and_wait();
              (void)engine.run(as_batch(pool[0][k], b),
                               spec.subsets[k], 1.0f);
            }
      });
    }
    for (std::thread& t : warmers) t.join();
  }

  const Phases phases(opt.seconds);
  const std::vector<Arrival> arrivals = make_schedule(
      spec.pattern, phases, opt.nominal_rps, opt.overload_rps, opt.seed);
  const std::size_t n = arrivals.size();
  const std::size_t n_subsets = spec.subsets.size();
  auto subset_of = [&](const Arrival& a) { return a.pick % n_subsets; };
  auto sample_of = [&](const Arrival& a) {
    return (a.pick / n_subsets) % kPool;
  };

  std::vector<Slot> slots(n);
  std::vector<Record> recs(n);
  std::vector<std::uint64_t> fingerprints(n, 0);
  std::atomic<std::size_t> published{0};
  const auto start = Clock::now() + std::chrono::milliseconds(50);
  auto at = [&](double t_ms) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(t_ms));
  };

  // One collector per lane: a lane completes in submission order, so a
  // blocking get() never sits on answers another lane already produced.
  auto collect = [&](std::size_t i) {
    std::size_t p = published.load(std::memory_order_acquire);
    while (p <= i) {
      published.wait(p, std::memory_order_acquire);
      p = published.load(std::memory_order_acquire);
    }
    Record& r = recs[i];
    const Slot& s = slots[i];
    const auto sched = at(arrivals[i].t_ms);
    r.lag_ms = ms_between(sched, s.submit);
    r.submit_ms = ms_between(start, s.submit);
    try {
      serve::Response resp = slots[i].future.get();
      r.ok = true;
      r.queue_ms = resp.queue_ms;
      r.deliver_ms = resp.total_ms - resp.queue_ms - resp.forward_ms;
      r.lat_ms = r.lag_ms + resp.total_ms;
      r.done_ms = r.submit_ms + resp.total_ms;
      r.batch = resp.batch_size;
      if (i % kCheckEvery == 0) fingerprints[i] = fingerprint(resp.pred);
      if (g_tracer != nullptr && trace_window_on(arrivals[i].t_ms)) {
        const auto after = [&](double ms) {
          return s.submit + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double, std::milli>(ms));
        };
        const std::uint64_t rid = i + 1;
        const std::uint64_t root = g_tracer->record(
            "client.request", sched, after(resp.total_ms), 0, rid);
        g_tracer->record("client.send", s.submit, s.sent, root, rid);
        const std::uint64_t q = g_tracer->record(
            "serve.queue", s.submit, after(resp.queue_ms), root, rid);
        g_tracer->record("serve.batch", after(resp.queue_ms),
                         after(resp.total_ms), q, rid,
                         static_cast<std::uint32_t>(resp.batch_size));
      }
    } catch (...) {
      r.ok = false;
    }
  };
  std::vector<std::thread> collectors;
  for (std::size_t lane = 0; lane < n_subsets; ++lane) {
    collectors.emplace_back([&, lane] {
      for (std::size_t i = 0; i < n; ++i)
        if (subset_of(arrivals[i]) == lane) collect(i);
    });
  }

  // Memory is read before the overload phase: its backlog grows with how
  // far the offered rate outruns this run's capacity, not with the code.
  std::uint64_t fresh_at_nominal = 0;
  double rss_mb = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Arrival& a = arrivals[i];
    const Phase prev = i == 0 ? Phase::kWarmup : arrivals[i - 1].phase;
    if (a.phase == Phase::kNominal && prev == Phase::kWarmup)
      fresh_at_nominal = engine.arena_stats().fresh;
    if (a.phase == Phase::kOverload && prev != Phase::kOverload)
      rss_mb = peak_rss_mb();
    wait_until(at(a.t_ms));
    if (g_tracer != nullptr) g_tracer->set_enabled(trace_window_on(a.t_ms));
    Slot& s = slots[i];
    s.submit = Clock::now();
    try {
      serve::Request req;
      const std::size_t k = subset_of(a);
      req.images = pool[sample_of(a)][k];
      req.channels = spec.subsets[k];
      s.future = d->server->submit(std::move(req));
    } catch (...) {
      std::promise<serve::Response> failed;
      failed.set_exception(std::current_exception());
      s.future = failed.get_future();
    }
    s.sent = Clock::now();
    published.store(i + 1, std::memory_order_release);
    published.notify_all();
  }
  for (std::thread& c : collectors) c.join();
  const std::uint64_t arena_fresh =
      engine.arena_stats().fresh - fresh_at_nominal;
  const serve::Metrics::Snapshot server_metrics =
      d->server->metrics().summary();

  // ---- output checks: batching is result-transparent, so every sampled
  // response must equal a batch-1 Engine::run bit for bit.
  std::size_t checked = 0, mismatched = 0;
  {
    runtime::Scope scope(ctx);
    for (std::size_t i = 0; i < n; i += kCheckEvery) {
      if (!recs[i].ok) continue;
      const Arrival& a = arrivals[i];
      const std::size_t k = subset_of(a);
      const Tensor pred = engine.run(as_batch(pool[sample_of(a)][k], 1),
                                     spec.subsets[k], 1.0f);
      ++checked;
      if (fingerprint(pred) != fingerprints[i]) ++mismatched;
    }
  }
  std::uint64_t ok = 0;
  for (const Record& r : recs) ok += r.ok ? 1 : 0;
  report.attempted = n;
  report.failed = n - ok;
  report.check(ok == n, std::to_string(ok) + "/" + std::to_string(n) +
                            " requests answered");
  report.check(checked > 0 && mismatched == 0,
               std::to_string(checked - mismatched) + "/" +
                   std::to_string(checked) +
                   " sampled responses bit-identical to Engine::run at "
                   "batch 1");

  // ---- end-to-end
  std::vector<double> lat, lat_on, lat_off, lag, queue, deliver, done;
  std::vector<Index> batch_nominal, batch_sat;
  double sat_from = 1e300, sat_to = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Record& r = recs[i];
    if (!r.ok) continue;
    done.push_back(r.done_ms);
    if (arrivals[i].phase == Phase::kWarmup) continue;
    if (arrivals[i].phase == Phase::kNominal) {
      lag.push_back(r.lag_ms);
      lat.push_back(r.lat_ms);
      (trace_window_on(arrivals[i].t_ms) ? lat_on : lat_off)
          .push_back(r.lat_ms);
      queue.push_back(r.queue_ms);
      deliver.push_back(r.deliver_ms);
      batch_nominal.push_back(r.batch);
    } else {
      sat_from = std::min(sat_from, r.submit_ms);
      sat_to = std::max(sat_to, r.done_ms);
      batch_sat.push_back(r.batch);
    }
  }
  report.metric("p50_ms", median(lat), "ms");
  // The server is saturated from the first overload send until the
  // backlog it builds has drained.
  report.metric("sat_throughput", saturated_rate(done, sat_from, sat_to),
                "1/s");
  report.metric("setup_s", median(setup_ms) / 1e3, "s");
  report.metric("peak_rss_mb", rss_mb, "MB");

  report.metric("client.sent", static_cast<double>(n), "count");
  report.metric("client.ok", static_cast<double>(ok), "count");
  report.metric("client.failed", static_cast<double>(n - ok), "count");
  report.metric("client.p99_ms", percentile(lat, 0.99), "ms");
  report.metric("client.lag_p99_ms", percentile(lag, 0.99), "ms");
  report.metric("serve.queue_ms.p50", median(queue), "ms");
  report.metric("serve.queue_ms.p99", percentile(queue, 0.99), "ms");
  report.metric("serve.deliver_ms.p50", median(deliver), "ms");
  report.metric("serve.batch_size.mean", mean_batch(batch_nominal), "count");
  report.metric("serve.batch_size.mean_sat", mean_batch(batch_sat), "count");
  report.metric("serve.max_queue_depth",
                static_cast<double>(server_metrics.max_queue_depth), "count");
  report.metric("tensor.arena_fresh", static_cast<double>(arena_fresh),
                "count");

  report.context("server_workers", spec.workers);
  report.context("max_batch", static_cast<double>(kMaxBatch));
  report.context("max_wait_ms", kMaxWait.count() / 1e3);
  report.context("kernel_backend", runtime::to_string(spec.backend));
  report.context("model", "tiny 64-band ForecastModel, Tree4 cross-attention");
  report.context("pattern",
                 spec.pattern == Pattern::kPoisson ? "poisson" : "on_off");

  if (g_tracer == nullptr) return;

  // ---- traced run: per-batch forward spans, then layer probes.
  g_tracer->set_enabled(false);
  std::vector<double> fwd_nominal;
  double fwd_sat_ms = 0.0, fwd_sat_items = 0.0;
  const double nominal_end_ms = (phases.warmup_s + phases.nominal_s) * 1e3;
  const std::int64_t start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          start.time_since_epoch())
          .count();
  for (const Span& s : g_tracer->spans()) {
    if (std::strcmp(s.name, "model.forward") != 0) continue;
    const double t_ms = static_cast<double>(s.t0_ns - start_ns) / 1e6;
    const double dur_ms = static_cast<double>(s.t1_ns - s.t0_ns) / 1e6;
    if (t_ms >= phases.warmup_s * 1e3 && t_ms < nominal_end_ms) {
      fwd_nominal.push_back(dur_ms);
    } else if (t_ms >= nominal_end_ms) {
      fwd_sat_ms += dur_ms;
      fwd_sat_items += s.items;
    }
  }
  report.metric("serve.forward_ms.p50", median(fwd_nominal), "ms");
  report.metric("serve.forward_ms_per_sample_sat",
                fwd_sat_items > 0 ? fwd_sat_ms / fwd_sat_items : 0.0, "ms");
  report.metric("op.wait_ms", median(queue), "ms");
  report.metric("op.compute_ms", median(fwd_nominal), "ms");
  report.metric("op.other_ms", median(deliver), "ms");
  report.metric("op.batch_size.mean", mean_batch(batch_nominal), "count");
  report.metric("op.max_queue_depth",
                static_cast<double>(server_metrics.max_queue_depth), "count");
  report.metric("trace.overhead_frac", median(lat_on) / median(lat_off) - 1.0,
                "ratio");

  runtime::Scope scope(ctx);
  probe_local_model(engine, report);
  const std::vector<Index> first16 = band_range(0, 16, 1);
  const Tensor sub16 = as_batch(pool[0][0].slice0(0, 16), 1);
  const Tensor b8 = as_batch(pool[0][0], 8);
  const auto on = [&](runtime::KernelBackend backend) {
    return [&, backend] {
      runtime::Scope pin(runtime::ContextPatch::with_kernels({backend, 0}));
      (void)engine.run(b8, {}, 1.0f);
    };
  };
  const std::vector<double> ms = time_probes(
      10, {[&] { (void)engine.run(sub16, first16, 1.0f); },
           on(runtime::KernelBackend::kBlocked),
           on(runtime::KernelBackend::kParallel)});
  report.metric("model.subset_run_ms.b1", ms[0], "ms");
  report.metric("tensor.pool_speedup.b8", ms[1] / ms[2], "ratio");
  probe_frontend_fraction(report);

  // Layers this workload bypasses (README's bypass matrix).
  for (const char* name :
       {"comm.allgather_calls_per_step", "comm.allreduce_calls_per_step",
        "ingress.rejected", "ingress.redispatches"})
    report.metric(name, 0.0, "count");
  report.metric("comm.allgather_bytes_per_step", 0.0, "bytes");
}

}  // namespace

void run_serve_poisson(const Options& opt, Report& report) {
  run_serve({Pattern::kPoisson, 2, runtime::KernelBackend::kBlocked, {{}}},
            opt, report);
}

void run_serve_subset_burst(const Options& opt, Report& report) {
  // All 64 bands, the 32 even ones, the first 16, the last 48.
  run_serve({Pattern::kOnOff,
             1,
             runtime::KernelBackend::kParallel,
             {{}, band_range(0, 32, 2), band_range(0, 16, 1),
              band_range(16, 48, 1)}},
            opt, report);
}

}  // namespace dchag::perfbench
