// Ingress tier overhead bench: end-to-end requests/s through the full
// network path (TCP -> dispatcher -> shm ring -> worker process) versus an
// in-process serve::Server of the same shape on the same model and
// checkpoint: kWorkers execution lanes on single-threaded (blocked)
// kernels, each batching up to a ring's slots with max_wait 0, driven by
// the same kClients closed-loop clients. Equal compute threads on both
// sides, so the ratio is the transport's cost. Emits
// BENCH_ingress.json in Google-Benchmark JSON shape so
// scripts/bench_compare.py can gate the ratio scale-free in CI:
//
//   scripts/bench_compare.py --fresh BENCH_ingress.json
//       --speedup BM_ServeInProcess BM_ServeIngress 0.75
//
// (ratio = inproc_time / ingress_time = ingress_thpt / inproc_thpt.)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "ingress/client.hpp"
#include "ingress/dispatcher.hpp"
#include "ingress/worker.hpp"
#include "runtime/context.hpp"
#include "serve/server.hpp"
#include "tensor/rng.hpp"
#include "train/checkpoint.hpp"

using namespace dchag;

namespace {

constexpr tensor::Index kChannels = 6;
constexpr tensor::Index kImage = 16;
constexpr int kRequests = 1024;
/// Interleaved rounds per side; the bench reports each side's median.
constexpr int kRounds = 5;
constexpr int kClients = 4;
constexpr int kWorkers = 2;

ingress::ModelSpec spec() {
  ingress::ModelSpec s;
  s.preset = "tiny";
  s.channels = kChannels;
  s.units = 2;
  return s;
}

tensor::Tensor sample(std::uint64_t seed) {
  tensor::Rng rng(seed);
  return rng.normal_tensor({kChannels, kImage, kImage});
}

/// ns per request of kClients closed-loop client threads sharing
/// kRequests. Each thread calls `make_client()` once and sends every
/// sample through the blocking request function it returns.
template <typename MakeClient>
double time_clients(MakeClient make_client) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto infer = make_client();
      for (int i = 0; i < kRequests / kClients; ++i)
        infer(sample(1000 + static_cast<std::uint64_t>(c * kRequests + i)));
    });
  }
  for (std::thread& t : clients) t.join();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         kRequests;
}

/// ns per request of the in-process bound: one Server shaped like the
/// ingress pool (kWorkers lanes, max_batch = ring slots, max_wait 0).
double run_in_process(serve::Engine& engine, const runtime::Context& ctx) {
  serve::ServerConfig cfg;
  cfg.num_workers = kWorkers;
  cfg.batcher.max_batch = ingress::RingConfig{}.slots;
  cfg.batcher.max_wait = std::chrono::microseconds{0};
  serve::Server server(engine.inference_fn(), cfg, ctx);
  server.start();
  const auto infer = [&server](const tensor::Tensor& image) {
    (void)server.submit(serve::Request{image, {}, 1.0f}).get();
  };
  // Warm-up outside the timed window, as many as the ingress side gets.
  for (int i = 0; i < 2 * kWorkers; ++i) infer(sample(2));
  return time_clients([&] { return infer; });
}

/// ns per request of the full network path: kClients concurrent
/// connections against a kWorkers-process pool.
double run_ingress(const std::string& checkpoint,
                   const runtime::Context& ctx) {
  ingress::IngressConfig cfg;
  cfg.min_workers = kWorkers;
  cfg.max_workers = kWorkers;
  cfg.queue_capacity = 512;
  cfg.checkpoint = checkpoint;
  cfg.model = spec();
  ingress::Ingress ing(cfg, ctx);

  // Warm-up: one request per client-to-be so every worker has faulted in
  // its pages before the timed window.
  {
    ingress::Client warm(ing.port());
    for (int i = 0; i < 2 * kWorkers; ++i) (void)warm.infer(sample(2));
  }

  const double ns_per_req = time_clients([&ing] {
    return [client = ingress::Client(ing.port())](
               const tensor::Tensor& image) mutable {
      (void)client.infer(image);
    };
  });
  ing.drain();
  return ns_per_req;
}

double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

void emit_row(std::ofstream& json, const char* name, double ns,
              bool trailing_comma) {
  json << "    {\"name\": \"" << name << "\", \"run_type\": \"iteration\","
       << " \"iterations\": " << kRequests << ", \"real_time\": " << ns
       << ", \"cpu_time\": " << ns << ", \"time_unit\": \"ns\","
       << " \"requests_per_second\": " << 1e9 / ns << "}"
       << (trailing_comma ? "," : "") << "\n";
}

}  // namespace

int main() {
  bench::header("ingress_throughput",
                "network ingress tier vs an equal in-process Server");

  // One trained model; the workers cold-start from its checkpoint, the
  // in-process server serves it directly — identical math on both paths.
  auto model = ingress::build_model(spec(), /*seed=*/11);
  serve::Engine engine(*model);
  const char* tmp = std::getenv("TMPDIR");
  const std::string checkpoint =
      std::string(tmp != nullptr ? tmp : "/tmp") + "/bench_ingress_ckpt.bin";
  train::save_module(checkpoint, *model);

  // Blocked kernels never fan out onto the pool: each side computes on
  // exactly kWorkers threads. The workers inherit this through their env.
  const runtime::Context ctx =
      runtime::Context::current()
          .to_builder()
          .kernel_backend(runtime::KernelBackend::kBlocked)
          .build();
  bench::section("requests/s (tiny model, 16x16 images, median of 5 rounds "
                 "of 1024 requests)");
  // Interleaved rounds, so a slow minute on a shared machine hits both
  // sides alike; each side reports its median round.
  std::vector<double> inproc_rounds, ingress_rounds;
  for (int r = 0; r < kRounds; ++r) {
    inproc_rounds.push_back(run_in_process(engine, ctx));
    ingress_rounds.push_back(run_ingress(checkpoint, ctx));
  }
  const double inproc_ns = median(inproc_rounds);
  const double ingress_ns = median(ingress_rounds);
  std::printf("%-18s %12.1f req/s  %10.3f ms/req  (%d workers, %d clients)\n",
              "in-process", 1e9 / inproc_ns, inproc_ns / 1e6, kWorkers,
              kClients);
  std::printf("%-18s %12.1f req/s  %10.3f ms/req  (%d workers, %d clients)\n",
              "ingress", 1e9 / ingress_ns, ingress_ns / 1e6, kWorkers,
              kClients);
  const double ratio = inproc_ns / ingress_ns;
  std::printf("%-18s %12.2fx of in-process throughput\n", "ingress tier",
              ratio);

  std::ofstream json("BENCH_ingress.json");
  json << "{\n  \"context\": {\"bench\": \"ingress_throughput\","
       << " \"build_type\": \"" << DCHAG_BENCH_BUILD_TYPE << "\","
       << " \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"kernel_backend\": \"blocked\", \"compute_threads\": "
       << kWorkers << ", \"model\": \"tiny, "
       << kChannels << " channels, " << kImage << "x" << kImage
       << "\", \"requests\": " << kRequests << ", \"rounds\": " << kRounds << ", \"workers\": " << kWorkers
       << ", \"clients\": " << kClients
       << ", \"max_batch\": " << ingress::RingConfig{}.slots
       << ", \"max_wait_us\": 0},\n  \"benchmarks\": [\n";
  emit_row(json, "BM_ServeInProcess", inproc_ns, true);
  emit_row(json, "BM_ServeIngress", ingress_ns, false);
  json << "  ]\n}\n";
  json.close();
  std::printf("\nwrote BENCH_ingress.json\n");
  std::remove(checkpoint.c_str());

  bench::ShapeChecks checks;
  checks.expect(inproc_ns > 0 && ingress_ns > 0, "both paths measured");
  checks.expect(ratio >= 0.75,
                "ingress tier sustains >= 0.75x of an equal in-process "
                "Server's throughput");
  return checks.report();
}
