// Network ingress demo (and ctest acceptance check for the ingress tier):
//
//   1. "Train" a hierarchical-aggregation forecast model and save a
//      checkpoint.
//   2. Start the ingress: a TCP listener dispatching onto a pool of
//      worker PROCESSES over shared-memory rings, each cold-starting a
//      serve::Server from the checkpoint (the runtime::Context crosses
//      the process boundary as DCHAG_* environment).
//   3. Fire 48 requests from 4 socket clients, mixing full-channel and
//      channel-subset requests.
//   4. Verify every response is bit-for-bit identical to the direct
//      no-grad forward on the source model, pull the /metrics and
//      /healthz queries over the same socket protocol, and drain.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/ingress_demo
#include <cstdio>
#include <thread>

#include "ingress/client.hpp"
#include "ingress/dispatcher.hpp"
#include "serve/engine.hpp"
#include "tensor/ops.hpp"
#include "train/checkpoint.hpp"

using namespace dchag;

namespace {

constexpr tensor::Index kChannels = 6;

}  // namespace

int main() {
  // ----- 1. checkpoint from the "training" side -------------------------------
  ingress::ModelSpec spec;
  spec.preset = "tiny";
  spec.channels = kChannels;
  spec.units = 2;
  auto trained = ingress::build_model(spec, /*seed=*/7);
  const std::string ckpt = "ingress_demo_checkpoint.bin";
  train::save_module(ckpt, *trained);
  std::printf("saved checkpoint: %lld parameters -> %s\n",
              static_cast<long long>(trained->num_parameters()),
              ckpt.c_str());

  // ----- 2. start the multi-process serving tier ------------------------------
  ingress::IngressConfig cfg;
  cfg.checkpoint = ckpt;
  cfg.model = spec;
  cfg.min_workers = 2;
  cfg.max_workers = 4;
  cfg.ring.slots = 4;
  ingress::Ingress server(cfg, runtime::Context::from_env());
  std::printf("ingress listening on 127.0.0.1:%u with %zu worker "
              "processes\n",
              static_cast<unsigned>(server.port()), server.worker_count());

  // ----- 3. 48 requests from 4 socket clients ---------------------------------
  const std::vector<std::vector<tensor::Index>> subsets{
      {},                  // all channels
      {0, 1, 2, 3, 4, 5},  // explicit full set
      {0, 2, 5},           // spans both first-level tree groups
      {1},                 // single channel
  };
  constexpr int kClients = 4;
  constexpr int kPerClient = 12;
  serve::Engine reference(*trained);
  std::vector<int> mismatches(kClients, 0);
  std::vector<int> failures(kClients, 0);
  {
    std::vector<std::thread> clients;
    for (int cl = 0; cl < kClients; ++cl) {
      clients.emplace_back([&, cl] {
        ingress::Client client(server.port());
        for (int i = 0; i < kPerClient; ++i) {
          const int id = cl * kPerClient + i;
          const auto& subset = subsets[static_cast<std::size_t>(id) % 4];
          const tensor::Index c =
              subset.empty() ? kChannels
                             : static_cast<tensor::Index>(subset.size());
          tensor::Rng rng(1000 + static_cast<std::uint64_t>(id));
          const tensor::Tensor images = rng.normal_tensor({c, 16, 16});
          try {
            const tensor::Tensor pred = client.infer(images, subset);
            const tensor::Tensor direct = reference.run(
                images.reshape({1, c, images.dim(1), images.dim(2)}),
                subset, 1.0f);
            const tensor::Tensor row =
                direct.reshape({direct.dim(1), direct.dim(2)});
            if (tensor::ops::max_abs_diff(pred, row) != 0.0f)
              ++mismatches[static_cast<std::size_t>(cl)];
          } catch (const std::exception& e) {
            std::fprintf(stderr, "request %d failed: %s\n", id, e.what());
            ++failures[static_cast<std::size_t>(cl)];
          }
        }
      });
    }
    for (auto& t : clients) t.join();
  }
  int total_mismatches = 0, total_failures = 0;
  for (int cl = 0; cl < kClients; ++cl) {
    total_mismatches += mismatches[static_cast<std::size_t>(cl)];
    total_failures += failures[static_cast<std::size_t>(cl)];
  }
  std::printf("served == direct no-grad forward bit-for-bit: %s "
              "(%d mismatches, %d failures / %d requests)\n",
              total_mismatches == 0 && total_failures == 0 ? "yes" : "NO",
              total_mismatches, total_failures, kClients * kPerClient);

  // ----- 4. observability over the same socket, then drain --------------------
  ingress::Client observer(server.port());
  const bool healthy = observer.healthz();
  const std::string metrics = observer.metrics_text();
  std::printf("healthz: %s\n/metrics:\n%s", healthy ? "ok" : "NOT OK",
              metrics.c_str());
  const bool metrics_ok =
      metrics.find("dchag_serve_requests_total 48") != std::string::npos &&
      metrics.find("dchag_ingress_accepted_total 48") != std::string::npos &&
      metrics.find("dchag_ingress_workers") != std::string::npos;

  server.drain();
  const ingress::Counters::Snapshot c = server.counters();
  const bool accounted =
      c.accepted == c.completed && c.accepted == 48 &&
      c.rejected_saturated == 0 && c.worker_restarts == 0;

  std::remove(ckpt.c_str());
  const bool ok = total_mismatches == 0 && total_failures == 0 && healthy &&
                  metrics_ok && accounted;
  std::printf("\ningress_demo: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
