#include "ingress/worker.hpp"

#include <unistd.h>

#include <charconv>
#include <chrono>
#include <cstdio>
#include <string_view>
#include <thread>

#include "ingress/shm_ring.hpp"
#include "runtime/context.hpp"
#include "serve/engine.hpp"
#include "tensor/autograd.hpp"
#include "train/checkpoint.hpp"

namespace dchag::ingress {

namespace {

/// Whole-string decimal parse of `field` into [lo, max of T]. An empty
/// field, a sign or trailing garbage, and overflow all throw naming
/// `what` and the field.
template <typename T>
T parse_decimal(std::string_view field, T lo, const std::string& what) {
  T value{};
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, value);
  DCHAG_CHECK(ec == std::errc() && ptr == end && value >= lo,
              "bad " << what << ": '" << field
                     << "' (want a decimal integer >= " << lo << ")");
  return value;
}

}  // namespace

std::string ModelSpec::serialize() const {
  return preset + ":" + std::to_string(channels) + ":" +
         std::to_string(units);
}

ModelSpec ModelSpec::parse(const std::string& text) {
  const std::size_t a = text.find(':');
  const std::size_t b = a == std::string::npos ? a : text.find(':', a + 1);
  DCHAG_CHECK(a != std::string::npos && b != std::string::npos && a > 0,
              "ModelSpec must be 'preset:channels:units', got '" << text
                                                                 << "'");
  const std::string_view view(text);
  ModelSpec spec;
  spec.preset = text.substr(0, a);
  spec.channels = parse_decimal<tensor::Index>(
      view.substr(a + 1, b - a - 1), 1, "channels in ModelSpec '" + text + "'");
  spec.units = parse_decimal<tensor::Index>(
      view.substr(b + 1), 1, "units in ModelSpec '" + text + "'");
  return spec;
}

std::unique_ptr<model::ForecastModel> build_model(const ModelSpec& spec,
                                                  std::uint64_t seed) {
  const model::ModelConfig cfg = spec.preset == "tiny"
                                     ? model::ModelConfig::tiny()
                                     : model::ModelConfig::preset(spec.preset);
  tensor::Rng rng(seed);
  auto agg = model::AggregationTree::with_units(
      cfg, model::AggLayerKind::kCrossAttention, spec.channels, spec.units,
      rng);
  auto fe = std::make_unique<model::LocalFrontEnd>(cfg, spec.channels,
                                                   std::move(agg), rng);
  return std::make_unique<model::ForecastModel>(cfg, std::move(fe),
                                                spec.channels, rng);
}

namespace {

/// Pushes a response, waiting out a full ring (the dispatcher drains it
/// continuously; a persistently full ring means the dispatcher died, in
/// which case the control word or a SIGKILL ends us anyway).
void push_response_blocking(ShmRing& ring, const RingResponse& hdr,
                            const float* payload, const char* error) {
  while (!ring.try_push_response(hdr, payload, error)) {
    ring.beat();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

}  // namespace

int worker_main(int argc, char** argv) {
  if (argc != 5) {
    std::fprintf(stderr,
                 "usage: dchag_ingress_worker <shm-ring-name> <model-spec> "
                 "<checkpoint> <crash-after>\n");
    return 2;
  }
  try {
    const ModelSpec spec = ModelSpec::parse(argv[2]);
    const std::string checkpoint = argv[3];
    // Deterministic fault injection for the crash-recovery suites: die
    // mid-request — after consuming request N but before its response —
    // exactly where a real forward-pass crash loses the most state.
    const auto crash_after =
        parse_decimal<std::uint64_t>(argv[4], 0, "crash-after");

    // THE context hand-off: the dispatcher re-exported its effective
    // context as DCHAG_* variables before exec, so the process default
    // built here mirrors the dispatcher's serving configuration.
    runtime::Context::set_process_default(runtime::Context::from_env());

    ShmRing ring = ShmRing::open(argv[1]);
    ring.set_state(WorkerState::kStarting);
    ring.beat();

    auto model = build_model(spec, /*seed=*/1);
    if (!checkpoint.empty()) train::load_module(checkpoint, *model);
    serve::Engine engine(*model);

    ring.set_state(WorkerState::kReady);
    std::uint64_t served = 0;
    RingRequest req;
    std::vector<float> payload;
    autograd::NoGradGuard no_grad;
    for (;;) {
      ring.beat();
      if (!ring.try_pop_request(&req, &payload)) {
        if (ring.control() == ControlWord::kDrainStop) break;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        continue;
      }
      if (ring.control() == ControlWord::kDrainStop)
        ring.set_state(WorkerState::kDraining);

      ++served;
      RingResponse resp;
      resp.id = req.id;
      try {
        Tensor images = Tensor::from_data(
            tensor::Shape{1, req.c, req.h, req.w}, std::move(payload));
        std::vector<Index> channels(req.channels,
                                    req.channels + req.n_channels);
        Tensor pred = engine.run(images, channels, req.lead_time);
        if (served == crash_after)
          ::_exit(42);  // injected crash: request consumed, answer lost
        Tensor row =
            pred.reshape(tensor::Shape{pred.dim(1), pred.dim(2)});
        resp.s = row.dim(0);
        resp.d = row.dim(1);
        if (static_cast<std::uint64_t>(row.numel()) >
            ring.max_payload_floats()) {
          resp.status = static_cast<std::uint32_t>(ErrorCode::kInternal);
          const std::string msg = "prediction exceeds ring slot budget";
          resp.error_bytes = static_cast<std::uint32_t>(msg.size());
          push_response_blocking(ring, resp, nullptr, msg.data());
        } else {
          push_response_blocking(ring, resp, row.data(), nullptr);
        }
      } catch (const std::exception& e) {
        // A per-request failure is an answer, not a worker death.
        resp.status = static_cast<std::uint32_t>(ErrorCode::kInternal);
        const std::string msg = e.what();
        resp.error_bytes = static_cast<std::uint32_t>(msg.size());
        push_response_blocking(ring, resp, nullptr, msg.data());
      }
      payload.clear();
    }
    ring.set_state(WorkerState::kStopped);
    ring.beat();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dchag_ingress_worker: fatal: %s\n", e.what());
    return 1;
  }
}

}  // namespace dchag::ingress
