#include "ingress/worker.hpp"

#include <unistd.h>

#include <charconv>
#include <chrono>
#include <cstdio>
#include <deque>
#include <string_view>
#include <thread>

#include "ingress/shm_ring.hpp"
#include "runtime/context.hpp"
#include "serve/server.hpp"
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

model::ModelConfig ModelSpec::config() const {
  return preset == "tiny" ? model::ModelConfig::tiny()
                          : model::ModelConfig::preset(preset);
}

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
  const model::ModelConfig cfg = spec.config();
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

/// Ring poll period; also the longest wait on the oldest request's answer.
constexpr std::chrono::microseconds kPoll{50};

/// One request inside the worker: its ring id, the client id its payload
/// carried (echoed in the answer), and the server's future.
struct Pending {
  std::uint64_t ring_id = 0;
  std::uint64_t client_id = 0;
  serve::ResponseFuture future;
};

/// Decodes one ring message with the wire codec and submits it to the
/// server. A message that does not decode, or a request the server
/// refuses, comes back as an already-failed future, so every request is
/// answered through the same path.
Pending submit(serve::Server& server, const RingMessage& msg) {
  Pending p;
  p.ring_id = msg.id;
  try {
    DCHAG_CHECK(msg.type == MsgType::kInfer,
                "ring message of type " << int(msg.type) << " is no request");
    InferRequest req = decode_infer(msg.payload.data(), msg.payload.size());
    p.client_id = req.id;
    p.future = server.submit(serve::Request{
        std::move(req.images), std::move(req.channels), req.lead_time});
  } catch (...) {
    std::promise<serve::Response> failed;
    failed.set_exception(std::current_exception());
    p.future = failed.get_future();
  }
  return p;
}

/// Pushes the answer to one resolved request: a kResult payload, or a
/// kInternal kError carrying the failure's message (cut to fit the slot).
/// `crash` is the injected fault: die with the request consumed and its
/// answer lost.
void answer(ShmRing& ring, Pending& p, bool crash) {
  MsgType type = MsgType::kResult;
  std::vector<std::uint8_t> bytes;
  try {
    bytes = encode_result({p.client_id, p.future.get().pred});
    DCHAG_CHECK(bytes.size() <= ring.max_message_bytes(),
                "prediction exceeds ring slot budget");
  } catch (const std::exception& e) {
    type = MsgType::kError;
    // 16 bytes of id, code and length precede the message.
    bytes = encode_error({p.client_id, ErrorCode::kInternal,
                          std::string(e.what()).substr(
                              0, ring.max_message_bytes() - 16)});
  }
  if (crash) ::_exit(42);
  while (!ring.try_push_response(p.ring_id, type, bytes))
    std::this_thread::sleep_for(kPoll);  // only a slow reader fills it
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
    // with answer N computed but not pushed — request consumed, answer
    // lost — exactly where a real forward-pass crash loses the most state.
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
    // One execution lane per process (the dispatcher scales processes).
    // The ring bounds the batch, and the dispatcher's admission queue
    // holds the backlog, so a batch never waits for lane-mates.
    serve::Server server(
        engine.inference_fn(),
        {.num_workers = 1,
         .batcher = {.max_batch = ring.slots(),
                     .max_wait = std::chrono::microseconds{0}}});
    server.start();

    ring.set_state(WorkerState::kReady);
    std::uint64_t answered = 0;
    std::deque<Pending> pending;
    RingMessage msg;
    for (;;) {
      // Control before ring: every request pushed before kDrainStop is
      // then visible to the pops below.
      const bool stop = ring.control() == ControlWord::kDrainStop;
      if (stop) ring.set_state(WorkerState::kDraining);
      while (ring.try_pop_request(&msg))
        pending.push_back(submit(server, msg));
      if (pending.empty()) {
        if (stop) break;
        std::this_thread::sleep_for(kPoll);
      } else {
        // No beat while the oldest request is unanswered: a hung forward
        // stalls the heartbeat, and the monitor SIGKILLs this process.
        Pending& oldest = pending.front();
        if (oldest.future.wait_for(kPoll) != std::future_status::ready)
          continue;
        answer(ring, oldest, ++answered == crash_after);
        pending.pop_front();
      }
      ring.beat();
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
