// The worker-process side of the ingress tier. Each worker is a separate
// OS process (spawned by the dispatcher, see dispatcher.hpp) that:
//
//   1. builds its runtime::Context from the environment — the dispatcher
//      re-exports its own effective context as DCHAG_* variables, so
//      Context::from_env() IS the context hand-off across the process
//      boundary,
//   2. reconstructs the model from the ModelSpec + checkpoint named on
//      its command line and serves it through one serve::Server (one
//      worker thread, max_batch = ring slots, max_wait 0) — the same
//      batcher, metrics and error path as in-process serving,
//   3. runs a thin ring adapter until told to drain: each kInfer payload
//      popped off the shared-memory ring (the client's own wire bytes) is
//      decoded with the wire codec's decode_infer and goes to
//      Server::submit; resolved futures go back onto the response ring in
//      request order as encode_result payloads echoing the client id, or
//      as encode_error kInternal payloads (an undecodable request
//      included). The heartbeat beats only while idle or right after an
//      answer, never while the oldest request is still pending, so a hung
//      forward stalls it.
//
// A crash anywhere in the forward kills only this process; the dispatcher
// detects it through waitpid/heartbeat and re-dispatches the in-flight
// requests to surviving workers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "model/foundation.hpp"

namespace dchag::ingress {

/// Deployment path of the worker binary. The DCHAG_ING_ prefix is a
/// namespace Context::from_env passes through without a diagnostic.
inline constexpr const char* kEnvWorkerExe = "DCHAG_ING_WORKER";

/// Compact description of the architecture a worker must rebuild before
/// loading the checkpoint (weights come from the checkpoint; the spec
/// only pins the geometry). Serialized as "preset:channels:units".
struct ModelSpec {
  std::string preset = "tiny";  ///< ModelConfig::tiny() or preset(name)
  tensor::Index channels = 6;
  tensor::Index units = 2;  ///< first-level aggregation units (TreeN)

  /// The preset's ModelConfig (ModelConfig::tiny() for "tiny"): the one
  /// geometry both build_model and the dispatcher's admission read.
  [[nodiscard]] model::ModelConfig config() const;
  [[nodiscard]] std::string serialize() const;
  /// Strict inverse of serialize(): a non-empty preset and two positive
  /// decimal integers, each field consumed whole. Anything else throws
  /// dchag::Error naming the offending text.
  [[nodiscard]] static ModelSpec parse(const std::string& text);
};

/// Builds a freshly initialised model of the spec'd architecture. The
/// seed only shapes throwaway init values — load_module overwrites every
/// parameter — but is a parameter so tests can build reference models.
[[nodiscard]] std::unique_ptr<model::ForecastModel> build_model(
    const ModelSpec& spec, std::uint64_t seed = 1);

/// Entry point of the dchag_ingress_worker binary:
///
///   dchag_ingress_worker <ring> <model-spec> <checkpoint> <crash-after>
///
/// <ring> is the shm ring name, <model-spec> a ModelSpec::serialize()
/// string, <checkpoint> the file to cold-start from ("" = none), and
/// <crash-after> the request whose response the worker dies before
/// sending ("0" = never; the crash-recovery suites' fault injection).
/// The runtime context arrives as DCHAG_* env (Context::from_env).
/// Returns the process exit code: 0 after a drain, 1 on a fatal error
/// (bad arguments included), 2 with a usage line on a wrong arg count.
int worker_main(int argc, char** argv);

}  // namespace dchag::ingress
