// Shared fixtures for the ingress suites: a tiny "trained" model, its
// checkpoint on disk, and the bit-exact reference forward every served
// answer is compared against.
#pragma once

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ingress/dispatcher.hpp"
#include "ingress/worker.hpp"
#include "serve/engine.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"
#include "train/checkpoint.hpp"

namespace dchag::ingress::testutil {

inline constexpr tensor::Index kChannels = 4;

inline ModelSpec tiny_spec() {
  ModelSpec spec;
  spec.preset = "tiny";
  spec.channels = kChannels;
  spec.units = 2;
  return spec;
}

/// The "trained" model (seed 7) plus its checkpoint file — workers are
/// seeded differently (build_model's default seed 1), so a bit-exact
/// served answer proves the checkpoint cold start, not luck. The file is
/// per process: suites running in parallel must not rewrite a checkpoint
/// another suite's workers are loading.
struct TrainedModel {
  std::unique_ptr<model::ForecastModel> model;
  serve::Engine engine;
  std::string checkpoint;

  TrainedModel()
      : model(build_model(tiny_spec(), /*seed=*/7)),
        engine(*model),
        checkpoint(::testing::TempDir() + "ingress_ckpt_" +
                   std::to_string(::getpid()) + ".bin") {
    train::save_module(checkpoint, *model);
  }
  ~TrainedModel() { std::remove(checkpoint.c_str()); }
  TrainedModel(const TrainedModel&) = delete;
  TrainedModel& operator=(const TrainedModel&) = delete;

  /// Reference prediction [S, D] for one sample: Engine::run on a
  /// singleton batch. Batching is result-transparent, so a worker's
  /// answer matches it whatever batch the request rode in.
  [[nodiscard]] tensor::Tensor reference(
      const tensor::Tensor& images,
      const std::vector<tensor::Index>& channels = {},
      float lead_time = 1.0f) const {
    tensor::Tensor pred = engine.run(
        images.reshape(tensor::Shape{1, images.dim(0), images.dim(1),
                                     images.dim(2)}),
        channels, lead_time);
    return pred.reshape(tensor::Shape{pred.dim(1), pred.dim(2)});
  }
};

inline tensor::Tensor sample_image(std::uint64_t seed,
                                   tensor::Index channels = kChannels) {
  tensor::Rng rng(seed);
  return rng.normal_tensor(tensor::Shape{channels, 16, 16});
}

inline void expect_bit_exact(const tensor::Tensor& got,
                             const tensor::Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  for (tensor::Index i = 0; i < want.numel(); ++i)
    ASSERT_EQ(got.data()[i], want.data()[i]) << "element " << i;
}

/// Exit code and stderr text of one in-process worker_main call.
struct WorkerRun {
  int code = 0;
  std::string err;
};

/// Calls worker_main with `args` after argv[0], capturing its stderr.
inline WorkerRun run_worker_main(std::vector<std::string> args) {
  args.insert(args.begin(), "dchag_ingress_worker");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  std::FILE* capture = std::tmpfile();
  const int saved = ::dup(STDERR_FILENO);
  ::dup2(::fileno(capture), STDERR_FILENO);
  WorkerRun run;
  run.code = worker_main(static_cast<int>(args.size()), argv.data());
  std::fflush(stderr);
  ::dup2(saved, STDERR_FILENO);
  ::close(saved);

  std::rewind(capture);
  char buf[512];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), capture)) > 0)
    run.err.append(buf, n);
  std::fclose(capture);
  return run;
}

inline IngressConfig base_config(const TrainedModel& trained) {
  IngressConfig cfg;
  cfg.checkpoint = trained.checkpoint;
  cfg.model = tiny_spec();
  return cfg;
}

}  // namespace dchag::ingress::testutil
