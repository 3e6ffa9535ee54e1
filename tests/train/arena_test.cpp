// The training loops run on a loop-owned plan::Arena: after the first
// step (or evaluation batch) every tensor buffer comes from the pool, and
// a tensor that outlives the loop, such as a parameter's gradient, keeps
// only its own buffer alive, not the pool.
//
// Live buffer bytes are read from this binary's replacement of the
// aligned operator new/delete, which every tensor buffer goes through
// (tensor/align.hpp); nothing else in the program allocates over-aligned
// memory in a training step.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

#include "data/hyperspectral.hpp"
#include "data/weather.hpp"
#include "tensor/plan.hpp"
#include "train/loops.hpp"

namespace {

std::atomic<std::int64_t> g_live_aligned_bytes{0};

/// Size header in front of every block: one alignment unit.
std::size_t header(std::align_val_t al) {
  return std::max(static_cast<std::size_t>(al), alignof(std::max_align_t));
}

void* aligned_new(std::size_t n, std::align_val_t al) {
  const std::size_t h = header(al);
  const std::size_t body = (n + h - 1) / h * h;
  auto* base = static_cast<char*>(std::aligned_alloc(h, h + body));
  if (base == nullptr) throw std::bad_alloc();
  std::memcpy(base + h - sizeof(n), &n, sizeof(n));
  g_live_aligned_bytes += static_cast<std::int64_t>(n);
  return base + h;
}

void aligned_delete(void* p, std::align_val_t al) noexcept {
  if (p == nullptr) return;
  char* base = static_cast<char*>(p) - header(al);
  std::size_t n = 0;
  std::memcpy(&n, static_cast<char*>(p) - sizeof(n), sizeof(n));
  g_live_aligned_bytes -= static_cast<std::int64_t>(n);
  std::free(base);
}

}  // namespace

void* operator new(std::size_t n, std::align_val_t al) {
  return aligned_new(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return aligned_new(n, al);
}
void operator delete(void* p, std::align_val_t al) noexcept {
  aligned_delete(p, al);
}
void operator delete[](void* p, std::align_val_t al) noexcept {
  aligned_delete(p, al);
}
void operator delete(void* p, std::size_t, std::align_val_t al) noexcept {
  aligned_delete(p, al);
}
void operator delete[](void* p, std::size_t, std::align_val_t al) noexcept {
  aligned_delete(p, al);
}

namespace dchag::train {
namespace {

using model::ModelConfig;
using tensor::Index;
using tensor::Rng;
using tensor::Tensor;
using tensor::plan::thread_buffer_allocations;

constexpr Index kChannels = 6;

struct MaeFixture {
  ModelConfig cfg = ModelConfig::tiny();
  Rng rng{2024};
  model::MaeModel mae{cfg, model::make_baseline_frontend(cfg, kChannels, rng),
                      kChannels, rng};
  std::vector<Tensor> batches;

  MaeFixture() {
    data::HyperspectralConfig hc;
    hc.channels = kChannels;
    hc.height = 16;
    hc.width = 16;
    data::HyperspectralGenerator gen(hc, 1);
    for (int i = 0; i < 6; ++i) batches.push_back(gen.sample_batch(2));
  }

  void train(Index steps) {
    LoopConfig lc;
    lc.steps = steps;
    lc.batch = 2;
    (void)train_mae(mae, lc, [&](Index step) {
      return batches[static_cast<std::size_t>(step)];
    });
  }

  void drop_grads() {
    for (auto& p : mae.parameters()) p.zero_grad();
  }

  /// Heap buffers this thread allocates over a `steps`-step loop.
  std::uint64_t allocations(Index steps) {
    const std::uint64_t before = thread_buffer_allocations();
    train(steps);
    drop_grads();
    return thread_buffer_allocations() - before;
  }
};

struct ForecastFixture {
  ModelConfig cfg = ModelConfig::tiny();
  data::WeatherConfig wc = [] {
    data::WeatherConfig w;
    w.num_variables = 1;
    w.levels_per_variable = 2;
    w.surface_variables = 1;  // 3 channels
    w.height = 16;
    w.width = 16;
    return w;
  }();
  Rng rng{2025};
  model::ForecastModel fm{
      cfg, model::make_baseline_frontend(cfg, wc.channels(), rng),
      wc.channels(), rng};
  std::vector<data::WeatherGenerator::Pair> pairs;

  ForecastFixture() {
    data::WeatherGenerator gen(wc, 3);
    for (int i = 0; i < 6; ++i) pairs.push_back(gen.sample_pair(2, 1.0f));
  }

  [[nodiscard]] std::pair<Tensor, Tensor> pair(Index i) const {
    const auto& p = pairs[static_cast<std::size_t>(i)];
    return {p.now, p.future};
  }
};

TEST(TrainArena, MaeStepsAfterTheFirstAllocateNothing) {
  MaeFixture f;
  const std::uint64_t two = f.allocations(2);
  EXPECT_GT(two, 0u);
  EXPECT_EQ(f.allocations(5), two)
      << "steps 3-5 went back to the heap instead of the loop's arena";
}

TEST(TrainArena, ForecastStepsAndEvaluationReuseTheirBuffers) {
  ForecastFixture f;
  auto train = [&](Index steps) {
    const std::uint64_t before = thread_buffer_allocations();
    LoopConfig lc;
    lc.steps = steps;
    (void)train_forecast(f.fm, lc, [&](Index i) { return f.pair(i); });
    for (auto& p : f.fm.parameters()) p.zero_grad();
    return thread_buffer_allocations() - before;
  };
  EXPECT_EQ(train(5), train(2));
  auto evaluate = [&](Index batches) {
    const std::uint64_t before = thread_buffer_allocations();
    (void)evaluate_forecast_rmse(f.fm, f.cfg.patch_size,
                                 [&](Index i) { return f.pair(i); }, batches);
    return thread_buffer_allocations() - before;
  };
  EXPECT_EQ(evaluate(5), evaluate(2));
}

TEST(TrainArena, AGradientOutlivingTheLoopKeepsOnlyItsBuffer) {
  MaeFixture f;
  f.train(1);  // grow any per-thread kernel scratch first
  f.drop_grads();
  const std::int64_t before = g_live_aligned_bytes.load();

  f.train(3);
  auto params = f.mae.parameters();
  const auto largest = std::max_element(
      params.begin(), params.end(),
      [](const auto& x, const auto& y) {
        return x.shape().numel() < y.shape().numel();
      });
  ASSERT_TRUE(largest->has_grad());
  const Tensor kept = largest->grad();
  f.drop_grads();

  EXPECT_EQ(g_live_aligned_bytes.load() - before,
            static_cast<std::int64_t>(kept.numel() * sizeof(float)))
      << "buffers beyond the kept gradient's outlived the loop";
}

}  // namespace
}  // namespace dchag::train
