// The serving memory plan's kernel-level contracts:
//  * gemm_blocked_prepacked is bit-identical to gemm_blocked (same packed
//    panels, same loop order) on every shape the block/offset bookkeeping
//    could mishandle, and the packed storage is 32-byte aligned;
//  * the fused epilogue ops (linear_fused, matmul_scale_softmax,
//    layernorm_value) are bit-identical to the unfused op chains they
//    replace, on every backend;
//  * the Arena reuses buffers (zero heap allocations once warm), zeroes
//    them on acquire, and buffers outlive the arena itself.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "tensor/gemm.hpp"
#include "tensor/kernel_config.hpp"
#include "tensor/ops.hpp"
#include "tensor/plan.hpp"
#include "tensor/rng.hpp"

namespace dchag::tensor {
namespace {

namespace ops = tensor::ops;

const bool kForceLanes = [] {
  setenv("DCHAG_THREADS", "4", /*overwrite=*/1);
  return true;
}();

runtime::ContextPatch backend_patch(KernelBackend b) {
  return runtime::ContextPatch::with_kernels({b, 0});
}

/// gemm_blocked vs gemm_blocked_prepacked on raw buffers, plus a naive
/// k-ascending oracle with a scaled-input 1e-5 bound.
void expect_prepacked_parity(Index M, Index N, Index K, std::uint64_t seed) {
  const float s = 1.0f / std::sqrt(std::max<float>(1.0f, static_cast<float>(K)));
  Rng rng(seed);
  Tensor a = rng.normal_tensor(Shape{M, K}, 0.0f, s);
  Tensor b = rng.normal_tensor(Shape{K, N}, 0.0f, s);
  Tensor c_blocked(Shape{M, N});
  Tensor c_packed(Shape{M, N});
  gemm::gemm_blocked(M, N, K, a.data(), K, b.data(), N,
                     c_blocked.data(), N);
  gemm::PackedB pb = gemm::pack_b_matrix(b.data(), K, N, N);
  EXPECT_TRUE(pb.matches(K, N));
  EXPECT_TRUE(is_aligned(pb.data.data()));
  gemm::gemm_blocked_prepacked(M, a.data(), K, pb, c_packed.data(),
                               N);
  EXPECT_EQ(ops::max_abs_diff(c_blocked, c_packed), 0.0f)
      << "prepacked drifted from per-call packing at M=" << M << " N=" << N
      << " K=" << K;

  // Naive oracle: strictly k-ascending accumulation per element.
  Tensor c_ref(Shape{M, N});
  float* cr = c_ref.data();
  for (Index i = 0; i < M; ++i)
    for (Index k = 0; k < K; ++k) {
      const float av = a.data()[i * K + k];
      for (Index j = 0; j < N; ++j) cr[i * N + j] += av * b.data()[k * N + j];
    }
  EXPECT_LE(ops::max_abs_diff(c_ref, c_packed), 1e-5f);
}

TEST(GemmPrepacked, TileAlignedSingleBlock) {
  expect_prepacked_parity(120, 512, 256, 1);
  expect_prepacked_parity(6, 16, 256, 2);
}

TEST(GemmPrepacked, MultiBlockWithEdges) {
  // N spans two NC blocks plus an edge, K spans three KC blocks with an
  // edge: the offset table must step by the exact per-block panel count.
  expect_prepacked_parity(250, 1040, 600, 3);
  // Edge jc block narrower than one NR panel.
  expect_prepacked_parity(37, 513, 257, 4);
}

TEST(GemmPrepacked, OddShapesOffTileBoundaries) {
  expect_prepacked_parity(1, 1, 1, 5);
  expect_prepacked_parity(37, 29, 53, 6);
  expect_prepacked_parity(7, 17, 300, 7);
  expect_prepacked_parity(121, 15, 511, 8);
}

TEST(GemmPrepacked, PackMatchesRejectsOtherShapes) {
  Rng rng(9);
  Tensor b = rng.normal_tensor(Shape{8, 8});
  gemm::PackedB pb = gemm::pack_b_matrix(b.data(), 8, 8, 8);
  EXPECT_TRUE(pb.matches(8, 8));
  EXPECT_FALSE(pb.matches(8, 16));
  EXPECT_FALSE(pb.matches(16, 8));
}

// ----- fused epilogues -------------------------------------------------------

/// linear_fused (packed and per-call) vs the unfused op chain for a given
/// epilogue, bitwise, on the active backend.
void expect_fused_linear_parity(const Shape& x_shape, Index N,
                                std::uint64_t seed) {
  const Index K = x_shape.dim(-1);
  Rng rng(seed);
  const float s = 1.0f / std::sqrt(static_cast<float>(K));
  Tensor x = rng.normal_tensor(x_shape, 0.0f, s);
  Tensor w = rng.normal_tensor(Shape{K, N}, 0.0f, s);
  Tensor bias = rng.normal_tensor(Shape{N});
  Tensor gamma = rng.normal_tensor(Shape{N}, 1.0f, 0.1f);
  Tensor beta = rng.normal_tensor(Shape{N}, 0.0f, 0.1f);
  gemm::PackedB pb = gemm::pack_b_matrix(w.data(), K, N, N);

  Tensor base = ops::add(ops::matmul(x, w), bias);
  Tensor residual = rng.normal_tensor(base.shape(), 0.0f, s);

  ops::LinearEpilogue bias_only;
  bias_only.bias = &bias;
  ops::LinearEpilogue bias_gelu = bias_only;
  bias_gelu.gelu = true;
  ops::LinearEpilogue bias_res = bias_only;
  bias_res.residual = &residual;
  ops::LinearEpilogue full = bias_res;
  full.ln_gamma = &gamma;
  full.ln_beta = &beta;

  for (const gemm::PackedB* packed : {&pb, static_cast<gemm::PackedB*>(nullptr)}) {
    EXPECT_EQ(ops::max_abs_diff(ops::linear_fused(x, w, packed, bias_only),
                                base),
              0.0f);
    EXPECT_EQ(ops::max_abs_diff(ops::linear_fused(x, w, packed, bias_gelu),
                                ops::gelu(base)),
              0.0f);
    EXPECT_EQ(ops::max_abs_diff(ops::linear_fused(x, w, packed, bias_res),
                                ops::add(residual, base)),
              0.0f);
    EXPECT_EQ(
        ops::max_abs_diff(ops::linear_fused(x, w, packed, full),
                          ops::layernorm(ops::add(residual, base), gamma,
                                         beta)
                              .y),
        0.0f);
  }
}

/// Runs `op` on every backend: blocked and parallel must agree bit for
/// bit, the naive oracle within 1e-5.
template <typename Op>
void expect_backends_agree(Op&& op, const std::string& what) {
  Tensor out[3];
  int i = 0;
  for (KernelBackend b : {KernelBackend::kNaive, KernelBackend::kBlocked,
                          KernelBackend::kParallel}) {
    runtime::Scope scope(backend_patch(b));
    out[i++] = op();
  }
  EXPECT_LE(ops::max_abs_diff(out[0], out[1]), 1e-5f) << what;
  EXPECT_EQ(ops::max_abs_diff(out[1], out[2]), 0.0f)
      << what << " — blocked and parallel must be bit-identical";
}

TEST(FusedEpilogues, LinearBitIdenticalAcrossBackends) {
  for (KernelBackend b : {KernelBackend::kNaive, KernelBackend::kBlocked,
                          KernelBackend::kParallel}) {
    runtime::Scope scope(backend_patch(b));
    expect_fused_linear_parity(Shape{33, 24}, 40, 11);
    expect_fused_linear_parity(Shape{2, 7, 19, 24}, 16, 12);  // flat rows
    expect_fused_linear_parity(Shape{1, 24}, 24, 13);
    // Big enough for kParallel's strips to cross the 37-row batch edges.
    expect_fused_linear_parity(Shape{3, 37, 256}, 300, 16);
  }
  Rng rng(17);
  const float s = 1.0f / 16.0f;  // 1/sqrt(K)
  Tensor x = rng.normal_tensor(Shape{3, 37, 256}, 0.0f, s);
  Tensor w = rng.normal_tensor(Shape{256, 300}, 0.0f, s);
  Tensor bias = rng.normal_tensor(Shape{300});
  Tensor residual = rng.normal_tensor(Shape{3, 37, 300});
  Tensor gamma = rng.normal_tensor(Shape{300}, 1.0f, 0.1f);
  Tensor beta = rng.normal_tensor(Shape{300}, 0.0f, 0.1f);
  gemm::PackedB pb = gemm::pack_b_matrix(w.data(), 256, 300, 300);
  ops::LinearEpilogue full;
  full.bias = &bias;
  full.gelu = true;
  full.residual = &residual;
  full.ln_gamma = &gamma;
  full.ln_beta = &beta;
  for (const gemm::PackedB* packed : {&pb, static_cast<gemm::PackedB*>(nullptr)}) {
    expect_backends_agree(
        [&] { return ops::linear_fused(x, w, packed, full); },
        packed != nullptr ? "linear_fused packed" : "linear_fused per-call");
  }
}

TEST(FusedEpilogues, MatmulScaleSoftmaxBitIdenticalAcrossBackends) {
  Rng rng(14);
  Tensor a = rng.normal_tensor(Shape{2, 3, 9, 8}, 0.0f, 0.35f);
  Tensor bt = rng.normal_tensor(Shape{2, 3, 8, 13}, 0.0f, 0.35f);
  Tensor b2 = rng.normal_tensor(Shape{8, 13}, 0.0f, 0.35f);  // shared B
  const float s = 1.0f / std::sqrt(8.0f);
  for (KernelBackend b : {KernelBackend::kNaive, KernelBackend::kBlocked,
                          KernelBackend::kParallel}) {
    runtime::Scope scope(backend_patch(b));
    EXPECT_EQ(
        ops::max_abs_diff(ops::matmul_scale_softmax(a, bt, s),
                          ops::softmax_lastdim(ops::scale(ops::matmul(a, bt),
                                                          s))),
        0.0f);
    EXPECT_EQ(
        ops::max_abs_diff(ops::matmul_scale_softmax(a, b2, s),
                          ops::softmax_lastdim(ops::scale(ops::matmul(a, b2),
                                                          s))),
        0.0f);
  }
  // Big enough for kParallel's strips to cross the 37-row batch edges.
  Tensor qa = rng.normal_tensor(Shape{3, 37, 256}, 0.0f, 1.0f / 16.0f);
  Tensor kb = rng.normal_tensor(Shape{3, 256, 300}, 0.0f, 1.0f / 16.0f);
  Tensor kshared = rng.normal_tensor(Shape{256, 300}, 0.0f, 1.0f / 16.0f);
  for (const Tensor* bmat : {&kb, &kshared}) {
    expect_backends_agree(
        [&] { return ops::matmul_scale_softmax(qa, *bmat, 0.5f); },
        "matmul_scale_softmax x " + bmat->shape().to_string());
    runtime::Scope scope(backend_patch(KernelBackend::kParallel));
    EXPECT_EQ(ops::max_abs_diff(
                  ops::matmul_scale_softmax(qa, *bmat, 0.5f),
                  ops::softmax_lastdim(ops::scale(ops::matmul(qa, *bmat),
                                                  0.5f))),
              0.0f);
  }
}

TEST(FusedEpilogues, LayernormValueMatchesLayernormY) {
  Rng rng(15);
  // 257 rows stay under the parallel row split; 2100 rows of D=48 cross
  // it (row grain 32768/48 = 682).
  for (const Shape& shape : {Shape{257, 48}, Shape{3, 700, 48}}) {
    Tensor x = rng.normal_tensor(shape);
    Tensor gamma = rng.normal_tensor(Shape{48}, 1.0f, 0.1f);
    Tensor beta = rng.normal_tensor(Shape{48}, 0.0f, 0.1f);
    for (KernelBackend b : {KernelBackend::kNaive, KernelBackend::kBlocked,
                            KernelBackend::kParallel}) {
      runtime::Scope scope(backend_patch(b));
      EXPECT_EQ(ops::max_abs_diff(ops::layernorm_value(x, gamma, beta),
                                  ops::layernorm(x, gamma, beta).y),
                0.0f);
    }
    expect_backends_agree([&] { return ops::layernorm_value(x, gamma, beta); },
                          "layernorm_value " + shape.to_string());
  }
}

// ----- arena -----------------------------------------------------------------

TEST(Arena, ReusesReleasedBuffersAndCounts) {
  plan::Arena arena;
  const std::uint64_t before = plan::thread_buffer_allocations();
  {
    auto b1 = arena.acquire(64);
    EXPECT_TRUE(is_aligned(b1->data()));
    (*b1)[0] = 42.0f;
  }  // parked
  EXPECT_EQ(plan::thread_buffer_allocations() - before, 1u);
  auto b2 = arena.acquire(64);  // pool hit, zeroed
  EXPECT_EQ(plan::thread_buffer_allocations() - before, 1u);
  EXPECT_EQ((*b2)[0], 0.0f);
  auto b3 = arena.acquire(64);  // b2 still held: fresh
  EXPECT_EQ(plan::thread_buffer_allocations() - before, 2u);
  const plan::Arena::Stats s = arena.stats();
  EXPECT_EQ(s.fresh, 2u);
  EXPECT_EQ(s.reused, 1u);
  (void)b3;
}

TEST(Arena, BuffersOutliveTheArena) {
  std::shared_ptr<AlignedVec> escaped;
  {
    plan::Arena arena;
    escaped = arena.acquire(16);
  }
  (*escaped)[15] = 1.0f;  // state kept alive by the deleter
  escaped.reset();        // parks into the orphaned pool, then frees
}

TEST(Arena, ScopeRoutesTensorsAndSteadyStateAllocatesNothing) {
  plan::Arena arena;
  const Shape shape{13, 7};
  auto forward = [&] {
    // A miniature "request": a few op-sized temporaries plus a result.
    Tensor a(shape, 0.5f);
    Tensor b(shape, 0.25f);
    return ops::add(ops::mul(a, b), a);
  };
  Tensor result;
  {
    plan::ArenaScope scope(arena);
    result = forward();  // warm-up populates the pool
    result = forward();  // previous result's buffer returns mid-steady
    const std::uint64_t before = plan::thread_buffer_allocations();
    result = forward();
    EXPECT_EQ(plan::thread_buffer_allocations() - before, 0u)
        << "steady-state forward touched the heap";
  }
  EXPECT_GT(arena.stats().reused, 0u);
  // Outside the scope, construction is plain counted heap allocation.
  const std::uint64_t before = plan::thread_buffer_allocations();
  Tensor t(shape);
  EXPECT_EQ(plan::thread_buffer_allocations() - before, 1u);
}

}  // namespace
}  // namespace dchag::tensor
