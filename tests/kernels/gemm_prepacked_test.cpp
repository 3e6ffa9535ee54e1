// The serving memory plan's kernel-level contracts:
//  * gemm_blocked_prepacked is bit-identical to gemm_blocked (same packed
//    panels, same loop order) on every shape the block/offset bookkeeping
//    could mishandle, and the packed storage is 32-byte aligned;
//  * the fused epilogue ops (linear_fused, gemm_items, attention_heads,
//    layernorm_value) are bit-identical to the unfused op chains they
//    replace, on every backend, and gemm_blocked_nt's transposing pack
//    equals a materialised transpose;
//  * the Arena reuses buffers (zero heap allocations once warm), zeroes
//    them on acquire, and buffers outlive the arena itself.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <tuple>
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

/// The attention core as the grad path composes it: permute each head
/// out of [*, N, D], scale + softmax over q kᵀ, times v, permute back.
Tensor composed_attention(const Tensor& q, const Tensor& k, const Tensor& v,
                          Index heads, float s) {
  auto split = [heads](const Tensor& x) {  // [*, N, D] -> [*, h, N, dh]
    std::vector<Index> dims = x.shape().dims();
    const Index rank = x.rank();
    dims.back() /= heads;
    dims.insert(dims.end() - 1, heads);
    std::vector<Index> perm(static_cast<std::size_t>(rank + 1));
    for (Index i = 0; i <= rank; ++i) perm[static_cast<std::size_t>(i)] = i;
    std::swap(perm[static_cast<std::size_t>(rank - 1)],
              perm[static_cast<std::size_t>(rank - 2)]);
    return ops::permute(x.reshape(Shape{std::move(dims)}), perm);
  };
  Tensor probs = ops::softmax_lastdim(
      ops::scale(ops::matmul(split(q), ops::transpose_last2(split(k))), s));
  Tensor o = ops::matmul(probs, split(v));  // [*, h, Nq, dh]
  const Index rank = o.rank();
  std::vector<Index> perm(static_cast<std::size_t>(rank));
  for (Index i = 0; i < rank; ++i) perm[static_cast<std::size_t>(i)] = i;
  std::swap(perm[static_cast<std::size_t>(rank - 2)],
            perm[static_cast<std::size_t>(rank - 3)]);
  return ops::permute(o, perm).reshape(q.shape());
}

/// attention_heads vs composed_attention on q [lead..., Nq, D] and k/v
/// [lead..., Nk, D], bitwise on every backend, plus backend agreement.
void expect_attention_parity(std::vector<Index> lead, Index nq, Index nk,
                             Index d, Index heads, std::uint64_t seed) {
  Rng rng(seed);
  const float s = 1.0f / std::sqrt(static_cast<float>(d / heads));
  std::vector<Index> qd = lead, kd = lead;
  qd.insert(qd.end(), {nq, d});
  kd.insert(kd.end(), {nk, d});
  Tensor q = rng.normal_tensor(Shape{qd}, 0.0f, 0.35f);
  Tensor k = rng.normal_tensor(Shape{kd}, 0.0f, 0.35f);
  Tensor v = rng.normal_tensor(Shape{kd}, 0.0f, 0.35f);
  const std::string what = "attention_heads q " + q.shape().to_string() +
                           " k " + k.shape().to_string() + " heads " +
                           std::to_string(heads);
  for (KernelBackend b : {KernelBackend::kNaive, KernelBackend::kBlocked,
                          KernelBackend::kParallel}) {
    runtime::Scope scope(backend_patch(b));
    Tensor got = ops::attention_heads(q, k, v, heads, s);
    EXPECT_EQ(got.shape(), q.shape()) << what;
    EXPECT_EQ(ops::max_abs_diff(got, composed_attention(q, k, v, heads, s)),
              0.0f)
        << what << ", backend " << to_string(b);
  }
  expect_backends_agree([&] { return ops::attention_heads(q, k, v, heads, s); },
                        what);
}

TEST(FusedEpilogues, AttentionHeadsMatchComposedReferenceOnEveryBackend) {
  // Batched small heads, Nq != Nk, one to four heads.
  for (Index heads : {1, 2, 4})
    expect_attention_parity({2, 3}, 9, 13, 8 * heads, heads, 14);
  // One query per item (the learned-query aggregator's shape).
  expect_attention_parity({5}, 1, 7, 12, 3, 15);
  // A rank-2 operand is a single item.
  expect_attention_parity({}, 4, 6, 16, 2, 16);
  // Big enough for kParallel to split the units unevenly, with the P * V
  // inner dimension (Nk = 300) past one KC block.
  expect_attention_parity({3}, 37, 300, 256, 1, 17);
  // dh = 300 puts the score product's inner dimension past one KC block.
  expect_attention_parity({2}, 5, 11, 600, 2, 18);
}

TEST(FusedEpilogues, AttentionHeadsRejectsMismatchedOperands) {
  Tensor q(Shape{2, 3, 8});
  Tensor k(Shape{2, 4, 8});
  EXPECT_THROW((void)ops::attention_heads(q, k, k, 3, 1.0f),
               std::exception);  // 8 % 3 != 0
  EXPECT_THROW((void)ops::attention_heads(q, Tensor(Shape{1, 4, 8}),
                                          Tensor(Shape{1, 4, 8}), 2, 1.0f),
               std::exception);  // batch dims differ
  EXPECT_THROW((void)ops::attention_heads(q, k, Tensor(Shape{2, 4, 6}), 2,
                                          1.0f),
               std::exception);  // v is not k's shape
}

TEST(FusedEpilogues, GemmItemsWritesStridedOutputBitIdenticalToMatmul) {
  // Three items of [5, 7] x [7, 6], each with its own B, written as
  // column blocks of one [5, 18] output (row stride 18), with an epilogue
  // that adds 1 in place.
  Rng rng(19);
  Tensor a = rng.normal_tensor(Shape{3, 5, 7});
  Tensor b = rng.normal_tensor(Shape{3, 7, 6});
  std::vector<gemm::PackedB> packs;
  for (Index i = 0; i < 3; ++i)
    packs.push_back(gemm::pack_b_matrix(b.data() + i * 42, 7, 6, 6));
  for (KernelBackend be : {KernelBackend::kNaive, KernelBackend::kBlocked,
                           KernelBackend::kParallel}) {
    runtime::Scope scope(backend_patch(be));
    Tensor want = ops::add_scalar(ops::matmul(a, b), 1.0f);  // [3, 5, 6]
    for (bool use_packs : {true, false}) {
      Tensor out(Shape{5, 18});
      ops::gemm_items(
          3, 5, 6, 7,
          [&](Index i) {
            return ops::GemmItem{
                .a = a.data() + i * 35,
                .lda = 7,
                .b = b.data() + i * 42,
                .ldb = 6,
                .packed = use_packs ? &packs[static_cast<std::size_t>(i)]
                                    : nullptr,
                .c = out.data() + i * 6,
                .ldc = 18};
          },
          [](Index, const ops::GemmItem& g) {
            for (Index r = 0; r < 5; ++r)
              for (Index j = 0; j < 6; ++j)
                g.c[r * g.ldc + j] = g.c[r * g.ldc + j] + 1.0f;
          });
      for (Index i = 0; i < 3; ++i)
        for (Index r = 0; r < 5; ++r)
          for (Index j = 0; j < 6; ++j)
            EXPECT_EQ(out.at({r, i * 6 + j}), want.at({i, r, j}))
                << to_string(be) << (use_packs ? " packed" : " per-call");
    }
  }
}

TEST(GemmPrepacked, TransposedBMatchesMaterialisedTranspose) {
  // gemm_blocked_nt reads B through a transposing pack: the panels, and
  // so the bits, equal gemm_blocked's on the materialised transpose.
  for (const auto& [M, N, K] : {std::tuple<Index, Index, Index>{9, 13, 8},
                                {37, 300, 256},
                                {5, 11, 300},
                                {121, 520, 33}}) {
    Rng rng(static_cast<std::uint64_t>(M * 1000 + N));
    Tensor a = rng.normal_tensor(Shape{M, K});
    Tensor bt = rng.normal_tensor(Shape{N, K + 3});  // row stride K + 3
    Tensor b = ops::transpose_last2(ops::slice(bt, 1, 0, K));  // [K, N]
    Tensor want(Shape{M, N});
    Tensor got(Shape{M, N});
    gemm::gemm_blocked(M, N, K, a.data(), K, b.data(), N, want.data(), N);
    gemm::gemm_blocked_nt(M, N, K, a.data(), K, bt.data(), K + 3, got.data(),
                          N);
    EXPECT_EQ(ops::max_abs_diff(want, got), 0.0f)
        << "M=" << M << " N=" << N << " K=" << K;
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
