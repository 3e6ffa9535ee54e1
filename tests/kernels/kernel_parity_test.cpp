// Backend parity: the naive scalar kernels are the oracle; blocked and
// parallel must agree with them within 1e-5 on every shape the tiling
// could mishandle (edges far from MR/NR/MC/KC multiples, rank-3 batches,
// shared rank-2 B, empty dims), and blocked vs parallel must be
// bit-identical (same accumulation order by construction).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "tensor/kernel_config.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"
#include "tensor/thread_pool.hpp"

namespace dchag::tensor {
namespace {

namespace ops = tensor::ops;

// The global pool is sized once from DCHAG_THREADS (default: core count),
// so on a 1-core runner every parallel_for would run inline and the
// chunk-boundary code paths would go untested. This binary pins itself
// to 4 lanes before the pool's first use: parity coverage must not
// depend on the host's core count or inherited environment.
const bool kForceLanes = [] {
  setenv("DCHAG_THREADS", "4", /*overwrite=*/1);
  return true;
}();

/// Kernels-only patch for the unified override stack (threads = whole
/// pool).
runtime::ContextPatch backend_patch(KernelBackend b) {
  return runtime::ContextPatch::with_kernels({b, 0});
}

Tensor run_matmul(KernelBackend b, const Tensor& x, const Tensor& y) {
  runtime::Scope scope(backend_patch(b));
  return ops::matmul(x, y);
}

/// Inputs scaled by 1/sqrt(K) keep outputs O(1), so an absolute 1e-5
/// bound is a genuine relative-precision statement at every K.
void expect_three_way_parity(const Shape& a_shape, const Shape& b_shape,
                             std::uint64_t seed) {
  const float k = static_cast<float>(a_shape.dim(-1));
  const float s = 1.0f / std::sqrt(std::max(1.0f, k));
  Rng rng(seed);
  Tensor a = rng.normal_tensor(a_shape, 0.0f, s);
  Tensor b = rng.normal_tensor(b_shape, 0.0f, s);
  Tensor naive = run_matmul(KernelBackend::kNaive, a, b);
  Tensor blocked = run_matmul(KernelBackend::kBlocked, a, b);
  Tensor parallel = run_matmul(KernelBackend::kParallel, a, b);
  EXPECT_LE(ops::max_abs_diff(naive, blocked), 1e-5f)
      << a_shape.to_string() << " x " << b_shape.to_string();
  EXPECT_EQ(ops::max_abs_diff(blocked, parallel), 0.0f)
      << a_shape.to_string() << " x " << b_shape.to_string()
      << " — blocked and parallel must be bit-identical";
}

TEST(MatmulParity, TileAlignedShapes) {
  expect_three_way_parity(Shape{120, 256}, Shape{256, 512}, 1);
  expect_three_way_parity(Shape{64, 64}, Shape{64, 64}, 2);
}

TEST(MatmulParity, OddShapesOffTileBoundaries) {
  // None of M, N, K is a multiple of MR=6, NR=16, MC=120, KC=256, NC=512.
  expect_three_way_parity(Shape{37, 53}, Shape{53, 29}, 3);
  expect_three_way_parity(Shape{1, 1}, Shape{1, 1}, 4);
  expect_three_way_parity(Shape{7, 3}, Shape{3, 513}, 5);
  expect_three_way_parity(Shape{121, 257}, Shape{257, 17}, 6);
  expect_three_way_parity(Shape{5, 300}, Shape{300, 5}, 7);
}

TEST(MatmulParity, Rank3BatchesAndSharedB) {
  expect_three_way_parity(Shape{3, 17, 13}, Shape{3, 13, 29}, 8);
  // Rank-2 B shared across the batch, rank-4 batch dims.
  expect_three_way_parity(Shape{2, 3, 19, 23}, Shape{23, 31}, 9);
  // Large enough that kParallel's ~1 MFLOP strips (6 rows here) split
  // the 111 flattened rows and cross the 37-row batch edges.
  expect_three_way_parity(Shape{3, 37, 256}, Shape{3, 256, 300}, 14);
  expect_three_way_parity(Shape{3, 37, 256}, Shape{256, 300}, 15);
}

TEST(MatmulParity, EmptyDims) {
  for (KernelBackend b : {KernelBackend::kNaive, KernelBackend::kBlocked,
                          KernelBackend::kParallel}) {
    runtime::Scope scope(backend_patch(b));
    Tensor a(Shape{0, 5});
    Tensor w(Shape{5, 3});
    Tensor c = ops::matmul(a, w);
    EXPECT_EQ(c.shape(), (Shape{0, 3}));
    // K == 0: a well-defined all-zero product.
    Tensor zk = ops::matmul(Tensor(Shape{4, 0}), Tensor(Shape{0, 3}));
    EXPECT_EQ(zk.shape(), (Shape{4, 3}));
    for (float v : zk.span()) EXPECT_EQ(v, 0.0f);
  }
}

TEST(MatmulParity, FlopLedgerIdenticalAcrossBackends) {
  Rng rng(10);
  Tensor a = rng.normal_tensor(Shape{33, 47});
  Tensor b = rng.normal_tensor(Shape{47, 21});
  Tensor q = rng.normal_tensor(Shape{2, 9, 94});
  Tensor kv = rng.normal_tensor(Shape{2, 13, 94});
  Tensor c(Shape{5, 33, 21});
  // matmul, linear_fused, gemm_items: 2*M*N*K per product on every
  // backend; attention_heads (2 heads of dh = 47): its score and P * V
  // products, as the composed matmuls count them.
  const std::uint64_t want[4] = {2ull * 33 * 47 * 21, 2ull * 33 * 47 * 21,
                                 5ull * 2 * 33 * 21 * 47,
                                 2 * (2ull * 2 * 2 * 9 * 13 * 47)};
  for (KernelBackend be : {KernelBackend::kNaive, KernelBackend::kBlocked,
                           KernelBackend::kParallel}) {
    runtime::Scope scope(backend_patch(be));
    std::uint64_t got[4];
    ops::reset_flops();
    (void)ops::matmul(a, b);
    got[0] = ops::flops_executed();
    ops::reset_flops();
    (void)ops::linear_fused(a, b, nullptr, {});
    got[1] = ops::flops_executed();
    ops::reset_flops();
    ops::gemm_items(
        5, 33, 21, 47,
        [&](Index i) {
          return ops::GemmItem{.a = a.data(),
                               .lda = 47,
                               .b = b.data(),
                               .ldb = 21,
                               .c = c.data() + i * 33 * 21,
                               .ldc = 21};
        },
        [](Index, const ops::GemmItem&) {});
    got[2] = ops::flops_executed();
    ops::reset_flops();
    (void)ops::attention_heads(q, kv, kv, 2, 0.5f);
    got[3] = ops::flops_executed();
    for (int i = 0; i < 4; ++i)
      EXPECT_EQ(got[i], want[i]) << to_string(be) << ", entry point " << i;
    // The ledger's attention count is what the composed path records.
    ops::reset_flops();
    Tensor qh = ops::permute(q.reshape(Shape{2, 9, 2, 47}), {0, 2, 1, 3});
    Tensor kh = ops::permute(kv.reshape(Shape{2, 13, 2, 47}), {0, 2, 1, 3});
    (void)ops::matmul(ops::matmul(qh, ops::transpose_last2(kh)), kh);
    EXPECT_EQ(ops::flops_executed(), want[3]) << to_string(be);
  }
}

TEST(ElementwiseParity, ParallelMatchesNaiveAboveFanoutThreshold) {
  ASSERT_GE(ThreadPool::global().lanes(), 2)
      << "pool must fan out for these tests to mean anything";
  Rng rng(11);
  // 77k elements / 257 softmax rows: past the 2x-grain fan-out threshold
  // for the elementwise (32768) and row (32768/300) dispatches.
  Tensor a = rng.normal_tensor(Shape{257, 300});
  Tensor b = rng.normal_tensor(Shape{257, 300});
  Tensor gold_add, gold_gelu, gold_sm;
  {
    runtime::Scope scope(backend_patch(KernelBackend::kNaive));
    gold_add = ops::add(a, b);
    gold_gelu = ops::gelu(a);
    gold_sm = ops::softmax_lastdim(a);
  }
  {
    runtime::Scope scope(backend_patch(KernelBackend::kParallel));
    EXPECT_EQ(ops::max_abs_diff(ops::add(a, b), gold_add), 0.0f);
    EXPECT_EQ(ops::max_abs_diff(ops::gelu(a), gold_gelu), 0.0f);
    EXPECT_EQ(ops::max_abs_diff(ops::softmax_lastdim(a), gold_sm), 0.0f);
  }
}

TEST(SumDimParity, ParallelSplitsBothOuterAndInnerForms) {
  Rng rng(13);
  // dim 0: outer == 1, fans over the inner (column) range; dim 1 on the
  // rank-3 tensor: outer == 48, fans over outer rows.
  Tensor flat = rng.normal_tensor(Shape{64, 2048});
  Tensor batched = rng.normal_tensor(Shape{48, 33, 700});
  Tensor gold0, gold1;
  {
    runtime::Scope scope(backend_patch(KernelBackend::kNaive));
    gold0 = ops::sum_dim(flat, 0);
    gold1 = ops::sum_dim(batched, 1);
  }
  {
    runtime::Scope scope(backend_patch(KernelBackend::kParallel));
    EXPECT_EQ(ops::max_abs_diff(ops::sum_dim(flat, 0), gold0), 0.0f);
    EXPECT_EQ(ops::max_abs_diff(ops::sum_dim(batched, 1), gold1), 0.0f);
  }
}

TEST(LayerNormParity, ParallelMatchesNaive) {
  Rng rng(12);
  // 1500 rows with D=64: row grain is 32768/64 = 512, so the parallel
  // dispatch really splits (>= 2 chunks of rows).
  Tensor a = rng.normal_tensor(Shape{1500, 64});
  Tensor g = rng.normal_tensor(Shape{64});
  Tensor be = rng.normal_tensor(Shape{64});
  ops::LayerNormResult gold, par;
  {
    runtime::Scope scope(backend_patch(KernelBackend::kNaive));
    gold = ops::layernorm(a, g, be);
  }
  {
    runtime::Scope scope(backend_patch(KernelBackend::kParallel));
    par = ops::layernorm(a, g, be);
  }
  EXPECT_EQ(ops::max_abs_diff(gold.y, par.y), 0.0f);
  EXPECT_EQ(ops::max_abs_diff(gold.mean, par.mean), 0.0f);
  EXPECT_EQ(ops::max_abs_diff(gold.rstd, par.rstd), 0.0f);
}

TEST(KernelConfig, ParseAndRoundTrip) {
  EXPECT_EQ(parse_backend("naive"), KernelBackend::kNaive);
  EXPECT_EQ(parse_backend("blocked"), KernelBackend::kBlocked);
  EXPECT_EQ(parse_backend("parallel"), KernelBackend::kParallel);
  EXPECT_THROW(parse_backend("simd"), Error);
  EXPECT_STREQ(to_string(KernelBackend::kBlocked), "blocked");
}

TEST(KernelConfig, ScopeOverridesAndRestores) {
  const KernelConfig before = kernel_config();
  {
    runtime::Scope outer(
        runtime::ContextPatch::with_kernels({KernelBackend::kNaive, 2}));
    EXPECT_EQ(kernel_config().backend, KernelBackend::kNaive);
    EXPECT_EQ(kernel_config().threads, 2);
    {
      runtime::Scope inner(
          runtime::ContextPatch::with_kernels({KernelBackend::kBlocked, 0}));
      EXPECT_EQ(kernel_config().backend, KernelBackend::kBlocked);
    }
    EXPECT_EQ(kernel_config().backend, KernelBackend::kNaive);
  }
  EXPECT_EQ(kernel_config().backend, before.backend);
}

}  // namespace
}  // namespace dchag::tensor
