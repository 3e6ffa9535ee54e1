// Stateless tensor kernels. All functions return freshly-allocated tensors;
// inputs are never mutated. Elementwise binaries use numpy-style
// right-aligned broadcasting. A process-wide FLOP ledger instruments every
// GEMM so the analytic hw::FlopModel can be validated against executed
// kernels (tests/hw/flop_model_test.cpp).
//
// Every kernel dispatches on kernel_config() (naive | blocked | parallel);
// see tensor/kernel_config.hpp for the backend contract and env knobs.
// The GEMM entry points (matmul, linear_fused, gemm_items,
// attention_heads) share one per-product backend kernel (the naive loop or
// gemm.cpp's blocked micro-kernel) and fan out in ~1 MFLOP units; they
// differ only in how they lay out operands and in their epilogues. The
// elementwise and broadcast ops, permute, softmax, layernorm and sum_dim
// fan out through tensor/dispatch.hpp. Broadcast ops and permute merge
// the dimensions their operands walk evenly and then work in whole rows
// (a broadcast run, a memcpy, or cache tiles of a transpose), so their
// index math is per row, not per element.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "tensor/gemm.hpp"
#include "tensor/tensor.hpp"

namespace dchag::tensor::ops {

// ----- elementwise with broadcasting ---------------------------------------

Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);

Tensor scale(const Tensor& a, float s);
Tensor add_scalar(const Tensor& a, float s);
Tensor neg(const Tensor& a);

/// True if `b` broadcasts to `a` under right-aligned numpy rules.
bool broadcastable(const Shape& a, const Shape& b);

/// Sum `t` down to `target` shape by reducing the dimensions that were
/// broadcast (the adjoint of broadcasting; used by autograd backward).
Tensor reduce_to_shape(const Tensor& t, const Shape& target);

// ----- linear algebra -------------------------------------------------------

/// Batched matmul: a is [*, M, K]; b is [*, K, N] with identical leading
/// dims, or rank-2 [K, N] shared across the batch.
Tensor matmul(const Tensor& a, const Tensor& b);

// ----- fused serving kernels -------------------------------------------------
//
// Rowwise epilogues folded into the GEMM tail: each parallel row strip
// finishes complete output rows, so bias/activation/residual/layernorm
// run in the same task that produced them instead of separate ThreadPool
// fan-outs (and separate output tensors). Every stage reuses the exact
// scalar code of its standalone op, and residual addition only swaps the
// operand order of a commutative float add, so fused outputs are
// bit-identical to the unfused op chain — the parity suites assert this.

/// Optional tail stages of linear_fused, applied in declaration order:
/// bias add, GELU, residual add, layernorm.
struct LinearEpilogue {
  const Tensor* bias = nullptr;      ///< [N], broadcast over rows
  bool gelu = false;
  const Tensor* residual = nullptr;  ///< same shape as the output
  const Tensor* ln_gamma = nullptr;  ///< [N]; with ln_beta, layernorm tail
  const Tensor* ln_beta = nullptr;   ///< [N]
  float ln_eps = 1e-5f;
};

/// x [*, M, K] times shared w [K, N] with the epilogue fused into each
/// row strip. `packed` (from gemm::pack_b_matrix, matching w) removes
/// pack_b from the per-call path on the blocked/parallel backends; pass
/// nullptr to pack per call.
Tensor linear_fused(const Tensor& x, const Tensor& w,
                    const gemm::PackedB* packed, const LinearEpilogue& epi);

/// One product of gemm_items on strided rows: c[M,N] += a[M,K] * b[K,N].
struct GemmItem {
  const float* a = nullptr;
  Index lda = 0;
  const float* b = nullptr;
  Index ldb = 0;
  const gemm::PackedB* packed = nullptr;  ///< pack_b_matrix(b), or nullptr
  float* c = nullptr;  ///< zeroed on entry
  Index ldc = 0;
};

/// `items` independent [M,K] x [K,N] products, item(i) naming each one's
/// operands, written straight into the caller's (possibly strided)
/// output; epilogue(i, item) then runs on item i's finished rows in the
/// same task. Blocked/parallel multiply on `packed` panels when given
/// (the naive loop always reads b); kParallel fans out over items at the
/// ~1 MFLOP grain. Each item is bit-identical to a matmul/linear_fused
/// product of the same operands on the same backend, and the FLOP ledger
/// counts 2*M*N*K per item.
void gemm_items(Index items, Index M, Index N, Index K,
                const std::function<GemmItem(Index)>& item,
                const std::function<void(Index, const GemmItem&)>& epilogue);

/// Multi-head attention on projected, head-interleaved operands: q is
/// [*, Nq, D], k and v are [*, Nk, D], and head h owns columns
/// [h*dh, (h+1)*dh) with dh = D / heads. Returns the merged [*, Nq, D]
/// softmax(q_h k_hᵀ * s) v_h. Each head's rows are read and written in
/// place (row stride D), kᵀ comes from a transposing pack, and the score
/// rows live in per-thread scratch, so no split/merge copy is made.
/// Bit-identical, on every backend, to permuting the heads out, scale +
/// softmax over matmul(q_h, k_hᵀ), matmul with v_h and permuting back;
/// the FLOP ledger counts the same two products. kParallel fans out over
/// (item, head) units at the ~1 MFLOP grain.
Tensor attention_heads(const Tensor& q, const Tensor& k, const Tensor& v,
                       Index heads, float s);

Tensor transpose_last2(const Tensor& a);
Tensor permute(const Tensor& a, const std::vector<Index>& perm);

// ----- nonlinearities / normalisation ---------------------------------------

Tensor softmax_lastdim(const Tensor& a);
/// GELU with tanh approximation (matches the PyTorch default used by ViTs).
Tensor gelu(const Tensor& a);
Tensor gelu_grad(const Tensor& a);  // d gelu / d a, elementwise
Tensor relu(const Tensor& a);
Tensor exp(const Tensor& a);

struct LayerNormResult {
  Tensor y;     ///< normalised output (same shape as input)
  Tensor mean;  ///< per-row mean, shape = input shape without last dim
  Tensor rstd;  ///< per-row 1/std, same shape as mean
};
/// Layer norm over the last dimension; gamma/beta have shape [D].
LayerNormResult layernorm(const Tensor& a, const Tensor& gamma,
                          const Tensor& beta, float eps = 1e-5f);

/// Forward-only layer norm: the same kernel as layernorm() but without
/// materialising the mean/rstd tensors backward needs — the tape-free
/// serving path (three fresh tensors per call otherwise). Bit-identical y.
Tensor layernorm_value(const Tensor& a, const Tensor& gamma,
                       const Tensor& beta, float eps = 1e-5f);

// ----- shape manipulation ----------------------------------------------------

Tensor concat(std::span<const Tensor> ts, Index dim);
Tensor slice(const Tensor& a, Index dim, Index start, Index len);
/// Writes `src` into `dst` at offset `start` along `dim` (for backward of
/// slice / concat); mutates dst in place.
void add_slice_inplace(Tensor& dst, const Tensor& src, Index dim, Index start);

// ----- reductions ------------------------------------------------------------

Tensor sum_all(const Tensor& a);   // -> shape [1]
Tensor mean_all(const Tensor& a);  // -> shape [1]
Tensor sum_dim(const Tensor& a, Index dim);
Tensor mean_dim(const Tensor& a, Index dim);
/// Broadcast `a` (shape without `dim`) back across `dim` with `n` copies.
Tensor expand_dim(const Tensor& a, Index dim, Index n);

// ----- comparisons for tests -------------------------------------------------

/// Largest absolute elementwise difference; shapes must match.
float max_abs_diff(const Tensor& a, const Tensor& b);
bool allclose(const Tensor& a, const Tensor& b, float atol = 1e-5f,
              float rtol = 1e-4f);

// ----- FLOP ledger -----------------------------------------------------------

/// Cumulative multiply-add FLOPs (2*M*N*K per matmul) executed by this
/// process since the last reset. Thread-safe (rank threads all count).
std::uint64_t flops_executed();
void reset_flops();

}  // namespace dchag::tensor::ops
