// Cache-blocked single-precision GEMM: C += A * B on row-major buffers.
// BLIS-style loop structure — NC/KC/MC tiling with A packed into MR-row
// panels and B into NR-column panels, finished by an MR x NR register
// micro-kernel. This translation unit alone is compiled with AVX2+FMA
// when the toolchain supports it (see src/tensor/CMakeLists.txt);
// kernel_config.cpp gates dispatch on a runtime CPUID check so a binary
// built that way still runs (naive backend) on older x86-64.
//
// Determinism contract: for a fixed (M, N, K) the accumulation order of
// every C element is fixed — independent of how callers partition rows
// across threads — so the blocked and parallel backends are bit-identical.
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/align.hpp"
#include "tensor/shape.hpp"

namespace dchag::tensor::gemm {

/// C[M,N] += A[M,K] * B[K,N]; lda/ldb/ldc are row strides. Callers hand
/// in zeroed C for a plain product. Safe for any sizes >= 0, including
/// empty dimensions and shapes far from the tile sizes.
void gemm_blocked(Index M, Index N, Index K, const float* A, Index lda,
                  const float* B, Index ldb, float* C, Index ldc);

/// gemm_blocked with B supplied transposed: C[M,N] += A[M,K] * Btᵀ, where
/// Bt[N,K] has row stride ldbt. The transpose happens inside the B-panel
/// pack, so the result is bit-identical to gemm_blocked on a materialised
/// B = Btᵀ (attention's q·kᵀ reads k's rows in place this way).
void gemm_blocked_nt(Index M, Index N, Index K, const float* A, Index lda,
                     const float* Bt, Index ldbt, float* C, Index ldc);

/// A weight matrix's B-side panels, packed once ahead of serving so
/// pack_b leaves the per-call GEMM path entirely. The panel bytes are
/// exactly what gemm_blocked's per-call pack_b would produce for every
/// (jc, pc) cache block, stored back to back with an offset table, so
/// gemm_blocked_prepacked is bit-identical to gemm_blocked by
/// construction — same panels, same loop order, same micro-kernel.
struct PackedB {
  Index K = 0;
  Index N = 0;
  AlignedVec data;  ///< all (jc, pc) blocks, jc-major then pc
  std::vector<std::size_t> block_offset;  ///< [jc_blocks * pc_blocks]

  [[nodiscard]] bool matches(Index k, Index n) const {
    return K == k && N == n;
  }
};

/// Packs row-major B[K,N] (row stride ldb) into serving panels.
[[nodiscard]] PackedB pack_b_matrix(const float* B, Index K, Index N,
                                    Index ldb);

/// gemm_blocked with the B-side packing hoisted out: C[M,N] += A[M,K] *
/// B, where `pb` was produced by pack_b_matrix for this exact (K, N).
/// Bit-identical to gemm_blocked on the same operands.
void gemm_blocked_prepacked(Index M, const float* A, Index lda,
                            const PackedB& pb, float* C, Index ldc);

/// True when this TU was built with AVX2/FMA codegen (x86-64 only).
[[nodiscard]] bool compiled_with_avx2();

}  // namespace dchag::tensor::gemm
