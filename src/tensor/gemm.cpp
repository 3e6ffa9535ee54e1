#include "tensor/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "tensor/check.hpp"

#if defined(DCHAG_GEMM_AVX2)
#include <immintrin.h>
#endif

namespace dchag::tensor::gemm {

namespace {

// Tile sizes chosen for ~2 MB L2 parts: the packed B panel (KC x NC =
// 512 KB) and A panel (MC x KC = 120 KB) stay resident across the macro
// kernel. MC is a multiple of MR, NC a multiple of NR.
constexpr Index kMR = 6;
constexpr Index kNR = 16;
constexpr Index kMC = 120;
constexpr Index kKC = 256;
constexpr Index kNC = 512;

/// Packs A[i0:i0+mc, p0:p0+kc] into MR-row panels, k-major inside each
/// panel (a[k*MR + i]); rows past `mc` are zero so the micro-kernel never
/// branches on the M edge.
void pack_a(const float* A, Index lda, Index mc, Index kc, float* out) {
  for (Index i = 0; i < mc; i += kMR) {
    const Index mr = std::min(kMR, mc - i);
    for (Index k = 0; k < kc; ++k) {
      for (Index r = 0; r < mr; ++r) out[k * kMR + r] = A[(i + r) * lda + k];
      for (Index r = mr; r < kMR; ++r) out[k * kMR + r] = 0.0f;
    }
    out += kKC * kMR;
  }
}

/// Packs B[p0:p0+kc, j0:j0+nc] into NR-column panels (b[k*NR + j]);
/// columns past `nc` are zero.
void pack_b(const float* B, Index ldb, Index kc, Index nc, float* out) {
  for (Index j = 0; j < nc; j += kNR) {
    const Index nr = std::min(kNR, nc - j);
    for (Index k = 0; k < kc; ++k) {
      const float* row = B + k * ldb + j;
      for (Index c = 0; c < nr; ++c) out[k * kNR + c] = row[c];
      for (Index c = nr; c < kNR; ++c) out[k * kNR + c] = 0.0f;
    }
    out += kKC * kNR;
  }
}

/// pack_b for a B given as its transpose: Bt[j0:j0+nc, p0:p0+kc] (row
/// stride ldbt) holds B[p0:p0+kc, j0:j0+nc] column by column. The panels
/// hold the same floats in the same places as pack_b's, so a product on
/// them is bit-identical to one on a materialised transpose.
void pack_bt(const float* Bt, Index ldbt, Index kc, Index nc, float* out) {
  for (Index j = 0; j < nc; j += kNR) {
    const Index nr = std::min(kNR, nc - j);
    for (Index k = 0; k < kc; ++k) {
      for (Index c = 0; c < nr; ++c) out[k * kNR + c] = Bt[(j + c) * ldbt + k];
      for (Index c = nr; c < kNR; ++c) out[k * kNR + c] = 0.0f;
    }
    out += kKC * kNR;
  }
}

/// MR x NR register tile over one KC slice of packed panels; writes back
/// only the mr x nr valid corner. Per-element accumulation is strictly
/// k-ordered in both variants, which is what keeps the blocked and
/// parallel backends bit-identical.
#if defined(DCHAG_GEMM_AVX2)
void micro_kernel(Index kc, const float* a, const float* b, float* C,
                  Index ldc, Index mr, Index nr) {
  // 6 rows x 16 columns = 12 ymm accumulators; 2 loads + 6 broadcasts +
  // 12 FMAs per k.
  __m256 acc[kMR][2];
  for (Index i = 0; i < kMR; ++i) {
    acc[i][0] = _mm256_setzero_ps();
    acc[i][1] = _mm256_setzero_ps();
  }
  for (Index k = 0; k < kc; ++k) {
    const __m256 b0 = _mm256_loadu_ps(b + k * kNR);
    const __m256 b1 = _mm256_loadu_ps(b + k * kNR + 8);
    const float* ak = a + k * kMR;
    for (Index i = 0; i < kMR; ++i) {
      const __m256 av = _mm256_broadcast_ss(ak + i);
      acc[i][0] = _mm256_fmadd_ps(av, b0, acc[i][0]);
      acc[i][1] = _mm256_fmadd_ps(av, b1, acc[i][1]);
    }
  }
  if (mr == kMR && nr == kNR) {
    for (Index i = 0; i < kMR; ++i) {
      float* crow = C + i * ldc;
      _mm256_storeu_ps(crow, _mm256_add_ps(_mm256_loadu_ps(crow), acc[i][0]));
      _mm256_storeu_ps(crow + 8,
                       _mm256_add_ps(_mm256_loadu_ps(crow + 8), acc[i][1]));
    }
  } else {
    alignas(32) float buf[kMR][kNR];
    for (Index i = 0; i < kMR; ++i) {
      _mm256_store_ps(buf[i], acc[i][0]);
      _mm256_store_ps(buf[i] + 8, acc[i][1]);
    }
    for (Index i = 0; i < mr; ++i) {
      float* crow = C + i * ldc;
      for (Index j = 0; j < nr; ++j) crow[j] += buf[i][j];
    }
  }
}
#else
void micro_kernel(Index kc, const float* a, const float* b, float* C,
                  Index ldc, Index mr, Index nr) {
  float acc[kMR][kNR] = {};
  for (Index k = 0; k < kc; ++k) {
    const float* bk = b + k * kNR;
    const float* ak = a + k * kMR;
    for (Index i = 0; i < kMR; ++i) {
      const float av = ak[i];
      for (Index j = 0; j < kNR; ++j) acc[i][j] += av * bk[j];
    }
  }
  for (Index i = 0; i < mr; ++i) {
    float* crow = C + i * ldc;
    for (Index j = 0; j < nr; ++j) crow[j] += acc[i][j];
  }
}
#endif

}  // namespace

// Panel sizes are whole vector multiples, so MR/NR panel starts inside an
// aligned base stay aligned and the micro-kernel never straddles a vector
// boundary it didn't choose.
static_assert(kKC * kMR % 8 == 0, "A panel stride must be a whole ymm count");
static_assert(kKC * kNR % 8 == 0, "B panel stride must be a whole ymm count");

namespace {

/// Per-thread packing scratch, reused across calls (~632 KB once per
/// lane): small matmuls — attention's many [N, dh] panels — would
/// otherwise spend as long in the allocator as in the micro-kernel.
/// AlignedVec storage fixes the long-standing alignment bug here: the
/// panels the AVX2 micro-kernel streams over now start on a 32-byte
/// boundary instead of wherever std::vector's allocator landed.
float* thread_packed_a() {
  static thread_local AlignedVec packed_a(
      static_cast<std::size_t>(kMC * kKC));
  DCHAG_CHECK(is_aligned(packed_a.data()), "A pack scratch misaligned");
  return packed_a.data();
}

float* thread_packed_b() {
  static thread_local AlignedVec packed_b(
      static_cast<std::size_t>(kKC * kNC));
  DCHAG_CHECK(is_aligned(packed_b.data()), "B pack scratch misaligned");
  return packed_b.data();
}

/// Macro kernel over one packed (jc, pc) B block: shared tail of the
/// per-call and pre-packed entry points, so their loop order (and thus
/// every C element's accumulation order) can never drift apart.
void macro_kernel(Index M, Index nc, Index kc, const float* A, Index lda,
                  Index pc, const float* packed_b_block, float* C, Index ldc,
                  Index jc, float* packed_a) {
  for (Index ic = 0; ic < M; ic += kMC) {
    const Index mc = std::min(kMC, M - ic);
    pack_a(A + ic * lda + pc, lda, mc, kc, packed_a);
    for (Index jr = 0; jr < nc; jr += kNR) {
      const Index nr = std::min(kNR, nc - jr);
      const float* bp = packed_b_block + (jr / kNR) * kKC * kNR;
      for (Index ir = 0; ir < mc; ir += kMR) {
        const Index mr = std::min(kMR, mc - ir);
        const float* ap = packed_a + (ir / kMR) * kKC * kMR;
        micro_kernel(kc, ap, bp, C + (ic + ir) * ldc + jc + jr, ldc, mr, nr);
      }
    }
  }
}

/// The per-call packing loop of gemm_blocked and gemm_blocked_nt; only
/// the B-panel source differs between them.
template <bool kTransB>
void gemm_per_call(Index M, Index N, Index K, const float* A, Index lda,
                   const float* B, Index ldb, float* C, Index ldc) {
  if (M <= 0 || N <= 0 || K <= 0) return;
  float* packed_a = thread_packed_a();
  float* packed_b_buf = thread_packed_b();
  for (Index jc = 0; jc < N; jc += kNC) {
    const Index nc = std::min(kNC, N - jc);
    for (Index pc = 0; pc < K; pc += kKC) {
      const Index kc = std::min(kKC, K - pc);
      if constexpr (kTransB) {
        pack_bt(B + jc * ldb + pc, ldb, kc, nc, packed_b_buf);
      } else {
        pack_b(B + pc * ldb + jc, ldb, kc, nc, packed_b_buf);
      }
      macro_kernel(M, nc, kc, A, lda, pc, packed_b_buf, C, ldc, jc, packed_a);
    }
  }
}

}  // namespace

void gemm_blocked(Index M, Index N, Index K, const float* A, Index lda,
                  const float* B, Index ldb, float* C, Index ldc) {
  gemm_per_call<false>(M, N, K, A, lda, B, ldb, C, ldc);
}

void gemm_blocked_nt(Index M, Index N, Index K, const float* A, Index lda,
                     const float* Bt, Index ldbt, float* C, Index ldc) {
  gemm_per_call<true>(M, N, K, A, lda, Bt, ldbt, C, ldc);
}

PackedB pack_b_matrix(const float* B, Index K, Index N, Index ldb) {
  DCHAG_CHECK(K > 0 && N > 0, "pack_b_matrix needs K, N > 0, got " << K
                                                                   << ", "
                                                                   << N);
  PackedB pb;
  pb.K = K;
  pb.N = N;
  const Index pc_blocks = (K + kKC - 1) / kKC;
  const Index jc_blocks = (N + kNC - 1) / kNC;
  // Pass 1: exact offsets — edge jc blocks need fewer NR panels.
  pb.block_offset.resize(
      static_cast<std::size_t>(jc_blocks * pc_blocks));
  std::size_t total = 0;
  for (Index bj = 0; bj < jc_blocks; ++bj) {
    const Index nc = std::min(kNC, N - bj * kNC);
    const Index panels = (nc + kNR - 1) / kNR;
    const std::size_t block_floats =
        static_cast<std::size_t>(panels) * static_cast<std::size_t>(kKC * kNR);
    for (Index bp = 0; bp < pc_blocks; ++bp) {
      pb.block_offset[static_cast<std::size_t>(bj * pc_blocks + bp)] = total;
      total += block_floats;
    }
  }
  // Pass 2: pack every block with the same pack_b the per-call path uses
  // (zero-filled storage covers the k rows past an edge block's kc, which
  // the micro-kernel never reads).
  pb.data.assign(total, 0.0f);
  for (Index bj = 0; bj < jc_blocks; ++bj) {
    const Index jc = bj * kNC;
    const Index nc = std::min(kNC, N - jc);
    for (Index bp = 0; bp < pc_blocks; ++bp) {
      const Index pc = bp * kKC;
      const Index kc = std::min(kKC, K - pc);
      pack_b(B + pc * ldb + jc, ldb, kc, nc,
             pb.data.data() +
                 pb.block_offset[static_cast<std::size_t>(bj * pc_blocks +
                                                          bp)]);
    }
  }
  DCHAG_CHECK(is_aligned(pb.data.data()), "packed panels misaligned");
  return pb;
}

void gemm_blocked_prepacked(Index M, const float* A, Index lda,
                            const PackedB& pb, float* C, Index ldc) {
  const Index N = pb.N;
  const Index K = pb.K;
  if (M <= 0 || N <= 0 || K <= 0) return;
  float* packed_a = thread_packed_a();
  const Index pc_blocks = (K + kKC - 1) / kKC;
  for (Index jc = 0; jc < N; jc += kNC) {
    const Index nc = std::min(kNC, N - jc);
    const Index bj = jc / kNC;
    for (Index pc = 0; pc < K; pc += kKC) {
      const Index kc = std::min(kKC, K - pc);
      const float* block =
          pb.data.data() +
          pb.block_offset[static_cast<std::size_t>(bj * pc_blocks +
                                                   pc / kKC)];
      macro_kernel(M, nc, kc, A, lda, pc, block, C, ldc, jc, packed_a);
    }
  }
}

bool compiled_with_avx2() {
#if defined(DCHAG_GEMM_AVX2)
  return true;
#else
  return false;
#endif
}

}  // namespace dchag::tensor::gemm
