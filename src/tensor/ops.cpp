#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "tensor/dispatch.hpp"
#include "tensor/gemm.hpp"

namespace dchag::tensor::ops {

namespace {

std::atomic<std::uint64_t> g_flops{0};

/// Minimum elements per chunk for elementwise/reduction fan-out; ranges
/// below 2x this run serial even on the parallel backend (fork/join would
/// cost more than the loop).
constexpr Index kEwGrain = kDispatchGrain;

/// Right-aligned broadcast strides: pad `s` to rank `out_rank` and zero the
/// stride of every broadcast dimension.
std::vector<Index> broadcast_strides(const Shape& s, const Shape& out) {
  const Index out_rank = out.rank();
  const Index pad = out_rank - s.rank();
  std::vector<Index> strides(static_cast<std::size_t>(out_rank), 0);
  for (Index d = 0; d < s.rank(); ++d) {
    const Index od = d + pad;
    if (s.dim(d) == out.dim(od)) {
      strides[static_cast<std::size_t>(od)] = s.stride(d);
    } else {
      DCHAG_CHECK(s.dim(d) == 1, "cannot broadcast " << s.to_string()
                                                     << " to "
                                                     << out.to_string());
      strides[static_cast<std::size_t>(od)] = 0;
    }
  }
  return strides;
}

Shape broadcast_shape(const Shape& a, const Shape& b) {
  const Index rank = std::max(a.rank(), b.rank());
  std::vector<Index> dims(static_cast<std::size_t>(rank), 1);
  for (Index d = 0; d < rank; ++d) {
    const Index ad = d - (rank - a.rank());
    const Index bd = d - (rank - b.rank());
    const Index av = ad >= 0 ? a.dim(ad) : 1;
    const Index bv = bd >= 0 ? b.dim(bd) : 1;
    DCHAG_CHECK(av == bv || av == 1 || bv == 1,
                "incompatible broadcast " << a.to_string() << " vs "
                                          << b.to_string());
    // An extent of 1 stretches to the other side's, zero included.
    dims[static_cast<std::size_t>(d)] = av == 1 ? bv : av;
  }
  return Shape(std::move(dims));
}

/// An index space walked by two operands at once: `dims` outermost first,
/// and per dimension one stride into each operand (s0, s1).
struct Walk {
  std::vector<Index> dims;
  std::vector<Index> s0;
  std::vector<Index> s1;

  [[nodiscard]] Index rank() const { return static_cast<Index>(dims.size()); }

  /// The same walk without dimension `d`.
  [[nodiscard]] Walk without(Index d) const {
    Walk w = *this;
    const auto at = static_cast<std::ptrdiff_t>(d);
    w.dims.erase(w.dims.begin() + at);
    w.s0.erase(w.s0.begin() + at);
    w.s1.erase(w.s1.begin() + at);
    return w;
  }
};

/// The row-major walk of `out` (numel > 0) with operand strides s0/s1,
/// with extent-1 dimensions dropped and each dimension merged into the
/// one outside it wherever both operands step across the pair evenly. A
/// bias add over [B, S, D] becomes B·S rows of D; a permute that keeps
/// the last dimension last becomes rows to memcpy. A one-element space
/// is one dimension of extent 1 with unit strides.
Walk collapse(const Shape& out, const std::vector<Index>& s0,
              const std::vector<Index>& s1) {
  Walk w;
  for (Index d = 0; d < out.rank(); ++d) {
    const Index n = out.dim(d);
    if (n == 1) continue;
    const auto ud = static_cast<std::size_t>(d);
    if (!w.dims.empty() && w.s0.back() == s0[ud] * n &&
        w.s1.back() == s1[ud] * n) {
      w.dims.back() *= n;
      w.s0.back() = s0[ud];
      w.s1.back() = s1[ud];
    } else {
      w.dims.push_back(n);
      w.s0.push_back(s0[ud]);
      w.s1.push_back(s1[ud]);
    }
  }
  if (w.dims.empty()) w = Walk{{1}, {1}, {1}};
  return w;
}

/// Row-major odometer over a Walk, carrying the two operand offsets.
class Odometer {
 public:
  explicit Odometer(Walk w)
      : w_(std::move(w)), idx_(static_cast<std::size_t>(w_.rank()), 0) {}

  /// Moves to the `i`-th index of the walk.
  void seek(Index i) {
    o0_ = 0;
    o1_ = 0;
    for (Index d = w_.rank() - 1; d >= 0; --d) {
      const auto ud = static_cast<std::size_t>(d);
      idx_[ud] = i % w_.dims[ud];
      i /= w_.dims[ud];
      o0_ += idx_[ud] * w_.s0[ud];
      o1_ += idx_[ud] * w_.s1[ud];
    }
  }

  /// Moves to the next index (wrapping to the first after the last).
  void next() {
    for (Index d = w_.rank() - 1; d >= 0; --d) {
      const auto ud = static_cast<std::size_t>(d);
      o0_ += w_.s0[ud];
      o1_ += w_.s1[ud];
      if (++idx_[ud] < w_.dims[ud]) return;
      o0_ -= w_.s0[ud] * w_.dims[ud];
      o1_ -= w_.s1[ud] * w_.dims[ud];
      idx_[ud] = 0;
    }
  }

  [[nodiscard]] Index o0() const { return o0_; }
  [[nodiscard]] Index o1() const { return o1_; }

 private:
  Walk w_;
  std::vector<Index> idx_;
  Index o0_ = 0;
  Index o1_ = 0;
};

/// o[j] = f(a[j * IA], b[j * IB]) for one broadcast run; the unit-or-zero
/// strides are template arguments so each variant is a plain loop.
template <Index IA, Index IB, typename F>
void broadcast_run(float* o, const float* a, const float* b, Index n, F& f) {
  for (Index j = 0; j < n; ++j) o[j] = f(a[j * IA], b[j * IB]);
}

template <typename F>
Tensor binary_op(const Tensor& a, const Tensor& b, F&& f) {
  const float* pa = a.data();
  const float* pb = b.data();
  if (a.shape() == b.shape()) {  // fast path, no index math
    Tensor out(a.shape());
    float* po = out.data();
    dispatch_range(a.numel(), kEwGrain, [&](Index lo, Index hi) {
      for (Index i = lo; i < hi; ++i) po[i] = f(pa[i], pb[i]);
    });
    return out;
  }
  const Shape out_shape = broadcast_shape(a.shape(), b.shape());
  Tensor out(out_shape);
  const Index total = out_shape.numel();
  if (total == 0) return out;
  const Walk w = collapse(out_shape, broadcast_strides(a.shape(), out_shape),
                          broadcast_strides(b.shape(), out_shape));
  // The innermost dimension is the run: each operand's stride there is 1,
  // or 0 where it broadcasts (a contiguous operand's last kept dimension
  // has nothing but extent-1 dimensions inside it). Not both are 0: a
  // dimension both sides broadcast has extent 1 and was dropped.
  const Index n = w.dims.back();
  const Index ia = w.s0.back();
  const Index ib = w.s1.back();
  auto run = ia == 0   ? &broadcast_run<0, 1, F>
             : ib == 0 ? &broadcast_run<1, 0, F>
                       : &broadcast_run<1, 1, F>;
  const Walk rows = w.without(w.rank() - 1);
  float* po = out.data();
  // Element ranges, so a chunk may start or end inside a run.
  dispatch_range(total, kEwGrain, [&](Index lo, Index hi) {
    Odometer it(rows);
    it.seek(lo / n);
    for (Index col = lo % n; lo < hi; col = 0) {
      const Index len = std::min(n - col, hi - lo);
      run(po + lo, pa + it.o0() + col * ia, pb + it.o1() + col * ib, len, f);
      lo += len;
      it.next();
    }
  });
  return out;
}

template <typename F>
Tensor unary_op(const Tensor& a, F&& f) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  dispatch_range(a.numel(), kEwGrain, [&](Index lo, Index hi) {
    for (Index i = lo; i < hi; ++i) po[i] = f(pa[i]);
  });
  return out;
}

// Shared scalar/row kernels: the standalone ops and the fused GEMM-tail
// epilogues both call these, which is what makes fused == unfused an
// identity at the bit level rather than a tolerance.

constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)

inline float gelu_scalar(float x) {
  return 0.5f * x * (1.0f + std::tanh(kGeluC * (x + 0.044715f * x * x * x)));
}

/// One softmax row; orow may alias row (the fused in-place case).
inline void softmax_row(const float* row, float* orow, Index D) {
  float mx = row[0];
  for (Index j = 1; j < D; ++j) mx = std::max(mx, row[j]);
  float sum = 0.0f;
  for (Index j = 0; j < D; ++j) {
    orow[j] = std::exp(row[j] - mx);
    sum += orow[j];
  }
  const float inv = 1.0f / sum;
  for (Index j = 0; j < D; ++j) orow[j] *= inv;
}

/// One layernorm row; yrow may alias row. mean/rstd sinks are optional.
inline void ln_row(const float* row, float* yrow, Index D, const float* g,
                   const float* b, float eps, float* mean_out,
                   float* rstd_out) {
  float m = 0.0f;
  for (Index j = 0; j < D; ++j) m += row[j];
  m /= static_cast<float>(D);
  float v = 0.0f;
  for (Index j = 0; j < D; ++j) {
    const float d = row[j] - m;
    v += d * d;
  }
  v /= static_cast<float>(D);
  const float rs = 1.0f / std::sqrt(v + eps);
  if (mean_out != nullptr) *mean_out = m;
  if (rstd_out != nullptr) *rstd_out = rs;
  for (Index j = 0; j < D; ++j) yrow[j] = (row[j] - m) * rs * g[j] + b[j];
}

/// The row loop behind layernorm and layernorm_value; the per-row
/// mean/rstd sinks are optional.
void layernorm_rows(const Tensor& a, const Tensor& gamma, const Tensor& beta,
                    float eps, float* y, float* mean, float* rstd) {
  const Index D = a.dim(-1);
  DCHAG_CHECK(gamma.shape() == Shape{D} && beta.shape() == Shape{D},
              "layernorm gamma/beta must be [" << D << "]");
  const Index rows = a.numel() / D;
  const float* p = a.data();
  const float* g = gamma.data();
  const float* b = beta.data();
  dispatch_range(rows, std::max<Index>(1, kEwGrain / std::max<Index>(1, D)),
                 [&](Index lo, Index hi) {
                   for (Index i = lo; i < hi; ++i)
                     ln_row(p + i * D, y + i * D, D, g, b, eps,
                            mean != nullptr ? mean + i : nullptr,
                            rstd != nullptr ? rstd + i : nullptr);
                 });
}

/// Operand layout of one GEMM call: `batch` products C_b[M,N] += A_b[M,K] *
/// B_b[K,N], each operand stored back to back. A B shared by the whole
/// batch is one flat product (batch == 1, M == every A row).
struct GemmDims {
  Index batch = 1;
  Index M = 0;
  Index K = 0;
  Index N = 0;
};

/// The shape checks every GEMM entry point shares: a is [*, M, K]; b is
/// [*, K, N] with identical leading dims, or rank-2 [K, N] shared across
/// the batch. `op` names the caller in error messages.
GemmDims matmul_dims(const char* op, const Tensor& a, const Tensor& b) {
  DCHAG_CHECK(a.rank() >= 2 && b.rank() >= 2,
              op << " ranks " << a.rank() << ", " << b.rank());
  const Index K = a.dim(-1);
  DCHAG_CHECK(K == b.dim(-2), op << " inner dims " << a.shape().to_string()
                                 << " x " << b.shape().to_string());
  Index batch = 1;
  for (Index d = 0; d < a.rank() - 2; ++d) batch *= a.dim(d);
  if (b.rank() == 2) return {1, batch * a.dim(-2), K, b.dim(-1)};
  DCHAG_CHECK(a.rank() == b.rank(), op << " batch rank mismatch");
  for (Index d = 0; d < a.rank() - 2; ++d)
    DCHAG_CHECK(a.dim(d) == b.dim(d), op << " batch dims "
                                         << a.shape().to_string() << " x "
                                         << b.shape().to_string());
  return {batch, a.dim(-2), K, b.dim(-1)};
}

/// The naive backend's product C[M,N] += A[M,K] * B: k-ascending per
/// element, zero A entries skipped. B(k, j) is B[k*ldb + j], or, with
/// kTransB, B[j*ldb + k] — a transpose read in place.
template <bool kTransB = false>
void naive_gemm(Index M, Index N, Index K, const float* A, Index lda,
                const float* B, Index ldb, float* C, Index ldc) {
  for (Index i = 0; i < M; ++i) {
    const float* arow = A + i * lda;
    float* crow = C + i * ldc;
    for (Index k = 0; k < K; ++k) {
      const float av = arow[k];
      if (av == 0.0f) continue;
      if constexpr (kTransB) {
        for (Index j = 0; j < N; ++j) crow[j] += av * B[j * ldb + k];
      } else {
        const float* brow = B + k * ldb;
        for (Index j = 0; j < N; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

/// One product C[M,N] += A[M,K] * B[K,N] on the calling thread with
/// `backend`'s kernel. `packed` (pack_b_matrix of B) replaces B's per-call
/// pack on the blocked kernels; the naive loop always reads B.
void gemm_one(KernelBackend backend, Index M, Index N, Index K,
              const float* A, Index lda, const float* B, Index ldb,
              const gemm::PackedB* packed, float* C, Index ldc) {
  if (backend == KernelBackend::kNaive) {
    naive_gemm(M, N, K, A, lda, B, ldb, C, ldc);
  } else if (packed != nullptr) {
    gemm::gemm_blocked_prepacked(M, A, lda, *packed, C, ldc);
  } else {
    gemm::gemm_blocked(M, N, K, A, lda, B, ldb, C, ldc);
  }
}

/// Work units per parallel chunk so that a chunk does >= ~1 MFLOP and
/// fork/join stays in the noise.
Index flop_grain(Index flops_per_unit) {
  return std::max<Index>(1, (1 << 20) / std::max<Index>(1, flops_per_unit));
}

/// Splits [0, n) over the pool on kParallel, else runs fn(0, n) inline.
template <typename F>
void fan_out(const KernelConfig& cfg, Index n, Index grain, F&& fn) {
  if (cfg.backend == KernelBackend::kParallel) {
    ThreadPool::global().parallel_for(n, grain, std::forward<F>(fn),
                                      cfg.threads);
  } else {
    fn(Index{0}, n);
  }
}

void count_flops(Index products, Index M, Index N, Index K) {
  g_flops.fetch_add(static_cast<std::uint64_t>(2) *
                        static_cast<std::uint64_t>(products) *
                        static_cast<std::uint64_t>(M) *
                        static_cast<std::uint64_t>(N) *
                        static_cast<std::uint64_t>(K),
                    std::memory_order_relaxed);
}

/// The GEMM driver behind matmul and linear_fused: C (zeroed) += A * B
/// over the flattened [batch*M] row space on the active backend, then
/// `epilogue(r0, r1)` on every finished row range. `packed` (matching a
/// shared B) replaces the per-call pack_b on the blocked/parallel
/// backends. Row splits never change any C element's accumulation order
/// (gemm.hpp), so strips may cross batch edges and kBlocked and kParallel
/// are bit-identical at every lane count.
template <typename Epilogue>
void gemm_rows(const GemmDims& d, const float* A, const float* B,
               const gemm::PackedB* packed, float* C, Epilogue&& epilogue) {
  const Index rows = d.batch * d.M;
  const Index K = d.K;
  const Index N = d.N;
  const KernelConfig cfg = kernel_config();
  auto run_rows = [&](Index r0, Index r1) {
    for (Index r = r0; r < r1;) {
      const Index bi = r / d.M;
      const Index n = std::min(r1, (bi + 1) * d.M) - r;
      gemm_one(cfg.backend, n, N, K, A + r * K, K, B + bi * K * N, N, packed,
               C + r * N, N);
      r += n;
    }
    epilogue(r0, r1);
  };
  fan_out(cfg, rows, flop_grain(2 * N * K), run_rows);
  count_flops(rows, 1, N, K);
}

/// Per-thread score rows of attention_heads, grown on demand and then
/// reused, so a warmed serving forward allocates nothing for them.
float* attention_scratch(Index n) {
  static thread_local std::vector<float> buf;
  if (static_cast<Index>(buf.size()) < n)
    buf.resize(static_cast<std::size_t>(n));
  return buf.data();
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, std::plus<float>());
}
Tensor sub(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, std::minus<float>());
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, std::multiplies<float>());
}
Tensor div(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, std::divides<float>());
}

Tensor scale(const Tensor& a, float s) {
  return unary_op(a, [s](float x) { return x * s; });
}
Tensor add_scalar(const Tensor& a, float s) {
  return unary_op(a, [s](float x) { return x + s; });
}
Tensor neg(const Tensor& a) {
  return unary_op(a, [](float x) { return -x; });
}

bool broadcastable(const Shape& a, const Shape& b) {
  if (b.rank() > a.rank()) return false;
  for (Index d = 0; d < b.rank(); ++d) {
    const Index ad = a.rank() - b.rank() + d;
    if (b.dim(d) != a.dim(ad) && b.dim(d) != 1) return false;
  }
  return true;
}

Tensor reduce_to_shape(const Tensor& t, const Shape& target) {
  if (t.shape() == target) return t;
  // Reduce leading extra dims, then any interior broadcast (==1) dims.
  Tensor cur = t;
  while (cur.rank() > target.rank()) {
    // fold dim 0 into the rest by summation
    Tensor folded(cur.shape().without_dim(0));
    const Index n0 = cur.dim(0);
    const Index rest = folded.numel();
    const float* p = cur.data();
    float* o = folded.data();
    for (Index i = 0; i < n0; ++i)
      for (Index j = 0; j < rest; ++j) o[j] += p[i * rest + j];
    cur = folded;
  }
  for (Index d = 0; d < target.rank(); ++d) {
    if (cur.dim(d) != target.dim(d)) {
      DCHAG_CHECK(target.dim(d) == 1, "reduce_to_shape "
                                          << t.shape().to_string() << " -> "
                                          << target.to_string());
      Tensor summed = sum_dim(cur, d);
      // sum_dim removes the dim; re-insert it with extent 1
      auto dims = summed.shape().dims();
      dims.insert(dims.begin() + static_cast<std::ptrdiff_t>(d), 1);
      cur = summed.reshape(Shape(std::move(dims)));
    }
  }
  return cur;
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  const GemmDims d = matmul_dims("matmul", a, b);
  Tensor out(a.shape().with_dim(-1, d.N));
  gemm_rows(d, a.data(), b.data(), nullptr, out.data(), [](Index, Index) {});
  return out;
}

Tensor linear_fused(const Tensor& x, const Tensor& w,
                    const gemm::PackedB* packed, const LinearEpilogue& epi) {
  DCHAG_CHECK(w.rank() == 2,
              "linear_fused ranks " << x.rank() << ", " << w.rank());
  const GemmDims d = matmul_dims("linear_fused", x, w);
  const Index N = d.N;
  DCHAG_CHECK(packed == nullptr || packed->matches(d.K, N),
              "packed panels are for [" << (packed ? packed->K : 0) << ", "
                                        << (packed ? packed->N : 0)
                                        << "], weight is [" << d.K << ", "
                                        << N << "]");
  Tensor out(x.shape().with_dim(-1, N));
  if (epi.bias != nullptr)
    DCHAG_CHECK(epi.bias->shape() == Shape{N}, "fused bias must be [" << N
                                                                      << "]");
  if (epi.residual != nullptr)
    DCHAG_CHECK(epi.residual->shape() == out.shape(),
                "fused residual shape " << epi.residual->shape().to_string());
  const bool has_ln = epi.ln_gamma != nullptr;
  if (has_ln)
    DCHAG_CHECK(epi.ln_beta != nullptr &&
                    epi.ln_gamma->shape() == Shape{N} &&
                    epi.ln_beta->shape() == Shape{N},
                "fused layernorm gamma/beta must be [" << N << "]");

  const float* pbias = epi.bias ? epi.bias->data() : nullptr;
  const float* pres = epi.residual ? epi.residual->data() : nullptr;
  const float* pg = has_ln ? epi.ln_gamma->data() : nullptr;
  const float* pb = has_ln ? epi.ln_beta->data() : nullptr;
  float* po = out.data();

  // Each stage repeats its standalone op's scalar code on a completed
  // row; residual order (value + residual) is the bitwise-equal mirror of
  // the unfused add(residual, value).
  gemm_rows(d, x.data(), w.data(), packed, po, [&](Index r0, Index r1) {
    for (Index r = r0; r < r1; ++r) {
      float* crow = po + r * N;
      if (pbias != nullptr)
        for (Index j = 0; j < N; ++j) crow[j] = crow[j] + pbias[j];
      if (epi.gelu)
        for (Index j = 0; j < N; ++j) crow[j] = gelu_scalar(crow[j]);
      if (pres != nullptr) {
        const float* rrow = pres + r * N;
        for (Index j = 0; j < N; ++j) crow[j] = crow[j] + rrow[j];
      }
      if (has_ln) ln_row(crow, crow, N, pg, pb, epi.ln_eps, nullptr, nullptr);
    }
  });
  return out;
}

void gemm_items(Index items, Index M, Index N, Index K,
                const std::function<GemmItem(Index)>& item,
                const std::function<void(Index, const GemmItem&)>& epilogue) {
  if (items <= 0 || M <= 0 || N <= 0) return;
  const KernelConfig cfg = kernel_config();
  fan_out(cfg, items, flop_grain(2 * M * N * K), [&](Index lo, Index hi) {
    for (Index i = lo; i < hi; ++i) {
      const GemmItem g = item(i);
      DCHAG_CHECK(g.packed == nullptr || g.packed->matches(K, N),
                  "gemm_items: packed panels are for ["
                      << g.packed->K << ", " << g.packed->N
                      << "], item is [" << K << ", " << N << "]");
      gemm_one(cfg.backend, M, N, K, g.a, g.lda, g.b, g.ldb, g.packed, g.c,
               g.ldc);
      epilogue(i, g);
    }
  });
  count_flops(items, M, N, K);
}

Tensor attention_heads(const Tensor& q, const Tensor& k, const Tensor& v,
                       Index heads, float s) {
  DCHAG_CHECK(q.rank() >= 2 && k.rank() == q.rank() && k.shape() == v.shape(),
              "attention_heads shapes " << q.shape().to_string() << ", "
                                        << k.shape().to_string() << ", "
                                        << v.shape().to_string());
  const Index rank = q.rank();
  const Index D = q.dim(-1);
  const Index Nq = q.dim(-2);
  const Index Nk = k.dim(-2);
  DCHAG_CHECK(k.dim(-1) == D && heads > 0 && D % heads == 0,
              "attention_heads: width " << D << " (k " << k.dim(-1)
                                        << ") over " << heads << " heads");
  Index items = 1;
  for (Index d = 0; d < rank - 2; ++d) {
    DCHAG_CHECK(q.dim(d) == k.dim(d),
                "attention_heads batch dims " << q.shape().to_string()
                                              << " vs "
                                              << k.shape().to_string());
    items *= q.dim(d);
  }
  const Index dh = D / heads;
  Tensor out(q.shape());
  if (items == 0 || Nq == 0) return out;
  DCHAG_CHECK(Nk > 0, "attention_heads over zero keys");
  const float* pq = q.data();
  const float* pk = k.data();
  const float* pv = v.data();
  float* po = out.data();
  const KernelConfig cfg = kernel_config();
  const bool naive = cfg.backend == KernelBackend::kNaive;
  // One unit = one (item, head): its Nq x Nk scores live in per-thread
  // scratch; q, k, v and the output are read and written in place at row
  // stride D, column offset h * dh.
  auto run = [&](Index lo, Index hi) {
    float* scores = attention_scratch(Nq * Nk);
    for (Index u = lo; u < hi; ++u) {
      const Index off = u % heads * dh;
      const float* qh = pq + u / heads * Nq * D + off;
      const float* kh = pk + u / heads * Nk * D + off;
      const float* vh = pv + u / heads * Nk * D + off;
      float* oh = po + u / heads * Nq * D + off;
      std::fill(scores, scores + Nq * Nk, 0.0f);
      if (naive) {
        naive_gemm<true>(Nq, Nk, dh, qh, D, kh, D, scores, Nk);
      } else {
        gemm::gemm_blocked_nt(Nq, Nk, dh, qh, D, kh, D, scores, Nk);
      }
      // ops::scale then ops::softmax_lastdim's scalar code, row by row.
      for (Index r = 0; r < Nq; ++r) {
        float* row = scores + r * Nk;
        for (Index j = 0; j < Nk; ++j) row[j] = row[j] * s;
        softmax_row(row, row, Nk);
      }
      gemm_one(cfg.backend, Nq, dh, Nk, scores, Nk, vh, D, nullptr, oh, D);
    }
  };
  fan_out(cfg, items * heads, flop_grain(4 * Nq * Nk * dh), run);
  count_flops(items * heads, Nq, Nk, dh);  // scores
  count_flops(items * heads, Nq, dh, Nk);  // P * V
  return out;
}

Tensor transpose_last2(const Tensor& a) {
  DCHAG_CHECK(a.rank() >= 2, "transpose_last2 rank " << a.rank());
  std::vector<Index> perm(static_cast<std::size_t>(a.rank()));
  for (Index d = 0; d < a.rank(); ++d) perm[static_cast<std::size_t>(d)] = d;
  std::swap(perm[static_cast<std::size_t>(a.rank() - 2)],
            perm[static_cast<std::size_t>(a.rank() - 1)]);
  return permute(a, perm);
}

Tensor permute(const Tensor& a, const std::vector<Index>& perm) {
  const Index rank = a.rank();
  DCHAG_CHECK(static_cast<Index>(perm.size()) == rank,
              "permute rank mismatch");
  std::vector<Index> out_dims(static_cast<std::size_t>(rank));
  std::vector<Index> src_strides(static_cast<std::size_t>(rank));
  std::vector<bool> seen(static_cast<std::size_t>(rank), false);
  for (Index d = 0; d < rank; ++d) {
    const Index s = perm[static_cast<std::size_t>(d)];
    DCHAG_CHECK(s >= 0 && s < rank && !seen[static_cast<std::size_t>(s)],
                "invalid permutation");
    seen[static_cast<std::size_t>(s)] = true;
    out_dims[static_cast<std::size_t>(d)] = a.dim(s);
    src_strides[static_cast<std::size_t>(d)] = a.shape().stride(s);
  }
  const Shape out_shape{std::vector<Index>(out_dims)};
  Tensor out(out_shape);
  if (out_shape.numel() == 0) return out;
  std::vector<Index> out_strides(static_cast<std::size_t>(rank));
  for (Index d = 0; d < rank; ++d)
    out_strides[static_cast<std::size_t>(d)] = out_shape.stride(d);
  // s0 reads the source, s1 writes the output.
  const Walk w = collapse(out_shape, src_strides, out_strides);
  const Index last = w.rank() - 1;
  const Index n = w.dims.back();
  const float* p = a.data();
  float* po = out.data();
  if (w.s0.back() == 1) {
    // The last dimension stays last: output row r is one contiguous run
    // of the source.
    const Walk rows = w.without(last);
    dispatch_range(out_shape.numel() / n,
                   std::max<Index>(1, kEwGrain / n), [&](Index lo, Index hi) {
                     Odometer it(rows);
                     it.seek(lo);
                     for (Index r = lo; r < hi; ++r, it.next())
                       std::memcpy(po + r * n, p + it.o0(),
                                   static_cast<std::size_t>(n) * sizeof(float));
                   });
    return out;
  }
  // The last dimension moves: the source's contiguous dimension c (its
  // innermost one of extent > 1, stride 1) lands elsewhere in the
  // output. Every (c, last) plane is a transpose, copied
  // through kTile x kTile tiles so both sides stay in cache; the units of
  // work are kTile-row strips of c in every plane.
  constexpr Index kTile = 32;
  const Index c = static_cast<Index>(
      std::find(w.s0.begin(), w.s0.end(), Index{1}) - w.s0.begin());
  const Index nc = w.dims[static_cast<std::size_t>(c)];
  const Index src_step = w.s0.back();
  const Index out_step = w.s1[static_cast<std::size_t>(c)];
  const Index strips = (nc + kTile - 1) / kTile;
  const Walk planes = w.without(last).without(c);
  dispatch_range(
      out_shape.numel() / (nc * n) * strips,
      std::max<Index>(1, kEwGrain / (kTile * n)), [&](Index lo, Index hi) {
        Odometer it(planes);
        it.seek(lo / strips);
        for (Index u = lo; u < hi; ++u) {
          if (u != lo && u % strips == 0) it.next();
          const float* src = p + it.o0();
          float* dst = po + it.o1();
          const Index i0 = u % strips * kTile;
          const Index i1 = std::min(nc, i0 + kTile);
          for (Index j0 = 0; j0 < n; j0 += kTile) {
            const Index j1 = std::min(n, j0 + kTile);
            for (Index i = i0; i < i1; ++i)
              for (Index j = j0; j < j1; ++j)
                dst[i * out_step + j] = src[i + j * src_step];
          }
        }
      });
  return out;
}

Tensor softmax_lastdim(const Tensor& a) {
  const Index D = a.dim(-1);
  const Index rows = a.numel() / D;
  Tensor out(a.shape());
  const float* p = a.data();
  float* o = out.data();
  dispatch_range(rows, std::max<Index>(1, kEwGrain / std::max<Index>(1, D)),
                 [&](Index lo, Index hi) {
                   for (Index r = lo; r < hi; ++r)
                     softmax_row(p + r * D, o + r * D, D);
                 });
  return out;
}

Tensor gelu(const Tensor& a) {
  return unary_op(a, [](float x) { return gelu_scalar(x); });
}

Tensor gelu_grad(const Tensor& a) {
  return unary_op(a, [](float x) {
    const float x3 = x * x * x;
    const float u = kGeluC * (x + 0.044715f * x3);
    const float t = std::tanh(u);
    const float sech2 = 1.0f - t * t;
    const float du = kGeluC * (1.0f + 3.0f * 0.044715f * x * x);
    return 0.5f * (1.0f + t) + 0.5f * x * sech2 * du;
  });
}

Tensor relu(const Tensor& a) {
  return unary_op(a, [](float x) { return x > 0.0f ? x : 0.0f; });
}

Tensor exp(const Tensor& a) {
  return unary_op(a, [](float x) { return std::exp(x); });
}

LayerNormResult layernorm(const Tensor& a, const Tensor& gamma,
                          const Tensor& beta, float eps) {
  LayerNormResult r{Tensor(a.shape()), Tensor(a.shape().without_dim(-1)),
                    Tensor(a.shape().without_dim(-1))};
  layernorm_rows(a, gamma, beta, eps, r.y.data(), r.mean.data(),
                 r.rstd.data());
  return r;
}

Tensor layernorm_value(const Tensor& a, const Tensor& gamma,
                       const Tensor& beta, float eps) {
  Tensor y(a.shape());
  layernorm_rows(a, gamma, beta, eps, y.data(), nullptr, nullptr);
  return y;
}

Tensor concat(std::span<const Tensor> ts, Index dim) {
  DCHAG_CHECK(!ts.empty(), "concat of zero tensors");
  const Index rank = ts[0].rank();
  const Index d = dim >= 0 ? dim : dim + rank;
  Index total = 0;
  for (const Tensor& t : ts) {
    DCHAG_CHECK(t.rank() == rank, "concat rank mismatch");
    for (Index k = 0; k < rank; ++k) {
      if (k != d)
        DCHAG_CHECK(t.dim(k) == ts[0].dim(k),
                    "concat dim mismatch at " << k << ": "
                                              << t.shape().to_string());
    }
    total += t.dim(d);
  }
  Shape out_shape = ts[0].shape().with_dim(d, total);
  Tensor out(out_shape);
  Index outer = 1;
  for (Index k = 0; k < d; ++k) outer *= out_shape.dim(k);
  const Index inner = out_shape.stride(d);
  float* po = out.data();
  const Index out_block = total * inner;
  Index off = 0;
  for (const Tensor& t : ts) {
    const Index blk = t.dim(d) * inner;
    const float* p = t.data();
    for (Index i = 0; i < outer; ++i) {
      std::memcpy(po + i * out_block + off, p + i * blk,
                  static_cast<std::size_t>(blk) * sizeof(float));
    }
    off += blk;
  }
  return out;
}

Tensor slice(const Tensor& a, Index dim, Index start, Index len) {
  const Index rank = a.rank();
  const Index d = dim >= 0 ? dim : dim + rank;
  DCHAG_CHECK(start >= 0 && len >= 0 && start + len <= a.dim(d),
              "slice(" << d << ", " << start << ", " << len << ") on "
                       << a.shape().to_string());
  Shape out_shape = a.shape().with_dim(d, len);
  Tensor out(out_shape);
  Index outer = 1;
  for (Index k = 0; k < d; ++k) outer *= a.dim(k);
  const Index inner = a.shape().stride(d);
  const Index in_block = a.dim(d) * inner;
  const Index out_block = len * inner;
  const float* p = a.data();
  float* po = out.data();
  for (Index i = 0; i < outer; ++i) {
    std::memcpy(po + i * out_block, p + i * in_block + start * inner,
                static_cast<std::size_t>(out_block) * sizeof(float));
  }
  return out;
}

void add_slice_inplace(Tensor& dst, const Tensor& src, Index dim,
                       Index start) {
  const Index rank = dst.rank();
  const Index d = dim >= 0 ? dim : dim + rank;
  DCHAG_CHECK(src.rank() == rank, "add_slice rank mismatch");
  DCHAG_CHECK(start + src.dim(d) <= dst.dim(d), "add_slice out of range");
  Index outer = 1;
  for (Index k = 0; k < d; ++k) outer *= dst.dim(k);
  const Index inner = dst.shape().stride(d);
  const Index dst_block = dst.dim(d) * inner;
  const Index src_block = src.dim(d) * inner;
  const float* p = src.data();
  float* po = dst.data();
  for (Index i = 0; i < outer; ++i) {
    float* drow = po + i * dst_block + start * inner;
    const float* srow = p + i * src_block;
    for (Index j = 0; j < src_block; ++j) drow[j] += srow[j];
  }
}

Tensor sum_all(const Tensor& a) {
  double s = 0.0;  // accumulate in double: loss sums over many elements
  for (float x : a.span()) s += x;
  return Tensor::scalar(static_cast<float>(s));
}

Tensor mean_all(const Tensor& a) {
  return scale(sum_all(a), 1.0f / static_cast<float>(a.numel()));
}

Tensor sum_dim(const Tensor& a, Index dim) {
  const Index rank = a.rank();
  const Index d = dim >= 0 ? dim : dim + rank;
  Shape out_shape = a.shape().without_dim(d);
  Tensor out(out_shape);
  Index outer = 1;
  for (Index k = 0; k < d; ++k) outer *= a.dim(k);
  const Index nd = a.dim(d);
  const Index inner = a.shape().stride(d);
  const float* p = a.data();
  float* po = out.data();
  // Fan out over whichever loop is actually wide: `outer` collapses to 1
  // for dim-0 reductions (the broadcast-gradient case), so split the
  // inner (kept-column) range instead there. Either split preserves each
  // output element's k-ascending accumulation order.
  const Index outer_grain =
      std::max<Index>(1, kEwGrain / std::max<Index>(1, nd * inner));
  if (outer >= 2 * outer_grain) {
    dispatch_range(outer, outer_grain, [&](Index lo, Index hi) {
      for (Index i = lo; i < hi; ++i) {
        const float* blk = p + i * nd * inner;
        float* orow = po + i * inner;
        for (Index k = 0; k < nd; ++k) {
          const float* srow = blk + k * inner;
          for (Index j = 0; j < inner; ++j) orow[j] += srow[j];
        }
      }
    });
  } else {
    const Index col_grain = std::max<Index>(1, kEwGrain / std::max<Index>(1, nd));
    dispatch_range(inner, col_grain, [&](Index jlo, Index jhi) {
      for (Index i = 0; i < outer; ++i) {
        const float* blk = p + i * nd * inner;
        float* orow = po + i * inner;
        for (Index k = 0; k < nd; ++k) {
          const float* srow = blk + k * inner;
          for (Index j = jlo; j < jhi; ++j) orow[j] += srow[j];
        }
      }
    });
  }
  return out;
}

Tensor mean_dim(const Tensor& a, Index dim) {
  const Index d = dim >= 0 ? dim : dim + a.rank();
  return scale(sum_dim(a, d), 1.0f / static_cast<float>(a.dim(d)));
}

Tensor expand_dim(const Tensor& a, Index dim, Index n) {
  const Index rank = a.rank() + 1;
  const Index d = dim >= 0 ? dim : dim + rank;
  auto dims = a.shape().dims();
  dims.insert(dims.begin() + static_cast<std::ptrdiff_t>(d), n);
  Shape out_shape{std::vector<Index>(dims)};
  Tensor out(out_shape);
  Index outer = 1;
  for (Index k = 0; k < d; ++k) outer *= a.dim(k);
  const Index inner = a.numel() / outer;
  const float* p = a.data();
  float* po = out.data();
  for (Index i = 0; i < outer; ++i) {
    for (Index k = 0; k < n; ++k) {
      std::memcpy(po + (i * n + k) * inner, p + i * inner,
                  static_cast<std::size_t>(inner) * sizeof(float));
    }
  }
  return out;
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  DCHAG_CHECK(a.shape() == b.shape(), "max_abs_diff shape mismatch "
                                          << a.shape().to_string() << " vs "
                                          << b.shape().to_string());
  float m = 0.0f;
  const float* pa = a.data();
  const float* pb = b.data();
  for (Index i = 0; i < a.numel(); ++i)
    m = std::max(m, std::abs(pa[i] - pb[i]));
  return m;
}

bool allclose(const Tensor& a, const Tensor& b, float atol, float rtol) {
  if (a.shape() != b.shape()) return false;
  const float* pa = a.data();
  const float* pb = b.data();
  for (Index i = 0; i < a.numel(); ++i) {
    const float diff = std::abs(pa[i] - pb[i]);
    if (diff > atol + rtol * std::abs(pb[i])) return false;
  }
  return true;
}

std::uint64_t flops_executed() {
  return g_flops.load(std::memory_order_relaxed);
}
void reset_flops() { g_flops.store(0, std::memory_order_relaxed); }

}  // namespace dchag::tensor::ops
