// Broadcast elementwise ops and permute against a reference that maps
// every output element to its inputs with its own index math, compared
// byte for byte: the row kernels merge dimensions, run whole rows, tile
// transposes and split work mid-row on the parallel backend, and none of
// that may change a single output bit. Shapes are seeded and cover ranks
// 1-5, zero and unit extents, broadcasting on either side or both, and
// leading padding; every permutation up to rank 4 is checked. Each case
// runs on naive, blocked and parallel at 1 and 3 lanes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <numeric>

#include "tensor/kernel_config.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"

namespace dchag::tensor {
namespace {

namespace ops = tensor::ops;

// Pin the pool to 4 lanes before its first use so the 3-lane runs really
// split their ranges whatever the host's core count.
const bool kForceLanes = [] {
  setenv("DCHAG_THREADS", "4", /*overwrite=*/1);
  return true;
}();

struct Config {
  KernelBackend backend;
  int threads;
};

const Config kConfigs[] = {{KernelBackend::kNaive, 0},
                           {KernelBackend::kBlocked, 0},
                           {KernelBackend::kParallel, 1},
                           {KernelBackend::kParallel, 3}};

std::string describe(const Config& c) {
  return std::string(to_string(c.backend)) + "/" + std::to_string(c.threads);
}

/// Multi-index of flat element `i` of `s`, row-major.
std::vector<Index> unflatten(Index i, const Shape& s) {
  std::vector<Index> idx(static_cast<std::size_t>(s.rank()));
  for (Index d = s.rank() - 1; d >= 0; --d) {
    idx[static_cast<std::size_t>(d)] = i % s.dim(d);
    i /= s.dim(d);
  }
  return idx;
}

/// numpy's rule: right-aligned, an extent of 1 takes the other side's.
Shape ref_broadcast_shape(const Shape& a, const Shape& b) {
  const Index rank = std::max(a.rank(), b.rank());
  std::vector<Index> dims(static_cast<std::size_t>(rank));
  for (Index d = 0; d < rank; ++d) {
    const Index ad = d - (rank - a.rank());
    const Index bd = d - (rank - b.rank());
    const Index av = ad >= 0 ? a.dim(ad) : 1;
    const Index bv = bd >= 0 ? b.dim(bd) : 1;
    dims[static_cast<std::size_t>(d)] = av == 1 ? bv : av;
  }
  return Shape(std::move(dims));
}

/// Flat element of `s` that output index `idx` reads under broadcasting.
Index source_of(const std::vector<Index>& idx, const Shape& s) {
  const Index pad = static_cast<Index>(idx.size()) - s.rank();
  Index flat = 0;
  for (Index d = 0; d < s.rank(); ++d) {
    const Index i = s.dim(d) == 1 ? 0 : idx[static_cast<std::size_t>(d + pad)];
    flat += i * s.stride(d);
  }
  return flat;
}

using BinaryFn = std::function<float(float, float)>;

Tensor ref_binary(const Tensor& a, const Tensor& b, const BinaryFn& f) {
  Tensor out(ref_broadcast_shape(a.shape(), b.shape()));
  for (Index i = 0; i < out.numel(); ++i) {
    const auto idx = unflatten(i, out.shape());
    out.data()[i] =
        f(a.data()[source_of(idx, a.shape())], b.data()[source_of(idx, b.shape())]);
  }
  return out;
}

Tensor ref_permute(const Tensor& a, const std::vector<Index>& perm) {
  std::vector<Index> dims;
  for (Index p : perm) dims.push_back(a.dim(p));
  Tensor out{Shape(std::move(dims))};
  for (Index i = 0; i < out.numel(); ++i) {
    const auto idx = unflatten(i, out.shape());
    Index src = 0;
    for (std::size_t d = 0; d < perm.size(); ++d)
      src += idx[d] * a.shape().stride(perm[d]);
    out.data()[i] = a.data()[src];
  }
  return out;
}

bool same_bytes(const Tensor& x, const Tensor& y) {
  // An empty tensor's data() may be null, which memcmp must not see.
  return x.shape() == y.shape() &&
         (x.numel() == 0 ||
          std::memcmp(x.data(), y.data(),
                      static_cast<std::size_t>(x.numel()) * sizeof(float)) ==
              0);
}

struct BinaryCase {
  const char* name;
  Tensor (*op)(const Tensor&, const Tensor&);
  BinaryFn ref;
};

const BinaryCase kBinary[] = {
    {"add", ops::add, [](float x, float y) { return x + y; }},
    {"sub", ops::sub, [](float x, float y) { return x - y; }},
    {"mul", ops::mul, [](float x, float y) { return x * y; }},
    {"div", ops::div, [](float x, float y) { return x / y; }}};

void expect_binary_matches(const Shape& sa, const Shape& sb, Rng& rng) {
  const Tensor a = rng.normal_tensor(sa);
  const Tensor b = rng.normal_tensor(sb);
  for (const BinaryCase& bc : kBinary) {
    const Tensor want = ref_binary(a, b, bc.ref);
    for (const Config& c : kConfigs) {
      runtime::Scope scope(
          runtime::ContextPatch::with_kernels({c.backend, c.threads}));
      EXPECT_TRUE(same_bytes(bc.op(a, b), want))
          << bc.name << " " << sa.to_string() << " x " << sb.to_string()
          << " on " << describe(c);
    }
  }
}

void expect_permute_matches(const Shape& s, const std::vector<Index>& perm,
                            Rng& rng) {
  const Tensor a = rng.normal_tensor(s);
  const Tensor want = ref_permute(a, perm);
  std::string p;
  for (Index d : perm) p += std::to_string(d);
  for (const Config& c : kConfigs) {
    runtime::Scope scope(
        runtime::ContextPatch::with_kernels({c.backend, c.threads}));
    EXPECT_TRUE(same_bytes(ops::permute(a, perm), want))
        << "permute " << s.to_string() << " by " << p << " on "
        << describe(c);
    std::vector<Index> swap_last2(perm.size());
    std::iota(swap_last2.begin(), swap_last2.end(), Index{0});
    if (perm.size() >= 2) std::swap(swap_last2.end()[-1], swap_last2.end()[-2]);
    if (perm.size() >= 2 && perm == swap_last2) {
      EXPECT_TRUE(same_bytes(ops::transpose_last2(a), want))
          << "transpose_last2 " << s.to_string() << " on " << describe(c);
    }
  }
}

/// Extents in [0, 4], zero about one time in eight.
std::vector<Index> random_dims(Rng& rng, Index rank) {
  std::vector<Index> dims(static_cast<std::size_t>(rank));
  for (Index& d : dims)
    d = rng.uniform() < 0.125f ? 0
                               : 1 + static_cast<Index>(rng.uniform() * 4.0f) % 4;
  return dims;
}

TEST(BroadcastParity, NamedShapes) {
  Rng rng(1);
  const std::pair<Shape, Shape> cases[] = {
      {Shape{2, 1, 3}, Shape{1, 4, 1}},   // both sides broadcast
      {Shape{1, 4, 1}, Shape{2, 1, 3}},
      {Shape{3, 4, 5}, Shape{5}},         // bias: right side, padded
      {Shape{5}, Shape{3, 4, 5}},         // left side, padded
      {Shape{3, 4, 5}, Shape{3, 1, 5}},   // interior broadcast
      {Shape{3, 4, 5}, Shape{3, 4, 1}},   // a mask over the last dim
      {Shape{3, 4, 1}, Shape{4, 1}},      // last dim of size 1
      {Shape{3, 1}, Shape{1, 4}},
      {Shape{2, 3, 1}, Shape{1, 1, 1}},
      {Shape{1}, Shape{1, 1}},            // one element, padded
      {Shape{6}, Shape{1}},               // scalar
      {Shape{0, 3}, Shape{1, 3}},         // zero extent against one
      {Shape{1, 3}, Shape{4, 0, 3}},
      {Shape{2, 0, 1}, Shape{5}},
  };
  for (const auto& [sa, sb] : cases) expect_binary_matches(sa, sb, rng);
}

TEST(BroadcastParity, WideEnoughToFanOut) {
  // Each output has >= 2 x 32768 elements, so 3 lanes split it, and the
  // chunk edges fall inside rows.
  Rng rng(2);
  expect_binary_matches(Shape{64, 1, 1100}, Shape{1, 3, 1100}, rng);
  expect_binary_matches(Shape{300, 257}, Shape{257}, rng);
  expect_binary_matches(Shape{8, 16, 1}, Shape{8, 16, 600}, rng);
  expect_binary_matches(Shape{70001}, Shape{1}, rng);
  expect_binary_matches(Shape{1}, Shape{3, 23347}, rng);
}

TEST(BroadcastParity, SeededShapesRanksOneToFive) {
  Rng rng(3);
  for (int trial = 0; trial < 300; ++trial) {
    const Index rank = 1 + trial % 5;
    const auto out = random_dims(rng, rank);
    // Each side keeps a suffix of the output's dims (leading padding)
    // and turns some extents into 1 (broadcasting on that side).
    auto side = [&] {
      const Index keep = rank - static_cast<Index>(rng.uniform() * 2.0f) %
                                    std::min<Index>(rank, 2);
      std::vector<Index> dims(out.end() - keep, out.end());
      for (Index& d : dims)
        if (rng.uniform() < 0.4f) d = 1;
      return Shape(std::move(dims));
    };
    const Shape sa = side();
    const Shape sb = side();
    if (sa == sb) continue;
    expect_binary_matches(sa, sb, rng);
  }
}

TEST(BroadcastParity, IncompatibleShapesStillThrow) {
  EXPECT_THROW(ops::add(Tensor(Shape{2, 3}), Tensor(Shape{3, 2})), Error);
  EXPECT_THROW(ops::mul(Tensor(Shape{0, 3}), Tensor(Shape{2, 3})), Error);
}

TEST(PermuteParity, EveryPermutationUpToRankFour) {
  Rng rng(4);
  for (Index rank = 1; rank <= 4; ++rank) {
    std::vector<Index> perm(static_cast<std::size_t>(rank));
    std::iota(perm.begin(), perm.end(), Index{0});
    do {
      for (int trial = 0; trial < 6; ++trial)
        expect_permute_matches(Shape(random_dims(rng, rank)), perm, rng);
      // Extents off the 32-wide tile on both transposed sides.
      std::vector<Index> dims(static_cast<std::size_t>(rank));
      for (Index d = 0; d < rank; ++d)
        dims[static_cast<std::size_t>(d)] = d < rank - 2 ? 2 : 37 + d;
      expect_permute_matches(Shape(std::move(dims)), perm, rng);
    } while (std::next_permutation(perm.begin(), perm.end()));
  }
}

TEST(PermuteParity, RankFiveAndUnitExtents) {
  Rng rng(5);
  expect_permute_matches(Shape{2, 3, 1, 4, 5}, {4, 2, 0, 3, 1}, rng);
  expect_permute_matches(Shape{2, 3, 4, 5, 1}, {0, 1, 2, 4, 3}, rng);
  expect_permute_matches(Shape{1, 3, 1, 5, 1}, {4, 3, 2, 1, 0}, rng);
  expect_permute_matches(Shape{2, 0, 4, 5, 3}, {0, 2, 1, 4, 3}, rng);
  expect_permute_matches(Shape{3, 1}, {1, 0}, rng);
  expect_permute_matches(Shape{1}, {0}, rng);
}

TEST(PermuteParity, WideEnoughToFanOut) {
  Rng rng(6);
  // transpose_last2 of matmul's backward, and the [B,N,S,D] <-> [B,S,N,D]
  // head permutes, each >= 2 x 32768 elements.
  expect_permute_matches(Shape{3, 130, 170}, {0, 2, 1}, rng);
  expect_permute_matches(Shape{4, 4, 64, 70}, {0, 2, 1, 3}, rng);
  expect_permute_matches(Shape{4, 64, 4, 70}, {0, 2, 1, 3}, rng);
  expect_permute_matches(Shape{70, 33, 31}, {2, 0, 1}, rng);
}

TEST(PermuteParity, InvalidPermutationsThrow) {
  const Tensor a(Shape{2, 3});
  EXPECT_THROW(ops::permute(a, {0}), Error);
  EXPECT_THROW(ops::permute(a, {0, 0}), Error);
  EXPECT_THROW(ops::permute(a, {0, 2}), Error);
}

}  // namespace
}  // namespace dchag::tensor
