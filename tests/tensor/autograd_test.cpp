#include "tensor/autograd.hpp"

#include <gtest/gtest.h>

#include "tensor/module.hpp"
#include "tensor/rng.hpp"
#include "testing/gradcheck.hpp"

namespace dchag::autograd {
namespace {

using dchag::testing::gradcheck;
using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

constexpr float kTol = 2e-2f;  // relative error budget for fp32 central FD

TEST(Autograd, BackwardRequiresScalar) {
  Variable v = Variable::param(Tensor(Shape{2}, 1.0f));
  EXPECT_THROW(v.backward(), Error);
}

TEST(Autograd, SimpleChainRule) {
  // loss = sum(2 * x); dloss/dx = 2
  Variable x = Variable::param(Tensor(Shape{3}, 1.0f));
  Variable loss = sum_all(scale(x, 2.0f));
  loss.backward();
  EXPECT_EQ(loss.value().item(), 6.0f);
  for (float g : x.grad().span()) EXPECT_EQ(g, 2.0f);
}

TEST(Autograd, FirstGradientTakesOverAFreshBuffer) {
  // loss = sum(2 * x): the seed [1], sum_all's backward [n] and scale's
  // backward [n] are each a fresh temporary, so every node adopts its
  // first gradient's buffer instead of cloning it.
  constexpr Index n = 1000;
  Variable x = Variable::param(Tensor(Shape{n}, 1.0f));
  Variable loss = sum_all(scale(x, 2.0f));
  const std::uint64_t before = tensor::bytes_allocated();
  loss.backward();
  EXPECT_EQ(tensor::bytes_allocated() - before, (1 + 2 * n) * sizeof(float))
      << "a first gradient was copied instead of adopted";
  for (float g : x.grad().span()) EXPECT_EQ(g, 2.0f);
}

TEST(Autograd, SharedGradientBuffersAreCopiedNotAliased) {
  // add's backward hands one buffer to both parents, and reshape's
  // backward shares the child's: each parent must own a separate copy.
  Variable a = Variable::param(Tensor(Shape{2, 3}, 1.0f));
  Variable b = Variable::param(Tensor(Shape{2, 3}, 2.0f));
  Variable r = reshape(a, Shape{3, 2});
  Variable sum = add(reshape(r, Shape{2, 3}), b);
  Variable loss = sum_all(mul(sum, sum));
  loss.backward();
  EXPECT_FALSE(a.grad().same_storage(b.grad()));
  EXPECT_FALSE(a.grad().same_storage(r.grad()));
  EXPECT_FALSE(sum.grad().same_storage(b.grad()));
  // d/da = d/db = 2 * (a + b) = 6; accumulating into one must not move
  // the other.
  for (float g : a.grad().span()) EXPECT_EQ(g, 6.0f);
  for (float g : b.grad().span()) EXPECT_EQ(g, 6.0f);
  Variable again = sum_all(scale(a, 1.0f));
  again.backward();
  for (float g : a.grad().span()) EXPECT_EQ(g, 7.0f);
  for (float g : b.grad().span()) EXPECT_EQ(g, 6.0f);
  for (float g : r.grad().span()) EXPECT_EQ(g, 6.0f);
}

TEST(Autograd, GradAccumulatesAcrossUses) {
  // loss = sum(x) + sum(x) => grad 2 per element
  Variable x = Variable::param(Tensor(Shape{4}, 1.0f));
  Variable loss = add(sum_all(x), sum_all(x));
  loss.backward();
  for (float g : x.grad().span()) EXPECT_EQ(g, 2.0f);
}

TEST(Autograd, NoGradForInputs) {
  Variable x = Variable::input(Tensor(Shape{3}, 1.0f));
  Variable p = Variable::param(Tensor(Shape{3}, 2.0f));
  Variable loss = sum_all(mul(x, p));
  loss.backward();
  EXPECT_FALSE(x.has_grad());
  EXPECT_TRUE(p.has_grad());
}

TEST(Autograd, DetachCutsGraph) {
  Variable p = Variable::param(Tensor(Shape{3}, 2.0f));
  Variable loss = sum_all(mul(p.detach(), p));
  loss.backward();
  // Only the non-detached path contributes: grad = detached value = 2.
  for (float g : p.grad().span()) EXPECT_EQ(g, 2.0f);
}

TEST(Autograd, ZeroGradClears) {
  Variable x = Variable::param(Tensor(Shape{2}, 1.0f));
  sum_all(x).backward();
  EXPECT_TRUE(x.has_grad());
  x.zero_grad();
  EXPECT_FALSE(x.has_grad());
}

// ----- finite-difference checks per op ---------------------------------------

TEST(GradCheck, AddWithBroadcastBias) {
  Rng rng(1);
  auto fn = [](const std::vector<Variable>& v) {
    return sum_all(mul(add(v[0], v[1]), add(v[0], v[1])));
  };
  float err = gradcheck(fn, {Variable::param(rng.normal_tensor(Shape{2, 3})),
                             Variable::param(rng.normal_tensor(Shape{3}))});
  EXPECT_LT(err, kTol);
}

TEST(GradCheck, SubAndMul) {
  Rng rng(2);
  auto fn = [](const std::vector<Variable>& v) {
    return sum_all(mul(sub(v[0], v[1]), v[0]));
  };
  float err =
      gradcheck(fn, {Variable::param(rng.normal_tensor(Shape{4})),
                     Variable::param(rng.normal_tensor(Shape{4}))});
  EXPECT_LT(err, kTol);
}

TEST(GradCheck, MatmulBothSides) {
  Rng rng(3);
  auto fn = [](const std::vector<Variable>& v) {
    return sum_all(matmul(v[0], v[1]));
  };
  float err =
      gradcheck(fn, {Variable::param(rng.normal_tensor(Shape{3, 4})),
                     Variable::param(rng.normal_tensor(Shape{4, 2}))});
  EXPECT_LT(err, kTol);
}

TEST(GradCheck, MatmulBatchedSharedWeight) {
  Rng rng(4);
  auto fn = [](const std::vector<Variable>& v) {
    Variable y = matmul(v[0], v[1]);  // [2,3,4]x[4,2] shared weight
    return mean_all(mul(y, y));
  };
  float err =
      gradcheck(fn, {Variable::param(rng.normal_tensor(Shape{2, 3, 4})),
                     Variable::param(rng.normal_tensor(Shape{4, 2}))});
  EXPECT_LT(err, kTol);
}

TEST(GradCheck, MatmulBatchedBothBatched) {
  Rng rng(5);
  auto fn = [](const std::vector<Variable>& v) {
    return sum_all(matmul(v[0], v[1]));
  };
  float err =
      gradcheck(fn, {Variable::param(rng.normal_tensor(Shape{2, 3, 4})),
                     Variable::param(rng.normal_tensor(Shape{2, 4, 2}))});
  EXPECT_LT(err, kTol);
}

TEST(GradCheck, ReshapePermuteChain) {
  Rng rng(6);
  auto fn = [](const std::vector<Variable>& v) {
    Variable y = permute(reshape(v[0], Shape{2, 3, 2}), {1, 0, 2});
    return sum_all(mul(y, y));
  };
  float err = gradcheck(
      fn, {Variable::param(rng.normal_tensor(Shape{2, 6}))});
  EXPECT_LT(err, kTol);
}

TEST(GradCheck, TransposeLast2) {
  Rng rng(7);
  auto fn = [](const std::vector<Variable>& v) {
    return sum_all(matmul(v[0], transpose_last2(v[0])));
  };
  float err =
      gradcheck(fn, {Variable::param(rng.normal_tensor(Shape{3, 4}))});
  EXPECT_LT(err, kTol);
}

TEST(GradCheck, SoftmaxLastDim) {
  Rng rng(8);
  Tensor w = rng.normal_tensor(Shape{3, 5});
  auto fn = [w](const std::vector<Variable>& v) {
    return sum_all(mul(softmax_lastdim(v[0]), Variable::input(w)));
  };
  float err =
      gradcheck(fn, {Variable::param(rng.normal_tensor(Shape{3, 5}))});
  EXPECT_LT(err, kTol);
}

TEST(GradCheck, Gelu) {
  Rng rng(9);
  auto fn = [](const std::vector<Variable>& v) {
    return sum_all(gelu(v[0]));
  };
  float err =
      gradcheck(fn, {Variable::param(rng.normal_tensor(Shape{16}))});
  EXPECT_LT(err, kTol);
}

TEST(GradCheck, LayerNormAllThreeInputs) {
  Rng rng(10);
  Tensor w = rng.normal_tensor(Shape{4, 8});
  auto fn = [w](const std::vector<Variable>& v) {
    return sum_all(mul(layernorm(v[0], v[1], v[2]), Variable::input(w)));
  };
  float err = gradcheck(
      fn, {Variable::param(rng.normal_tensor(Shape{4, 8}, 0.0f, 2.0f)),
           Variable::param(rng.normal_tensor(Shape{8}, 1.0f, 0.1f)),
           Variable::param(rng.normal_tensor(Shape{8}))});
  EXPECT_LT(err, 5e-2f);  // layernorm FD is noisier (rsqrt nonlinearity)
}

TEST(GradCheck, ConcatAndSlice) {
  Rng rng(11);
  auto fn = [](const std::vector<Variable>& v) {
    std::vector<Variable> parts{v[0], v[1]};
    Variable c = concat(parts, 1);
    Variable s = slice(c, 1, 1, 3);
    return sum_all(mul(s, s));
  };
  float err =
      gradcheck(fn, {Variable::param(rng.normal_tensor(Shape{2, 2})),
                     Variable::param(rng.normal_tensor(Shape{2, 3}))});
  EXPECT_LT(err, kTol);
}

TEST(GradCheck, SumMeanDimExpand) {
  Rng rng(12);
  auto fn = [](const std::vector<Variable>& v) {
    Variable m = mean_dim(v[0], 1);        // [2,4,3] -> [2,3]
    Variable e = expand_dim(m, 1, 4);      // back to [2,4,3]
    Variable d = sub(v[0], e);
    return sum_all(mul(d, d));
  };
  float err = gradcheck(
      fn, {Variable::param(rng.normal_tensor(Shape{2, 4, 3}))});
  EXPECT_LT(err, kTol);
}

TEST(GradCheck, MseLoss) {
  Rng rng(13);
  Tensor target = rng.normal_tensor(Shape{3, 4});
  auto fn = [target](const std::vector<Variable>& v) {
    return mse_loss(v[0], target);
  };
  float err =
      gradcheck(fn, {Variable::param(rng.normal_tensor(Shape{3, 4}))});
  EXPECT_LT(err, kTol);
}

TEST(GradCheck, MaskedMseLoss) {
  Rng rng(14);
  Tensor target = rng.normal_tensor(Shape{3, 4});
  Tensor mask(Shape{3, 4});
  for (tensor::Index i = 0; i < mask.numel(); ++i)
    mask.data()[i] = (i % 3 == 0) ? 1.0f : 0.0f;
  auto fn = [target, mask](const std::vector<Variable>& v) {
    return masked_mse_loss(v[0], target, mask);
  };
  float err =
      gradcheck(fn, {Variable::param(rng.normal_tensor(Shape{3, 4}))});
  EXPECT_LT(err, kTol);
}

TEST(GradCheck, MaskedMseIgnoresUnmaskedElements) {
  Rng rng(15);
  Tensor target(Shape{4}, 0.0f);
  Tensor mask = Tensor::from_data(Shape{4}, {1, 0, 0, 1});
  Variable pred = Variable::param(rng.normal_tensor(Shape{4}));
  Variable loss = masked_mse_loss(pred, target, mask);
  loss.backward();
  EXPECT_NE(pred.grad().at({0}), 0.0f);
  EXPECT_EQ(pred.grad().at({1}), 0.0f);
  EXPECT_EQ(pred.grad().at({2}), 0.0f);
}

TEST(GradCheck, EmptyMaskThrows) {
  Tensor target(Shape{2}, 0.0f);
  Tensor mask(Shape{2}, 0.0f);
  Variable pred = Variable::param(Tensor(Shape{2}, 1.0f));
  EXPECT_THROW(masked_mse_loss(pred, target, mask), Error);
}

// ----- Module / Linear / LayerNorm layers -----------------------------------

TEST(Module, LinearForwardMatchesManual) {
  Rng rng(16);
  Linear lin(4, 3, rng);
  Tensor x = rng.normal_tensor(Shape{2, 4});
  Variable y = lin.forward(Variable::input(x));
  Tensor manual = tensor::ops::add(
      tensor::ops::matmul(x, lin.weight().value()), lin.bias().value());
  EXPECT_LT(tensor::ops::max_abs_diff(y.value(), manual), 1e-6f);
}

TEST(Module, ParametersEnumeratedInOrder) {
  Rng rng(17);
  Linear lin(4, 3, rng, "l0");
  auto params = lin.parameters();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].name(), "l0.weight");
  EXPECT_EQ(params[1].name(), "l0.bias");
  EXPECT_EQ(lin.num_parameters(), 4 * 3 + 3);
}

TEST(Module, LinearGradcheck) {
  Rng rng(18);
  Linear lin(3, 2, rng);
  Tensor x = rng.normal_tensor(Shape{4, 3});
  auto params = lin.parameters();
  auto fn = [&lin, x](const std::vector<Variable>& v) {
    // Rebind: construct the same computation from the leaf list.
    Variable y = add(matmul(Variable::input(x), v[0]), v[1]);
    return sum_all(mul(y, y));
  };
  float err = gradcheck(fn, {params[0], params[1]});
  EXPECT_LT(err, kTol);
}

TEST(Module, LayerNormModuleGradFlows) {
  Rng rng(19);
  LayerNorm ln(8);
  Variable x = Variable::param(rng.normal_tensor(Shape{3, 8}));
  Variable loss = sum_all(mul(ln.forward(x), ln.forward(x)));
  loss.backward();
  EXPECT_TRUE(x.has_grad());
  auto params = ln.parameters();
  EXPECT_TRUE(params[0].has_grad());
  EXPECT_TRUE(params[1].has_grad());
}

TEST(Module, ZeroGradClearsAllParams) {
  Rng rng(20);
  Linear lin(3, 3, rng);
  Variable y = lin.forward(Variable::input(rng.normal_tensor(Shape{2, 3})));
  sum_all(y).backward();
  lin.zero_grad();
  for (const Variable& p : lin.parameters()) EXPECT_FALSE(p.has_grad());
}

}  // namespace
}  // namespace dchag::autograd
