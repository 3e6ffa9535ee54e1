// Reverse-mode automatic differentiation (define-by-run tape).
//
// A Variable wraps a shared graph Node holding the forward value, the
// accumulated gradient, and a backward closure that scatters the output
// gradient to the node's parents. Graphs are built per rank thread and are
// never shared between threads; custom distributed ops (differentiable
// collectives in parallel/) plug in through make_op().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace dchag::autograd {

using tensor::Index;
using tensor::Shape;
using tensor::Tensor;

struct Node {
  Tensor value;
  Tensor grad;  ///< lazily allocated on first accumulation
  bool requires_grad = false;
  std::string name;  ///< non-empty for parameters (used by optimizers)
  std::vector<std::shared_ptr<Node>> parents;
  /// Propagates `grad_out` (same shape as value) into parents' grads.
  std::function<void(const Tensor& grad_out)> backward_fn;
};

/// Adds `g` into the node's gradient accumulator. The first gradient
/// becomes the accumulator: its buffer is taken over when `g` is its sole
/// owner (a fresh backward result passed as a temporary), and copied when
/// anything else still holds it (add's backward hands one buffer to both
/// parents; reshape's shares the child's gradient). No-op if the node
/// does not require grad.
void accumulate_grad(Node& n, Tensor g);

/// Whether ops built on this thread record the tape (parents + backward
/// closures). Grad mode is thread-local: each SPMD rank thread and each
/// serving worker controls its own tape independently.
[[nodiscard]] bool is_grad_enabled();

/// Number of tape nodes (op nodes with recorded parents) created on this
/// thread since it started. Inference paths assert this stays flat across
/// a forward to prove they allocate zero autograd state.
[[nodiscard]] std::uint64_t tape_nodes_created();

/// RAII guard disabling tape recording on the current thread. While active,
/// make_op() produces bare value nodes: no parents, no backward closures,
/// no grad requirement — the serving fast path. Nests and restores the
/// previous mode on destruction.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

class Variable {
 public:
  Variable() = default;

  /// Constant input (does not require grad).
  static Variable input(Tensor v) { return leaf(std::move(v), false); }
  /// Trainable parameter (leaf, requires grad, named for optimizers).
  static Variable param(Tensor v, std::string name = "");
  static Variable leaf(Tensor v, bool requires_grad);

  [[nodiscard]] bool defined() const { return node_ != nullptr; }
  [[nodiscard]] const Tensor& value() const { return node_->value; }
  [[nodiscard]] Tensor& mutable_value() { return node_->value; }
  [[nodiscard]] const Tensor& grad() const { return node_->grad; }
  [[nodiscard]] bool has_grad() const { return node_->grad.defined(); }
  [[nodiscard]] bool requires_grad() const { return node_->requires_grad; }
  [[nodiscard]] const std::string& name() const { return node_->name; }
  [[nodiscard]] const Shape& shape() const { return node_->value.shape(); }
  [[nodiscard]] std::shared_ptr<Node> node() const { return node_; }

  void zero_grad() { node_->grad = Tensor(); }

  /// Runs reverse-mode accumulation from this (scalar) variable.
  void backward() const;

  /// Cuts the graph: same value, no history.
  [[nodiscard]] Variable detach() const {
    return input(node_->value);
  }

  explicit Variable(std::shared_ptr<Node> n) : node_(std::move(n)) {}

 private:
  std::shared_ptr<Node> node_;
};

/// Creates a non-leaf op node. `backward` receives the output gradient and
/// must scatter it to the parents via accumulate_grad().
Variable make_op(Tensor value, std::vector<Variable> parents,
                 std::function<void(const Tensor&)> backward);

// ----- differentiable ops (mirror tensor::ops) -------------------------------

Variable add(const Variable& a, const Variable& b);
Variable sub(const Variable& a, const Variable& b);
Variable mul(const Variable& a, const Variable& b);
Variable scale(const Variable& a, float s);
Variable neg(const Variable& a);

Variable matmul(const Variable& a, const Variable& b);
Variable reshape(const Variable& a, Shape s);
Variable permute(const Variable& a, std::vector<Index> perm);
Variable transpose_last2(const Variable& a);

Variable softmax_lastdim(const Variable& a);
Variable gelu(const Variable& a);
Variable layernorm(const Variable& a, const Variable& gamma,
                   const Variable& beta, float eps = 1e-5f);

Variable concat(std::span<const Variable> vs, Index dim);
Variable slice(const Variable& a, Index dim, Index start, Index len);

Variable sum_all(const Variable& a);
Variable mean_all(const Variable& a);
Variable sum_dim(const Variable& a, Index dim);
Variable mean_dim(const Variable& a, Index dim);
Variable expand_dim(const Variable& a, Index dim, Index n);

/// Mean squared error: mean((a - b)^2) over all elements. b is a constant.
Variable mse_loss(const Variable& pred, const Tensor& target);
/// MSE restricted to elements where mask == 1; normalised by mask sum.
Variable masked_mse_loss(const Variable& pred, const Tensor& target,
                         const Tensor& mask);

}  // namespace dchag::autograd
