// Minimal parameter-container base class shared by all model layers.
//
// Concrete layers register their Variables (and child modules) so that
// optimizers, FSDP sharding, and DP gradient reduction can enumerate every
// trainable tensor in a deterministic order (registration order), which is
// what keeps SPMD replicas bit-identical across ranks.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/autograd.hpp"
#include "tensor/rng.hpp"

namespace dchag::autograd {

/// A serving-frozen module detected a weight mutation after its GEMM
/// panels were pre-packed (e.g. load_module over a frozen model). The
/// packs would silently serve stale values, so the forward fails loudly
/// instead; call freeze_for_serving() again after mutating weights.
class StaleWeightPackError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {

/// Debug builds verify the full weight against its pack fingerprint on
/// every fused forward; release builds check a strided 64-element sample
/// (always including the first and last elements).
#ifndef NDEBUG
inline constexpr bool kVerifyPackFull = true;
#else
inline constexpr bool kVerifyPackFull = false;
#endif

[[nodiscard]] inline std::uint64_t weight_fingerprint(
    const tensor::Tensor& t) {
  const float* p = t.data();
  const tensor::Index n = t.numel();
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  auto mix = [&h](float v) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    h ^= bits;
    h *= 1099511628211ull;
  };
  if (kVerifyPackFull || n <= 64) {
    for (tensor::Index i = 0; i < n; ++i) mix(p[i]);
  } else {
    const tensor::Index step = n / 64;
    for (tensor::Index i = 0; i < n; i += step) mix(p[i]);
    mix(p[n - 1]);
  }
  return h;
}

}  // namespace detail

class Module {
 public:
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;
  Module(Module&&) = default;
  Module& operator=(Module&&) = default;
  virtual ~Module() = default;

  /// All trainable parameters, in deterministic registration order
  /// (depth-first through child modules).
  [[nodiscard]] std::vector<Variable> parameters() const {
    std::vector<Variable> out;
    collect_parameters(out);
    return out;
  }

  [[nodiscard]] tensor::Index num_parameters() const {
    tensor::Index n = 0;
    for (const Variable& p : parameters()) n += p.shape().numel();
    return n;
  }

  void zero_grad() const {
    for (Variable& p : parameters()) p.zero_grad();
  }

  void collect_parameters(std::vector<Variable>& out) const {
    for (const Variable& p : params_) out.push_back(p);
    for (const Module* c : children_) c->collect_parameters(out);
  }

  /// Recursively flips training mode (train/eval) on this module and every
  /// registered child. Serving asserts eval mode; layers with mode-dependent
  /// behaviour (dropout, batch statistics) branch on is_training().
  /// Re-entering training clears any serving freeze (and its weight packs)
  /// module by module, so a fine-tune after serving never trains against
  /// stale panels.
  void train(bool mode = true) {
    training_ = mode;
    if (mode && frozen_) {
      frozen_ = false;
      on_unfreeze();
    }
    for (Module* c : children_) c->train(mode);
  }
  void eval() { train(false); }
  [[nodiscard]] bool is_training() const { return training_; }

  /// Prepares the module tree for serving: eval() plus a recursive
  /// pre-pack of every GEMM weight (Linear::on_freeze), stamped with a
  /// weight fingerprint. Fused no-grad forwards engage only on frozen
  /// modules; a weight mutated after the freeze raises
  /// StaleWeightPackError on the next fused forward. Idempotent.
  void freeze_for_serving() {
    train(false);
    freeze_rec();
  }
  [[nodiscard]] bool is_frozen() const { return frozen_; }

 protected:
  /// Pre-pack hooks: on_freeze() builds serving-time artefacts (packed
  /// panels, fingerprints); on_unfreeze() drops them when training
  /// resumes. Called once per freeze/unfreeze transition per module.
  virtual void on_freeze() {}
  virtual void on_unfreeze() {}
  Variable register_param(std::string name, tensor::Tensor init) {
    Variable v = Variable::param(std::move(init), std::move(name));
    params_.push_back(v);
    return v;
  }
  /// Child must outlive this module (members registered in ctor order).
  void register_child(Module& child) { children_.push_back(&child); }

 private:
  void freeze_rec() {
    frozen_ = true;
    on_freeze();
    for (Module* c : children_) c->freeze_rec();
  }

  std::vector<Variable> params_;
  std::vector<Module*> children_;
  bool training_ = true;
  bool frozen_ = false;
};

/// Dense layer y = x W + b with Xavier init; the workhorse of every module.
///
/// When frozen for serving, the tape-free forward runs on pre-packed
/// weight panels with the bias (and any requested activation / residual /
/// layernorm tail) fused into the GEMM's row strips — bit-identical to
/// the unfused op chain, which the plan parity suite asserts.
class Linear : public Module {
 public:
  Linear(tensor::Index in, tensor::Index out, tensor::Rng& rng,
         const std::string& name = "linear")
      : weight_(register_param(name + ".weight",
                               rng.xavier(tensor::Shape{in, out}))),
        bias_(register_param(name + ".bias", tensor::Tensor({out}, 0.0f))) {}

  [[nodiscard]] Variable forward(const Variable& x) const {
    if (fused_ready()) return fused(x, {});
    return add(matmul(x, weight_), bias_);
  }

  /// y = gelu(x W + b); the GELU rides the GEMM tail when frozen.
  [[nodiscard]] Variable forward_gelu(const Variable& x) const {
    if (fused_ready()) return fused(x, {.gelu = true});
    return gelu(forward(x));
  }

  /// y = residual + (x W + b); the residual add rides the GEMM tail when
  /// frozen (bitwise-equal operand swap of a commutative float add).
  [[nodiscard]] Variable forward_residual(const Variable& x,
                                          const Variable& residual) const {
    if (fused_ready()) return fused(x, {.residual = &residual.value()});
    return add(residual, forward(x));
  }

  /// y = layernorm(residual + (x W + b)); the full post-GEMM tail of a
  /// transformer block's closing projection, fused when frozen.
  [[nodiscard]] Variable forward_residual_layernorm(
      const Variable& x, const Variable& residual, const Variable& gamma,
      const Variable& beta, float eps = 1e-5f) const {
    if (fused_ready()) {
      return fused(x, {.residual = &residual.value(),
                       .ln_gamma = &gamma.value(),
                       .ln_beta = &beta.value(),
                       .ln_eps = eps});
    }
    return layernorm(forward_residual(x, residual), gamma, beta, eps);
  }

  [[nodiscard]] const Variable& weight() const { return weight_; }
  [[nodiscard]] const Variable& bias() const { return bias_; }

  /// The pre-packed weight panels the frozen tape-free forward runs on,
  /// after the same stale-weight check (throws StaleWeightPackError);
  /// nullptr when that path does not apply (not frozen, or grad on).
  /// Lets a caller that fans out its own products reuse the panels
  /// instead of packing the weight a second time.
  [[nodiscard]] const tensor::gemm::PackedB* serving_panels() const {
    return fused_ready() ? &*packed_ : nullptr;
  }

 protected:
  void on_freeze() override {
    const tensor::Tensor& w = weight_.value();
    packed_ = tensor::gemm::pack_b_matrix(w.data(), w.dim(0), w.dim(1),
                                          w.dim(1));
    packed_fp_ = detail::weight_fingerprint(w);
  }
  void on_unfreeze() override { packed_.reset(); }

 private:
  /// The frozen tape-free forward: x W on the pre-packed panels with the
  /// bias plus `epi`'s tail fused into the GEMM's row strips.
  [[nodiscard]] Variable fused(const Variable& x,
                               tensor::ops::LinearEpilogue epi) const {
    epi.bias = &bias_.value();
    return Variable::input(tensor::ops::linear_fused(
        x.value(), weight_.value(), &*packed_, epi));
  }

  /// True iff the tape-free pre-packed path applies; verifies the weight
  /// against its pack-time fingerprint first and fails loudly on drift.
  [[nodiscard]] bool fused_ready() const {
    if (!packed_.has_value() || is_grad_enabled()) return false;
    if (detail::weight_fingerprint(weight_.value()) != packed_fp_) {
      throw StaleWeightPackError(
          "weight '" + weight_.name() +
          "' was mutated after freeze_for_serving(); re-freeze before "
          "serving (packed GEMM panels are stale)");
    }
    return true;
  }

  Variable weight_;
  Variable bias_;
  std::optional<tensor::gemm::PackedB> packed_;
  std::uint64_t packed_fp_ = 0;
};

/// LayerNorm over the last dimension with learnable gamma/beta.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(tensor::Index dim, const std::string& name = "ln")
      : gamma_(register_param(name + ".gamma", tensor::Tensor({dim}, 1.0f))),
        beta_(register_param(name + ".beta", tensor::Tensor({dim}, 0.0f))) {}

  [[nodiscard]] Variable forward(const Variable& x) const {
    // Frozen tape-free forward skips the mean/rstd tensors backward
    // needs (the three-fresh-tensors-per-call serving hotspot).
    if (is_frozen() && !is_grad_enabled()) {
      return Variable::input(tensor::ops::layernorm_value(
          x.value(), gamma_.value(), beta_.value()));
    }
    return layernorm(x, gamma_, beta_);
  }

  [[nodiscard]] const Variable& gamma() const { return gamma_; }
  [[nodiscard]] const Variable& beta() const { return beta_; }

 private:
  Variable gamma_;
  Variable beta_;
};

}  // namespace dchag::autograd
