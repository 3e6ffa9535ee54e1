#include "tensor/autograd.hpp"

#include <algorithm>
#include <unordered_set>

namespace dchag::autograd {

namespace ops = tensor::ops;

namespace {
thread_local bool tls_grad_enabled = true;
thread_local std::uint64_t tls_tape_nodes = 0;
}  // namespace

bool is_grad_enabled() { return tls_grad_enabled; }

std::uint64_t tape_nodes_created() { return tls_tape_nodes; }

NoGradGuard::NoGradGuard() : prev_(tls_grad_enabled) {
  tls_grad_enabled = false;
}

NoGradGuard::~NoGradGuard() { tls_grad_enabled = prev_; }

void accumulate_grad(Node& n, Tensor g) {
  if (!n.requires_grad) return;
  DCHAG_CHECK(g.shape() == n.value.shape(),
              "grad shape " << g.shape().to_string() << " != value shape "
                            << n.value.shape().to_string() << " for node '"
                            << n.name << "'");
  if (!n.grad.defined()) {
    n.grad = g.sole_owner() ? std::move(g) : g.clone();
  } else {
    float* pg = n.grad.data();
    const float* ps = g.data();
    const Index count = g.numel();
    for (Index i = 0; i < count; ++i) pg[i] += ps[i];
  }
}

Variable Variable::param(Tensor v, std::string name) {
  auto n = std::make_shared<Node>();
  n->value = std::move(v);
  n->requires_grad = true;
  n->name = std::move(name);
  return Variable(std::move(n));
}

Variable Variable::leaf(Tensor v, bool requires_grad) {
  auto n = std::make_shared<Node>();
  n->value = std::move(v);
  n->requires_grad = requires_grad;
  return Variable(std::move(n));
}

Variable make_op(Tensor value, std::vector<Variable> parents,
                 std::function<void(const Tensor&)> backward) {
  auto n = std::make_shared<Node>();
  n->value = std::move(value);
  if (!tls_grad_enabled) {
    // Inference mode: the op's value survives but no history is recorded —
    // parents (and their activations) free as soon as callers drop them.
    return Variable(std::move(n));
  }
  ++tls_tape_nodes;
  for (const Variable& p : parents) {
    DCHAG_CHECK(p.defined(), "undefined parent in make_op");
    n->requires_grad = n->requires_grad || p.requires_grad();
    n->parents.push_back(p.node());
  }
  if (n->requires_grad) n->backward_fn = std::move(backward);
  return Variable(std::move(n));
}

void Variable::backward() const {
  DCHAG_CHECK(defined(), "backward() on undefined variable");
  DCHAG_CHECK(node_->value.numel() == 1,
              "backward() requires a scalar; got "
                  << node_->value.shape().to_string());
  // Topological order via iterative post-order DFS.
  std::vector<Node*> order;
  std::unordered_set<Node*> visited;
  std::vector<std::pair<Node*, std::size_t>> stack;
  stack.emplace_back(node_.get(), 0);
  visited.insert(node_.get());
  while (!stack.empty()) {
    auto& [n, child] = stack.back();
    if (child < n->parents.size()) {
      Node* p = n->parents[child++].get();
      if (p->requires_grad && !visited.contains(p)) {
        visited.insert(p);
        stack.emplace_back(p, 0);
      }
    } else {
      order.push_back(n);
      stack.pop_back();
    }
  }
  // Seed d(loss)/d(loss) = 1 and run in reverse topological order.
  accumulate_grad(*node_, Tensor(node_->value.shape(), 1.0f));
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* n = *it;
    if (n->backward_fn && n->grad.defined()) n->backward_fn(n->grad);
  }
}

// ----- op implementations -----------------------------------------------------

Variable add(const Variable& a, const Variable& b) {
  Tensor out = ops::add(a.value(), b.value());
  auto na = a.node();
  auto nb = b.node();
  return make_op(std::move(out), {a, b}, [na, nb](const Tensor& g) {
    accumulate_grad(*na, ops::reduce_to_shape(g, na->value.shape()));
    accumulate_grad(*nb, ops::reduce_to_shape(g, nb->value.shape()));
  });
}

Variable sub(const Variable& a, const Variable& b) {
  Tensor out = ops::sub(a.value(), b.value());
  auto na = a.node();
  auto nb = b.node();
  return make_op(std::move(out), {a, b}, [na, nb](const Tensor& g) {
    accumulate_grad(*na, ops::reduce_to_shape(g, na->value.shape()));
    accumulate_grad(*nb,
                    ops::reduce_to_shape(ops::neg(g), nb->value.shape()));
  });
}

Variable mul(const Variable& a, const Variable& b) {
  Tensor out = ops::mul(a.value(), b.value());
  auto na = a.node();
  auto nb = b.node();
  return make_op(std::move(out), {a, b}, [na, nb](const Tensor& g) {
    accumulate_grad(
        *na, ops::reduce_to_shape(ops::mul(g, nb->value), na->value.shape()));
    accumulate_grad(
        *nb, ops::reduce_to_shape(ops::mul(g, na->value), nb->value.shape()));
  });
}

Variable scale(const Variable& a, float s) {
  auto na = a.node();
  return make_op(ops::scale(a.value(), s), {a}, [na, s](const Tensor& g) {
    accumulate_grad(*na, ops::scale(g, s));
  });
}

Variable neg(const Variable& a) { return scale(a, -1.0f); }

Variable matmul(const Variable& a, const Variable& b) {
  Tensor out = ops::matmul(a.value(), b.value());
  auto na = a.node();
  auto nb = b.node();
  return make_op(std::move(out), {a, b}, [na, nb](const Tensor& g) {
    const Tensor& av = na->value;
    const Tensor& bv = nb->value;
    if (na->requires_grad) {
      // dA = g @ B^T (B shared across batch broadcasts automatically).
      accumulate_grad(*na, ops::matmul(g, ops::transpose_last2(bv)));
    }
    if (nb->requires_grad) {
      if (bv.rank() == 2 && av.rank() > 2) {
        // Shared weight: fold batch into rows, dB = A2^T @ G2.
        const Index K = av.dim(-1);
        const Index N = g.dim(-1);
        const Index rows = av.numel() / K;
        Tensor a2 = av.reshape(Shape{rows, K});
        Tensor g2 = g.reshape(Shape{rows, N});
        accumulate_grad(*nb, ops::matmul(ops::transpose_last2(a2), g2));
      } else {
        accumulate_grad(*nb, ops::matmul(ops::transpose_last2(av), g));
      }
    }
  });
}

Variable reshape(const Variable& a, Shape s) {
  auto na = a.node();
  const Shape orig = a.shape();
  return make_op(a.value().reshape(std::move(s)), {a},
                 [na, orig](const Tensor& g) {
                   accumulate_grad(*na, g.reshape(orig));
                 });
}

Variable permute(const Variable& a, std::vector<Index> perm) {
  auto na = a.node();
  std::vector<Index> inv(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i)
    inv[static_cast<std::size_t>(perm[i])] = static_cast<Index>(i);
  return make_op(ops::permute(a.value(), perm), {a},
                 [na, inv](const Tensor& g) {
                   accumulate_grad(*na, ops::permute(g, inv));
                 });
}

Variable transpose_last2(const Variable& a) {
  std::vector<Index> perm(static_cast<std::size_t>(a.shape().rank()));
  for (Index d = 0; d < a.shape().rank(); ++d)
    perm[static_cast<std::size_t>(d)] = d;
  std::swap(perm[perm.size() - 1], perm[perm.size() - 2]);
  return permute(a, std::move(perm));
}

Variable softmax_lastdim(const Variable& a) {
  Tensor y = ops::softmax_lastdim(a.value());
  auto na = a.node();
  return make_op(y, {a}, [na, y](const Tensor& g) {
    // dx = y * (g - sum_j(g_j * y_j)) along the last dim.
    Tensor gy = ops::mul(g, y);
    Tensor s = ops::sum_dim(gy, -1);
    Tensor s_exp = ops::expand_dim(s, s.rank(), y.dim(-1));
    accumulate_grad(*na, ops::mul(y, ops::sub(g, s_exp)));
  });
}

Variable gelu(const Variable& a) {
  auto na = a.node();
  return make_op(ops::gelu(a.value()), {a}, [na](const Tensor& g) {
    accumulate_grad(*na, ops::mul(g, ops::gelu_grad(na->value)));
  });
}

Variable layernorm(const Variable& a, const Variable& gamma,
                   const Variable& beta, float eps) {
  auto r = ops::layernorm(a.value(), gamma.value(), beta.value(), eps);
  auto na = a.node();
  auto ng = gamma.node();
  auto nb = beta.node();
  Tensor mean = r.mean;
  Tensor rstd = r.rstd;
  return make_op(r.y, {a, gamma, beta},
                 [na, ng, nb, mean, rstd](const Tensor& g) {
    const Tensor& x = na->value;
    const Index D = x.dim(-1);
    const Index rows = x.numel() / D;
    const float* px = x.data();
    const float* pg = g.data();
    const float* pgamma = ng->value.data();
    const float* pm = mean.data();
    const float* pr = rstd.data();
    Tensor dx(x.shape());
    Tensor dgamma(ng->value.shape());
    Tensor dbeta(nb->value.shape());
    float* pdx = dx.data();
    float* pdg = dgamma.data();
    float* pdb = dbeta.data();
    for (Index i = 0; i < rows; ++i) {
      const float* xrow = px + i * D;
      const float* grow = pg + i * D;
      float* dxrow = pdx + i * D;
      const float m = pm[i];
      const float rs = pr[i];
      float sum_gxh = 0.0f;
      float sum_g = 0.0f;
      for (Index j = 0; j < D; ++j) {
        const float xh = (xrow[j] - m) * rs;
        const float gj = grow[j] * pgamma[j];
        sum_gxh += gj * xh;
        sum_g += gj;
        pdg[j] += grow[j] * xh;
        pdb[j] += grow[j];
      }
      const float inv_d = 1.0f / static_cast<float>(D);
      for (Index j = 0; j < D; ++j) {
        const float xh = (xrow[j] - m) * rs;
        const float gj = grow[j] * pgamma[j];
        dxrow[j] = rs * (gj - inv_d * sum_g - xh * inv_d * sum_gxh);
      }
    }
    accumulate_grad(*na, dx);
    accumulate_grad(*ng, dgamma);
    accumulate_grad(*nb, dbeta);
  });
}

Variable concat(std::span<const Variable> vs, Index dim) {
  std::vector<Tensor> values;
  values.reserve(vs.size());
  std::vector<Variable> parents(vs.begin(), vs.end());
  for (const Variable& v : vs) values.push_back(v.value());
  Tensor out = ops::concat(values, dim);
  const Index rank = out.rank();
  const Index d = dim >= 0 ? dim : dim + rank;
  std::vector<std::shared_ptr<Node>> nodes;
  nodes.reserve(vs.size());
  for (const Variable& v : vs) nodes.push_back(v.node());
  return make_op(std::move(out), std::move(parents),
                 [nodes, d](const Tensor& g) {
                   Index off = 0;
                   for (const auto& n : nodes) {
                     const Index len = n->value.dim(d);
                     accumulate_grad(*n, ops::slice(g, d, off, len));
                     off += len;
                   }
                 });
}

Variable slice(const Variable& a, Index dim, Index start, Index len) {
  auto na = a.node();
  const Index rank = a.shape().rank();
  const Index d = dim >= 0 ? dim : dim + rank;
  return make_op(ops::slice(a.value(), d, start, len), {a},
                 [na, d, start](const Tensor& g) {
                   if (!na->requires_grad) return;
                   Tensor dx(na->value.shape());
                   ops::add_slice_inplace(dx, g, d, start);
                   accumulate_grad(*na, dx);
                 });
}

Variable sum_all(const Variable& a) {
  auto na = a.node();
  return make_op(ops::sum_all(a.value()), {a}, [na](const Tensor& g) {
    accumulate_grad(*na, Tensor(na->value.shape(), g.item()));
  });
}

Variable mean_all(const Variable& a) {
  return scale(sum_all(a), 1.0f / static_cast<float>(a.shape().numel()));
}

Variable sum_dim(const Variable& a, Index dim) {
  auto na = a.node();
  const Index rank = a.shape().rank();
  const Index d = dim >= 0 ? dim : dim + rank;
  const Index n = a.shape().dim(d);
  return make_op(ops::sum_dim(a.value(), d), {a},
                 [na, d, n](const Tensor& g) {
                   accumulate_grad(*na, ops::expand_dim(g, d, n));
                 });
}

Variable mean_dim(const Variable& a, Index dim) {
  const Index rank = a.shape().rank();
  const Index d = dim >= 0 ? dim : dim + rank;
  return scale(sum_dim(a, d), 1.0f / static_cast<float>(a.shape().dim(d)));
}

Variable expand_dim(const Variable& a, Index dim, Index n) {
  auto na = a.node();
  const Index rank = a.shape().rank() + 1;
  const Index d = dim >= 0 ? dim : dim + rank;
  return make_op(ops::expand_dim(a.value(), d, n), {a},
                 [na, d](const Tensor& g) {
                   accumulate_grad(*na, ops::sum_dim(g, d));
                 });
}

Variable mse_loss(const Variable& pred, const Tensor& target) {
  DCHAG_CHECK(pred.shape() == target.shape(),
              "mse_loss shapes " << pred.shape().to_string() << " vs "
                                 << target.shape().to_string());
  Variable diff = sub(pred, Variable::input(target));
  return mean_all(mul(diff, diff));
}

Variable masked_mse_loss(const Variable& pred, const Tensor& target,
                         const Tensor& mask) {
  DCHAG_CHECK(pred.shape() == target.shape() && pred.shape() == mask.shape(),
              "masked_mse_loss shape mismatch");
  const Tensor ms = ops::sum_all(mask);
  DCHAG_CHECK(ms.item() > 0.0f, "masked_mse_loss: empty mask");
  Variable diff = sub(pred, Variable::input(target));
  Variable sq = mul(diff, diff);
  Variable masked = mul(sq, Variable::input(mask));
  return scale(sum_all(masked), 1.0f / ms.item());
}

}  // namespace dchag::autograd
