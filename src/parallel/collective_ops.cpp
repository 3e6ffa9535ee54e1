#include "parallel/collective_ops.hpp"

namespace dchag::parallel {

namespace ops = tensor::ops;
using tensor::Shape;
using tensor::Tensor;

namespace {

/// Reassembles a raw [P, numel] gather buffer into the concatenation of
/// the P per-rank tensors along `d`.
Tensor cat_from_flat(const Tensor& flat, const Shape& piece_shape, int P,
                     tensor::Index d) {
  std::vector<Tensor> pieces;
  pieces.reserve(static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) {
    pieces.push_back(flat.slice0(r, 1).reshape(piece_shape));
  }
  return ops::concat(pieces, d);
}

/// The gathered Variable with the kLocalSlice tape node: downstream is
/// replicated, so the incoming gradient is identical on every rank and my
/// shard's gradient is simply my slice of it — zero backward
/// communication. Shared by the blocking and split-phase gather ops so
/// both produce bit-identical layouts and tapes.
Variable gathered_local_slice(const Tensor& flat, const Variable& x,
                              Index d, int rank) {
  const int P = static_cast<int>(flat.dim(0));
  const Index n_local = x.shape().dim(d);
  auto nx = x.node();
  return autograd::make_op(
      cat_from_flat(flat, x.shape(), P, d), {x},
      [nx, d, n_local, rank](const Tensor& g) {
        autograd::accumulate_grad(*nx,
                                  ops::slice(g, d, rank * n_local, n_local));
      });
}

}  // namespace

Variable reduce_from_parallel(const Variable& x, Communicator& comm) {
  Tensor out = x.value().clone();
  comm.all_reduce(out.span(), comm::ReduceOp::kSum);
  auto nx = x.node();
  return autograd::make_op(std::move(out), {x}, [nx](const Tensor& g) {
    autograd::accumulate_grad(*nx, g);  // identity backward
  });
}

Variable copy_to_parallel(const Variable& x, Communicator& comm) {
  auto nx = x.node();
  Communicator* c = &comm;
  return autograd::make_op(x.value(), {x}, [nx, c](const Tensor& g) {
    Tensor gr = g.clone();
    c->all_reduce(gr.span(), comm::ReduceOp::kSum);
    autograd::accumulate_grad(*nx, std::move(gr));
  });
}

Variable all_gather_cat(const Variable& x, Communicator& comm, Index dim,
                        GatherBackward backward) {
  const int P = comm.size();
  const int rank = comm.rank();
  const Index d = dim >= 0 ? dim : dim + x.shape().rank();

  // Gather the raw contiguous buffers, then reassemble along `dim`.
  Tensor flat(Shape{static_cast<Index>(P), x.shape().numel()});
  comm.all_gather(x.value().span(), flat.span());
  if (backward == GatherBackward::kLocalSlice)
    return gathered_local_slice(flat, x, d, rank);

  // General case: sum gradient slices across ranks.
  const Index n_local = x.shape().dim(d);
  auto nx = x.node();
  Communicator* c = &comm;
  return autograd::make_op(
      cat_from_flat(flat, x.shape(), P, d), {x},
      [nx, c, d, n_local, rank](const Tensor& g) {
        Tensor gr = g.clone();
        c->all_reduce(gr.span(), comm::ReduceOp::kSum);
        autograd::accumulate_grad(
            *nx, ops::slice(gr, d, rank * n_local, n_local));
      });
}

PendingGatherCat all_gather_cat_start(const Variable& x,
                                      comm::ICollective& coll, Index dim) {
  PendingGatherCat p;
  p.input_ = x;
  p.dim_ = dim >= 0 ? dim : dim + x.shape().rank();
  p.rank_ = coll.rank();
  p.flat_ = Tensor(Shape{static_cast<Index>(coll.size()), x.shape().numel()});
  // x's storage is pinned by p.input_ until the future completes; the
  // receive buffer by p.flat_. Both spans outlive the in-flight op.
  p.future_ = coll.iall_gather(x.value().span(), p.flat_.span());
  return p;
}

PendingGatherCat::~PendingGatherCat() {
  // An unwaited gather may still be reading input_ and writing flat_ on a
  // progress thread: keep both alive until it is done. Its error belongs
  // to the wait() that never came.
  try {
    future_.wait();
  } catch (...) {
  }
}

Variable PendingGatherCat::wait() {
  DCHAG_CHECK(future_.valid(), "PendingGatherCat waited twice");
  future_.wait();
  future_ = comm::CommFuture();
  return gathered_local_slice(flat_, input_, dim_, rank_);
}

void sync_parameters(std::span<const Variable> params, Communicator& comm,
                     int root) {
  for (const Variable& p : params) {
    Tensor v = p.value();  // aliases the parameter storage
    comm.broadcast(v.span(), root);
  }
}

bool is_replicated(const tensor::Tensor& t, Communicator& comm, float tol) {
  Tensor mx = t.clone();
  Tensor mn = t.clone();
  comm.all_reduce(mx.span(), comm::ReduceOp::kMax);
  comm.all_reduce(mn.span(), comm::ReduceOp::kMin);
  return ops::max_abs_diff(mx, mn) <= tol;
}

}  // namespace dchag::parallel
